"""Two-tape finite automata deciding semigroup and monoid word problems."""

from .automata import (
    EPSILON,
    PAD,
    Alphabet,
    InputError,
    NfaTransition,
    OneTapeAutomaton,
    Transition,
    TwoTapeAutomaton,
    accepts_one_tape,
    accepts_two_tape,
    as_word,
    determinize,
    eliminate_silent_steps,
    enumerate_accepted,
    enumerate_language,
    swap_tapes,
    sync_to_async,
    trim,
    union,
    validate_sync,
)
from .relations import (
    compose,
    cross_product,
    fix_tape,
    intersect_rectangle,
    relabel,
    substitution_relation,
)
from .presentations import (
    IdealData,
    MultiplicationTable,
    Presentation,
    ProductGenerators,
    RelationSchema,
)
from .constructions import (
    add_generator,
    adjoin_identity,
    adjoin_zero,
    builtin,
    builtin_presentation,
    cayley_wp_sync,
    free_product,
    free_wp,
    ideal_extension,
    monoid_from_semigroup_wp,
    product_with_finite,
    remove_generator,
    zero_union,
)
from .oracle import Oracle, build_oracle, table_oracle, verify
from .analysis import (
    PumpDecomposition,
    Report,
    congruence_check,
    cross_section,
    equivalence_check,
    export_dot,
    pump_check,
    pump_decompose,
    pump_refute,
    pumping_constant,
    validate_cross_section,
)
from .fileio import (
    dumps_fsa,
    load_fsa,
    load_ideal,
    load_sgp,
    load_tbl,
    loads_fsa,
    loads_sgp,
    save_fsa,
)

__version__ = "0.1.0"
