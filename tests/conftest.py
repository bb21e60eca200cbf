import signal

import pytest

from ratwp import MultiplicationTable

# collected outcomes of the acceptance criteria, printed as one line each
# at the end of the run
_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py::test_criterion_" not in report.nodeid:
        return
    number = report.nodeid.rsplit("test_criterion_", 1)[1].split("[")[0]
    _ACCEPTANCE[int(number)] = report.outcome == "passed"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        verdict = "PASS" if _ACCEPTANCE[number] else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict}")


@pytest.fixture
def time_limit():
    """Fail the test after 10 s, so that a hang fails fast instead of
    stalling the run (POSIX only: SIGALRM). The failure is pytest's own
    exception, which no `except Exception` in the code under test
    catches."""
    def expire(signum, frame):
        pytest.fail("test ran longer than 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def c2_table():
    return MultiplicationTable(("1", "g"), ((0, 1), (1, 0)))


@pytest.fixture(scope="session")
def left_zero_table():
    return MultiplicationTable(("l", "r"), ((0, 0), (1, 1)))


@pytest.fixture(scope="session")
def t3_table():
    """The full transformation monoid on three points, each map named by
    its images ("102" sends 0 to 1, 1 to 0 and 2 to 2); x y applies x
    first."""
    maps = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    index = {m: i for i, m in enumerate(maps)}
    product = tuple(tuple(index[tuple(y[x[p]] for p in range(3))]
                          for y in maps) for x in maps)
    return MultiplicationTable(tuple("".join(map(str, m)) for m in maps),
                               product)
