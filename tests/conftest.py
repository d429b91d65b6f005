"""Shared pytest config.

Loads the one Hypothesis profile of the suite, "deterministic": draws
are derandomized, no example database is read or written and no test
has a deadline, so every run draws the same examples.  Each @given
test's own @settings sets only max_examples.  Hypothesis's caches go to
a temporary directory removed when the session ends, so a run leaves no
.hypothesis/ in the checkout.

Collects the outcome of every test in test_acceptance.py and prints one
PASS/FAIL line per criterion at the end of the run, so the acceptance
status is readable without scanning the full log.

assert_same_text compares long texts, such as written files, for the
test modules, which import it from here.
"""

import collections
import tempfile

from hypothesis import configuration, settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

_ACCEPTANCE_FILE = "test_acceptance.py"
_acceptance_titles = {}
_acceptance_outcomes = collections.OrderedDict()


def assert_same_text(got: str, expected: str) -> None:
    """got == expected, or a failure that names the first differing line and
    its 0-based index: an assertion diff of two texts of thousands of lines
    would run for minutes."""
    got, expected = got.split("\n"), expected.split("\n")
    assert len(got) == len(expected), f"{len(got)} lines, expected {len(expected)}"
    i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
    assert i is None, f"line {i} is {got[i]!r}, expected {expected[i]!r}"


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


def pytest_collection_modifyitems(items):
    for item in items:
        if _ACCEPTANCE_FILE not in item.nodeid:
            continue
        doc = (item.function.__doc__ or "").strip().splitlines()
        _acceptance_titles[item.nodeid] = doc[0] if doc else item.name
        _acceptance_outcomes[item.nodeid] = "NOT RUN"


def pytest_runtest_logreport(report):
    if _ACCEPTANCE_FILE not in report.nodeid:
        return
    if report.when == "call":
        _acceptance_outcomes[report.nodeid] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and (report.failed or report.skipped):
        _acceptance_outcomes[report.nodeid] = "FAIL" if report.failed else "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, outcome in _acceptance_outcomes.items():
        title = _acceptance_titles.get(nodeid, nodeid)
        terminalreporter.write_line(f"[{outcome}] {title}")
