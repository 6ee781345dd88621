"""The tier-1 session itself: a failing test is reported, and the tests after it still run."""

from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_GIVEN = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(n):
    assert n < 10


def test_plain_after_it():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(pytester):
    # the inner session runs under this repository's pytest settings and conftest
    pytester.makepyprojecttoml((TESTS.parent / "pyproject.toml").read_text())
    inner = pytester.mkdir("tests")
    (inner / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (inner / "test_inner.py").write_text(FAILING_GIVEN)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
