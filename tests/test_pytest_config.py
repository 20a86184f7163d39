"""pyproject.toml's pytest settings report a failing test as a failure."""

import pathlib

pytest_plugins = ["pytester"]

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_given_test_fails_and_the_session_goes_on(pytester):
    # Warnings are errors; a DeprecationWarning raised while hypothesis
    # reports a failure once aborted the session with INTERNALERROR.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in str(result.stdout) + str(result.stderr)
    result.assert_outcomes(failed=1, passed=1)
