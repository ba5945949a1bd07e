"""Acceptance suite: every bench criterion must pass at its stated tolerance.

Each test prints its criterion's expected/observed line (visible with -s or
on failure) and asserts the criterion's verdict. Run the same table from the
command line with `mirrorboost bench`.
"""

import pytest

from mirrorboost.bench import CRITERIA, run_bench


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name):
    [result] = run_bench(name)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status} {result.name}: expected {result.expected}; "
        f"observed {result.observed} ({result.seconds:.2f} s)"
    )
    assert result.passed, f"{result.name}: expected {result.expected}, observed {result.observed}"
