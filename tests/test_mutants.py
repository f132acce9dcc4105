"""The table of tests/mutants.py stays applicable: each mutant's old text occurs exactly
once in its file, and each test id names a test file that exists. Whether the tests kill
the mutants is checked by running tests/mutants.py, which the suite does not do."""

import pytest

from mutants import MUTANTS, REPO_ROOT, occurrences


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert occurrences(mutant) == 1
    assert mutant.tests
    for test_id in mutant.tests:
        assert (REPO_ROOT / test_id.split("::")[0]).is_file(), test_id
