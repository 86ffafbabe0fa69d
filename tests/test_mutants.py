"""Every row of the mutant catalogue still anchors in the tree it mutates."""

from mutants import MUTANTS, ROOT


def test_each_row_anchors_once():
    # the full run, PYTHONPATH=src python tests/mutants.py, stays out of tier-1
    for mutant in MUTANTS:
        assert (ROOT / mutant.file).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.tests, mutant.name
        for test in mutant.tests:
            path, *names = test.split("::")
            assert f"def {names[-1]}(" in (ROOT / path).read_text(), test
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
