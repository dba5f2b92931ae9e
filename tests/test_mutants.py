"""Smoke test of the mutation suite, which runs no mutant: each old text
still occurs exactly once in its file, so the list cannot rot silently.
``python tests/mutants.py`` runs the mutants."""

from pathlib import Path

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_the_old_text_occurs_once_and_the_tests_exist(mutant):
    text = (mutants.SRC / "envasym" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    assert all((mutants.ROOT / test.split("::")[0]).is_file() for test in mutant.tests)


def test_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
