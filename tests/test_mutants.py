"""Smoke test of the mutation suite, which runs no mutant: each old text
still occurs exactly once in its file, so the list cannot rot silently, and
every Hypothesis property a mutant's tests select has an explicit example,
as the ``mutants`` profile runs those alone.  ``python tests/mutants.py``
runs the mutants."""

import importlib
import inspect
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


def _selected(selection):
    """{node id: function} of the tests a pytest node id selects: those of a
    file, of a class in it, or one test, its parameters dropped."""
    selection = selection.split("[")[0]
    path, *names = selection.split("::")
    found = importlib.import_module(Path(path).stem)
    for name in names:
        found = getattr(found, name)
    if inspect.isfunction(found):
        return {selection: found}
    tests = {}
    for name, value in vars(found).items():
        if (name.startswith("Test") and inspect.isclass(value)
                or name.startswith("test") and inspect.isfunction(value)):
            tests.update(_selected(f"{selection}::{name}"))
    return tests


def test_every_property_a_mutant_selects_has_an_explicit_example():
    # the mutants profile runs no generated example: a property with no
    # explicit one runs nothing, and kills no mutant
    selected = {}
    for mutant in mutants.MUTANTS:
        for selection in mutant.tests:
            selected.update(_selected(selection))
    properties = {name: fn for name, fn in selected.items()
                  if getattr(fn, "is_hypothesis_test", False)}
    assert properties
    bare = [name for name, fn in properties.items()
            if not getattr(fn.hypothesis.inner_test, "hypothesis_explicit_examples", None)]
    assert not bare, f"properties with no explicit example: {bare}"
