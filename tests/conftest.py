"""Fixtures shared by the test modules, and the Hypothesis profiles:
``HYPOTHESIS_PROFILE=ci`` runs each property on 2,000 examples, and
``HYPOTHESIS_PROFILE=mutants`` (``tests/mutants.py``) runs each property on
its explicit ``@example``s only, drawing none, so whether a mutant dies never
depends on a draw; it saves no failing example."""

import os

import pytest
from hypothesis import Phase, settings
from mpmath import mp

settings.register_profile("ci", max_examples=2000)
settings.register_profile("mutants", database=None, phases=(Phase.explicit,))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def precision_writes(monkeypatch):
    """A function that starts counting writes of ``prec`` and ``dps`` on the
    global mpmath context; it returns the list they are appended to."""

    def start() -> list:
        writes = []
        context_class = type(mp)
        for name in ("prec", "dps"):
            prop = getattr(context_class, name)

            def counted(ctx, value, set_=prop.fset, name=name):
                if ctx is mp:
                    writes.append(name)
                set_(ctx, value)

            monkeypatch.setattr(context_class, name, property(prop.fget, counted))
        with mp.workprec(300):  # the probe itself sees writes
            pass
        assert writes == ["prec", "prec"]
        writes.clear()
        return writes

    return start
