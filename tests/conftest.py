"""Fixtures shared by the test modules."""

import pytest
from mpmath import mp


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
