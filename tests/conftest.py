"""Shared fixtures."""

import pytest

from fraclim import fracderiv, funcmodel, leibniz, lfd


@pytest.fixture
def derivative_builds(monkeypatch):
    """The list of the k >= 1 of every ``funcmodel.derivative`` call that the
    operator modules make, in call order: each is one exact k-th derivative
    built from its function."""
    ks = []

    def counted(f, k, _derivative=funcmodel.derivative):
        if k >= 1:
            ks.append(k)
        return _derivative(f, k)

    for module in (fracderiv, leibniz, lfd):
        monkeypatch.setattr(module, "derivative", counted)
    return ks
