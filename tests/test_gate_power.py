"""Gate power: an acceptance gate must reject a known-wrong engine.

A gate that passes a wrong engine proves nothing.  Each case runs a gate's own
body, at its own seed and bound, on an engine with one defect, and requires the
gate's assertion to fail.  ``__wrapped__`` is the body without the gate's
``ACCEPTANCE ... PASS/FAIL`` line, so a rejected mutant prints nothing.

The defect here is a wrong weight exponent: ``series._chunk_coeffs`` assembles
every chunk of coefficients at another alpha than the spec's.  On the 0.1 grid
below 1.5, c10 rejects 1.4, c12 rejects 1.2 but passes 1.3, and c08's alpha-1.5
half rejects 1.3 but passes 1.4.  The cases sit one step further out, so a small
change of draws keeps them rejected.
"""

from dataclasses import replace

import pytest

import test_acceptance as gates
from lepage import series


@pytest.mark.parametrize("gate,alpha", [
    ("test_c08_tail_index_recovery", 1.2),
    ("test_c10_family_membership", 1.3),
    ("test_c12_regvar_tail_ratio", 1.1),
])
def test_gate_rejects_draws_at_a_wrong_alpha(monkeypatch, gate, alpha):
    coeffs_of = series._chunk_coeffs

    def at_wrong_alpha(spec, *rest):
        return coeffs_of(replace(spec, alpha=alpha), *rest)

    monkeypatch.setattr(series, "_chunk_coeffs", at_wrong_alpha)
    with pytest.raises(AssertionError):
        getattr(gates, gate).__wrapped__()
