"""Gate power: an acceptance gate must reject a known-wrong engine.

A gate that passes a wrong engine proves nothing.  Each case runs a gate's own
body, at its own seed and bound, on an engine with one defect, and requires the
gate's assertion to fail.  ``__wrapped__`` is the body without the gate's
``ACCEPTANCE ... PASS/FAIL`` line, so a rejected mutant prints nothing.

The first defect is a wrong weight exponent: ``series._chunk_coeffs`` assembles
every chunk of coefficients at another alpha than the spec's.  On the 0.1 grid
below 1.5, c10 rejects 1.4, c12 rejects 1.2 but passes 1.3, and c08's alpha-1.5
half rejects 1.3 but passes 1.4.  The cases sit one step further out, so a small
change of draws keeps them rejected.

The others are the defects that the increment-moment gates c01-c03 and c07 read,
each listed with the gates that reject it; the gates not listed pass it:

* jump locations drawn as U^2 instead of U: c01 and c03 (c02's cross moment of
  unit jumps is 0 wherever the jump lies);
* the squared increments of a triple's two spans summed instead of multiplied:
  c02 and c03 (c01's pairs have one span);
* a Poisson rate 20% high: c03;
* every coefficient of modulus 1, the weights dropped: c07.

c07 passes doubled coefficients, although they give 16 times the fourth moment:
its bound is about 14 times the estimate, so it reads that defect only where it
is larger.
"""

from dataclasses import replace

import numpy as np
import pytest

import test_acceptance as gates
from lepage import diagnostics, random_inputs, series


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


def squared_locations(monkeypatch):
    draw_open_unit = random_inputs._draw_open_unit

    def squared(gen, n, out=None):
        u = draw_open_unit(gen, n, out)
        return np.square(u, out=u)

    monkeypatch.setattr(random_inputs, "_draw_open_unit", squared)


def summed_spans(monkeypatch):
    def summed(inc, spans):
        sq = np.sum(inc * inc, axis=2)
        return np.sum(sq.reshape(len(sq), -1, spans), axis=2)

    monkeypatch.setattr(diagnostics, "_span_products", summed)


def poisson_rate_20_percent_high(monkeypatch):
    table_of = random_inputs._PoissonTable
    monkeypatch.setattr(random_inputs, "_PoissonTable", lambda lam: table_of(1.2 * lam))


def dropped_weights(monkeypatch):
    coeffs_of = series._chunk_coeffs
    monkeypatch.setattr(series, "_chunk_coeffs", lambda *args: np.sign(coeffs_of(*args)))


@pytest.mark.parametrize("defect,gate", [
    (squared_locations, "test_c01_unit_jump_moment_identity"),
    (squared_locations, "test_c03_poisson_moment_identities"),
    (summed_spans, "test_c02_unit_jump_cross_moment_zero"),
    (summed_spans, "test_c03_poisson_moment_identities"),
    (poisson_rate_20_percent_high, "test_c03_poisson_moment_identities"),
    (dropped_weights, "test_c07_tightness_chain"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_moment_gate_rejects_a_wrong_engine(monkeypatch, defect, gate):
    defect(monkeypatch)
    with pytest.raises(AssertionError):
        getattr(gates, gate).__wrapped__()
