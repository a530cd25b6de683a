"""Monte Carlo and analytic checks of the convergence conditions.

Two families of quantities live here:

* **Increment-moment checks.**  ``estimate_c1`` and ``estimate_c2``
  estimate the second moment of path increments and the product of squared
  increments over adjacent intervals, and compare them to a user-supplied
  :class:`MomentEnvelope` ``|F(t2) - F(t1)|^beta`` (respectively
  ``^(2 beta)``).  Verdicts use a 4-standard-error band: Monte Carlo can
  refute an inequality at confidence, never certify it, so estimates whose
  band straddles the envelope come back ``inconclusive``.

* **Analytic sums over the truncated multipliers** ``eps~_i =
  eps_i 1{|eps_i|^alpha <= i}``: the weighted moment series C(alpha, m),
  the centered first-moment series, the Borel-Cantelli tail-probability
  sum, and the fourth-moment sums ``S_{n,tau}`` indexed by set partitions
  of {1,2,3,4}.  All are computed atom-exactly for discrete multiplier
  families (in closed form for the uniform family).

``tightness_functional`` ties the two together: a moment report of kind
``"tightness"`` holds the Monte Carlo fourth moment of weighted partial-sum
increments next to its assembled bound ``d^2 * sum_tau S_{n,tau} *
Dhat_tau``, for every triple of a grid from one series run.

The three reports estimate one quantity, the mean product of squared increment
norms over an entry's spans, in one body, ``_moment_report``, which checks the
entries and replicates, draws through its caller's function, reduces and compares;
each caller settles its bounds (envelopes, partition sums) before anything is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .parallel import map_replicates, replicate_mean_se
from .paths import DomainError
from .random_inputs import ConfigurationError, EpsilonSpec, YGeneratorSpec, interval_increments
from .rng import RngStream
from .series import SeriesSpec, sample_weighted_increments

__all__ = [
    "MomentEnvelope",
    "MomentEntry",
    "MomentReport",
    "default_envelopes",
    "estimate_c1",
    "estimate_c2",
    "MomentConstant",
    "moment_constant",
    "centered_first_moment_sum",
    "BorelCantelliSum",
    "borel_cantelli_sum",
    "Partition",
    "enumerate_partitions",
    "partition_label",
    "partition_sum",
    "partition_envelope_exponents",
    "PartitionReport",
    "partition_report",
    "tightness_functional",
    "PARTITION_CARDINALITY_NOTE",
]

_TAG_C1 = 201
_TAG_C2 = 202
# each report kind: what its entries are, and their times in the order they must keep
_ENTRY_TIMES = {"increment_second_moment": ("pair", ("t1", "t2")), "cross_moment": ("triple", ("t1", "t", "t2")),
                "tightness": ("triple", ("t1", "t", "t2"))}

Partition = tuple[tuple[int, ...], ...]

# Direct enumeration yields the Bell number B(4) = 15; the figure 13
# sometimes quoted alongside this partition family undercounts it.  The
# per-partition values are reported for all 15.
PARTITION_CARDINALITY_NOTE = (
    "enumerated 15 set partitions of {1,2,3,4} (Bell number B(4) = 15); "
    "this differs from the sometimes-quoted cardinality 13, which undercounts the family"
)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEnvelope:
    """``|F(t2) - F(t1)|^beta`` for a nondecreasing continuous F on [0, 1] and beta > 1/2.

    F is the polynomial ``sum_k coeffs[k-1] t^k`` with nonnegative coefficients or, when
    ``grid_xs`` is given, the monotone interpolation of ``grid_ys`` at the increasing
    ``grid_xs``.  A non-finite or empty parameter raises :class:`ConfigurationError`.
    """

    beta: float
    coeffs: tuple[float, ...] = (1.0,)
    grid_xs: np.ndarray | None = None
    grid_ys: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (self.beta > 0.5 and math.isfinite(self.beta)):
            raise ConfigurationError(f"envelope exponent must be finite and exceed 1/2, got {self.beta}")
        if self.grid_xs is None:
            if not self.coeffs or not all(c >= 0 and math.isfinite(c) for c in self.coeffs):
                raise ConfigurationError(f"envelope needs finite nonnegative coefficients, got {self.coeffs}")
            return
        xs = np.asarray(self.grid_xs, dtype=np.float64)
        ys = np.asarray(self.grid_ys, dtype=np.float64)
        if (xs.ndim != 1 or xs.shape != ys.shape or not xs.size or not np.all(np.isfinite(xs) & np.isfinite(ys))
                or np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) < 0)):
            raise ConfigurationError("grid envelope needs at least one knot: finite increasing xs "
                                     "and finite nondecreasing ys of the same length")
        object.__setattr__(self, "grid_xs", xs)
        object.__setattr__(self, "grid_ys", ys)

    def f(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if self.grid_xs is not None:
            return np.interp(t, self.grid_xs, self.grid_ys)
        return sum(c * t**k for k, c in enumerate(self.coeffs, start=1))

    def bound(self, t1: float, t2: float, spans: int = 1) -> float:
        """``|F(t2) - F(t1)|^(spans * beta)``: beta for a pair, 2 beta for a triple."""
        return float(np.abs(self.f(t2) - self.f(t1)) ** (spans * self.beta))

    def echo(self) -> dict:
        if self.grid_xs is None:
            return {"kind": "poly", "beta": self.beta, "coeffs": list(self.coeffs)}
        return {"kind": "grid", "beta": self.beta, "xs": self.grid_xs.tolist(), "ys": self.grid_ys.tolist()}


def default_envelopes(y_spec: YGeneratorSpec) -> tuple[MomentEnvelope, MomentEnvelope]:
    """Envelope pair (for the second-moment and cross-moment checks).

    * unit jump: F(t) = t, beta = 1 for both conditions;
    * Poisson(lam) counts: F(t) = lam*t + lam^2*t^2, beta = 1 for both;
    * weighted jumps: F = M^(1/4) * p * sum of the location cdfs with
      beta = 2 for both, which absorbs the constants M^(1/2) p^2 and
      M p^4 of the closed-form bounds.  The cdfs are piecewise linear, so
      F is the grid of its values at the union of their knots.

    User generators have no default; supply an envelope explicitly.
    """
    variant = getattr(y_spec, "variant", "user")
    if variant == "example1":
        return MomentEnvelope(beta=1.0), MomentEnvelope(beta=1.0)
    if variant == "example3":
        lam = y_spec.lam
        env = MomentEnvelope(beta=1.0, coeffs=(lam, lam * lam))
        return env, env
    if variant == "example2":
        m4 = y_spec.fourth_moment_bound
        if not np.isfinite(m4):
            m4 = y_spec.height_dist.fourth_moment()
        xs = np.unique(np.concatenate([cdf.xs for cdf in y_spec.cdfs]))
        ys = m4**0.25 * y_spec.p * sum(cdf(xs) for cdf in y_spec.cdfs)
        env = MomentEnvelope(beta=2.0, grid_xs=xs, grid_ys=ys)
        return env, env
    raise ConfigurationError(
        f"no default envelope for generator variant {variant!r}; supply one explicitly"
    )


# ---------------------------------------------------------------------------
# increment-moment estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentEntry:
    t1: float
    t_mid: float | None
    t2: float
    estimate: float
    se: float
    envelope: float
    verdict: str


@dataclass(frozen=True)
class MomentReport:
    kind: str
    entries: tuple[MomentEntry, ...]
    replicates: int
    meta: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return any(e.verdict == "violated" for e in self.entries)

    def rows(self) -> list[dict]:
        return [
            {
                "t1": e.t1,
                "t": "" if e.t_mid is None else e.t_mid,
                "t2": e.t2,
                "estimate": e.estimate,
                "se": e.se,
                "envelope": e.envelope,
                "verdict": e.verdict,
            }
            for e in self.entries
        ]


def _verdict(estimate: float, se: float, envelope: float) -> str:
    if estimate - 4.0 * se > envelope:
        return "violated"
    if estimate + 4.0 * se <= envelope:
        return "satisfied"
    return "inconclusive"


def _checked_times(kind, times) -> list[tuple[float, ...]]:
    """``times`` as float tuples; an entry of the wrong length or out of time order raises
    :class:`DomainError` naming it."""
    what, names = _ENTRY_TIMES[kind]
    times = [tuple(map(float, ts)) for ts in times]
    for ts in times:
        if len(ts) != len(names) or not all(a <= b for a, b in zip((0.0, *ts), (*ts, 1.0))):
            raise DomainError(f"{what} must satisfy 0 <= {' <= '.join(names)} <= 1, got {ts}")
    return times


def _span_products(inc: np.ndarray, spans: int) -> np.ndarray:
    """Per path and entry, the product of the squared increment norms over the entry's ``spans``
    intervals, ``inc[:, e*spans:(e+1)*spans]`` for entry e; :func:`_moment_report` reports overflow."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _moment_report, naming the entry
        sq = np.sum(inc * inc, axis=2)
        return np.prod(sq.reshape(len(sq), -1, spans), axis=2)


def _moment_report(kind, times, replicates, minimum, span_products, bound, meta) -> MomentReport:
    """The :class:`MomentReport` of the entries ``times`` (2 times for 1 span, 3 for 2), once they and
    ``replicates >= minimum`` are checked; no entries draw nothing.  ``span_products(intervals, spans)``
    gives one row per replicate, in chunk order, of every entry's span product; entry e's mean is compared
    with ``bound(t1, t2, spans)``, and a non-finite mean or SE raises :class:`ConfigurationError` naming e."""
    times = _checked_times(kind, times)
    if replicates < minimum:
        raise ConfigurationError(f"need at least {minimum} replicates, got {replicates}")
    if not times:  # nothing to estimate, so no path is drawn
        return MomentReport(kind, (), replicates, meta)
    spans = len(_ENTRY_TIMES[kind][1]) - 1
    mean, se = replicate_mean_se(span_products([(ts[j], ts[j + 1]) for ts in times for j in range(spans)], spans).T)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(se)))
    if bad.size:
        raise ConfigurationError(f"{kind} entry {times[bad[0]]}: estimate {mean[bad[0]]}, se {se[bad[0]]}; "
                                 "the squared increments overflow")
    bounds = [bound(ts[0], ts[-1], spans) for ts in times]
    entries = tuple(MomentEntry(ts[0], ts[1] if len(ts) == 3 else None, ts[-1], m, s, b, _verdict(m, s, b))
                    for ts, m, s, b in zip(times, mean.tolist(), se.tolist(), bounds))
    return MomentReport(kind, entries, replicates, meta)


def _path_moments(kind, tag, y_spec, times, replicates, envelope, stream, threads) -> MomentReport:
    """:func:`_moment_report` of ``y_spec``'s paths against ``envelope``; each chunk of paths
    is reduced to its span products, so no chunk's increments outlive it."""
    def span_products(intervals, spans):
        def one_chunk(sub, m):
            return _span_products(interval_increments(y_spec.block_sampler(sub).take(m), intervals), spans)
        return np.concatenate(map_replicates(one_chunk, stream.substream(tag), replicates, 1, threads))

    return _moment_report(kind, times, replicates, 100, span_products, envelope.bound,
                          {"y": y_spec.echo(), "envelope": envelope.echo()})


def estimate_c1(y_spec: YGeneratorSpec, pairs, replicates: int, envelope: MomentEnvelope, stream: RngStream,
                threads=1) -> MomentReport:
    """Monte Carlo second moments ``E|Y(t2) - Y(t1)|^2`` against the envelope."""
    return _path_moments("increment_second_moment", _TAG_C1, y_spec, pairs, replicates, envelope, stream, threads)


def estimate_c2(y_spec: YGeneratorSpec, triples, replicates: int, envelope: MomentEnvelope, stream: RngStream,
                threads=1) -> MomentReport:
    """Monte Carlo cross moments ``E|Y(t2)-Y(t)|^2 |Y(t)-Y(t1)|^2``."""
    return _path_moments("cross_moment", _TAG_C2, y_spec, triples, replicates, envelope, stream, threads)


# ---------------------------------------------------------------------------
# analytic sums over the truncated multipliers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentConstant:
    value: float
    converged: bool
    alpha: float
    m: float
    n_max: int


def _index_terms(alpha: float, eps: EpsilonSpec, n: int, m: float | None = None) -> np.ndarray:
    """The terms ``i^(-m/alpha) E|eps~_i|^m`` for i = 1..n, or ``i^(-1/alpha) |E eps~_i|`` when m is None."""
    i = np.arange(1, n + 1, dtype=np.float64)
    if m is None:
        return i ** (-1.0 / alpha) * np.abs(eps.truncated_mean(i, alpha))
    return i ** (-m / alpha) * eps.truncated_abs_moment(m, i, alpha)


def moment_constant(alpha: float, m: float, eps: EpsilonSpec, n_max: int) -> MomentConstant:
    """Truncated series ``sum_{i<=n_max} i^(-m/alpha) E|eps~_i|^m``.

    Finite only for ``m > alpha``; smaller exponents are rejected as the
    divergent regime.  The convergence flag is set when the last decade of
    terms contributes less than 1e-6 of the total.
    """
    if m <= alpha:
        raise ConfigurationError(
            f"divergent regime: the moment series requires m > alpha, got m = {m}, alpha = {alpha}"
        )
    if n_max < 0:
        raise ConfigurationError(f"n_max must be nonnegative, got {n_max}")
    if n_max == 0:
        return MomentConstant(0.0, False, alpha, m, 0)
    terms = _index_terms(alpha, eps, n_max, m)
    total = float(np.sum(terms))
    tail = float(np.sum(terms[n_max // 10:]))
    converged = total == 0.0 or (n_max >= 10 and tail < 1e-6 * total)
    return MomentConstant(total, converged, alpha, m, n_max)


def centered_first_moment_sum(alpha: float, eps: EpsilonSpec, n_max: int) -> float:
    """``sum_{i<=n_max} i^(-1/alpha) |E eps~_i|`` for mean-zero families.

    With ``E eps = 0`` the truncated mean equals minus the tail mean, so
    the terms vanish once every atom is kept.
    """
    if not eps.is_mean_zero:
        raise ConfigurationError(
            f"centered first-moment sum requires a mean-zero family, got mean {eps.mean()!r}"
        )
    return float(np.sum(_index_terms(alpha, eps, n_max)))  # no terms for n_max <= 0


@dataclass(frozen=True)
class BorelCantelliSum:
    value: float
    alpha_moment: float


def borel_cantelli_sum(alpha: float, eps: EpsilonSpec, n_max: int) -> BorelCantelliSum:
    """``sum_{i<=n_max} P(|eps|^alpha > i)`` with its bound ``E|eps|^alpha``."""
    bound = eps.abs_moment(alpha)
    if n_max <= 0:
        return BorelCantelliSum(0.0, bound)
    i = np.arange(1, n_max + 1, dtype=np.float64)
    value = float(np.sum(eps.tail_prob(i, alpha)))
    if value > bound * (1.0 + 1e-12):
        raise AssertionError(f"tail-probability sum {value} exceeds E|eps|^alpha = {bound}")
    return BorelCantelliSum(value, bound)


# ---------------------------------------------------------------------------
# set partitions of {1, 2, 3, 4} and the indexed fourth-moment sums
# ---------------------------------------------------------------------------


def _set_partitions(items: tuple[int, ...]) -> list[Partition]:
    """All set partitions, as tuples of blocks sorted by their least element."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out: list[Partition] = []
    for sub in _set_partitions(rest):
        out.append(((first,),) + sub)
        for j, block in enumerate(sub):
            out.append(sub[:j] + ((first,) + block,) + sub[j + 1:])
    canon = [tuple(sorted((tuple(sorted(b)) for b in p), key=lambda b: b[0])) for p in out]
    return sorted(set(canon))


_PARTITIONS = tuple(_set_partitions((1, 2, 3, 4)))


def enumerate_partitions() -> list[Partition]:
    """The 15 set partitions of {1, 2, 3, 4}, in canonical sorted order."""
    return list(_PARTITIONS)


def partition_label(tau: Partition) -> str:
    return "".join("{" + ",".join(str(x) for x in block) + "}" for block in tau)


def _block_moment_factors(tau, alpha: float, eps: EpsilonSpec, n: int) -> list[np.ndarray]:
    """Per-block arrays g_B(i) = i^(-|B|/alpha) * moment factor of eps~_i, for each block B of ``tau``.

    Singleton blocks contribute ``|E eps~_i|``; larger blocks contribute
    ``E|eps~_i|^b`` (absolute values per factor, as in the bounding step).
    """
    return [_index_terms(alpha, eps, n, None if len(b) == 1 else float(len(b))) for b in tau]


def _sum_distinct(gs: list[np.ndarray], depths) -> np.ndarray:
    """Sum of ``prod_j gs[j][x_j]`` over pairwise-distinct indices ``x_j < n``, by a DP over
    subsets, at each depth ``n`` of ``depths`` (at most ``len(gs[0])``).

    ``below[s][m]`` sums the products of the factors in bit set ``s`` over distinct
    indices below ``m``: the largest index takes one factor j of s, the others lie below
    it.  Every term is nonnegative, so nothing cancels, and the sum over the first n
    indices is a partial sum of the one over more: a cumsum prefix, the same floats as
    a DP run to depth n alone.
    """
    n = len(gs[0])
    below = [np.ones(n + 1)]
    for s in range(1, 1 << len(gs)):
        at = sum(g * below[s ^ (1 << j)][:n] for j, g in enumerate(gs) if s >> j & 1)
        below.append(np.concatenate([[0.0], np.cumsum(at)]))
    return below[-1][np.asarray(depths, dtype=np.intp)]


def partition_sum(tau: Partition, alpha: float, eps: EpsilonSpec, n: int) -> float:
    """``S_{n,tau}``: the weighted fourth-moment sum over index tuples of pattern tau.

    Independence across distinct indices factors the expectation into one
    moment per block; :func:`_sum_distinct` sums the block factors over
    distinct indices.  A sum with no nonzero term is exactly 0.0, and the
    values never decrease in n.
    """
    if tau not in _PARTITIONS:
        raise ConfigurationError(f"not a partition of {{1,2,3,4}}: {tau!r}")
    if n <= 0:
        return 0.0
    return float(_sum_distinct(_block_moment_factors(tau, alpha, eps, n), [n])[0])


@dataclass(frozen=True)
class PartitionReport:
    """Per-partition sums on a grid of truncation depths, with their bounds.

    ``envelope_exponents[j] = (p, q)`` factorizes the increment-envelope
    bound of partition j as ``Dhat = G1^p * G2^q`` where G1, G2 are the
    pair/triple envelope values over the widened interval.
    """

    alpha: float
    epsilon: dict
    n_grid: tuple[int, ...]
    partitions: tuple[str, ...]
    s_values: np.ndarray  # (len(partitions), len(n_grid))
    bound_products: tuple[float, ...]
    bound_products_alt: dict
    envelope_exponents: tuple[tuple[float, float], ...]
    cardinality_note: str

    def rows(self) -> list[dict]:
        out = []
        for j, label in enumerate(self.partitions):
            row = {"partition": label}
            for c, n in enumerate(self.n_grid):
                row[f"s_n{n}"] = float(self.s_values[j, c])
            row["bound_product"] = self.bound_products[j]
            row["bound_product_alt"] = self.bound_products_alt.get(label, "")
            row["g1_exponent"], row["g2_exponent"] = self.envelope_exponents[j]
            out.append(row)
        return out


def partition_report(
    alpha: float,
    eps: EpsilonSpec,
    n_grid=(1, 2, 4, 8, 16, 32, 64, 128),
    constant_n_max: int = 10**5,
) -> PartitionReport:
    """Evaluate every ``S_{n,tau}`` on a depth grid next to its constant bound.

    The bound for a partition multiplies C(alpha, b) over its blocks
    (the centered first-moment sum for singletons).  For the partitions
    with block sizes {3, 1} two displayed bounds circulate,
    C(a,3)*C(a,3) and C(a,3)*C(a,1); both are reported side by side.
    """
    taus = enumerate_partitions()
    n_grid = tuple(int(n) for n in n_grid)
    depths = [max(n, 0) for n in n_grid]  # one DP per partition, read at every depth
    s = np.array([_sum_distinct(_block_moment_factors(tau, alpha, eps, max(depths, default=0)), depths)
                  for tau in taus])
    c_of: dict[int, float] = {}
    for b in {len(block) for tau in taus for block in tau}:
        if b == 1:
            c_of[b] = centered_first_moment_sum(alpha, eps, constant_n_max) if eps.is_mean_zero else math.inf
        else:
            c_of[b] = moment_constant(alpha, float(b), eps, constant_n_max).value
    bounds = tuple(float(np.prod([c_of[len(block)] for block in tau])) for tau in taus)
    alt = {}
    for tau in taus:
        sizes = sorted(len(block) for block in tau)
        if sizes == [1, 3]:
            alt[partition_label(tau)] = c_of[3] * c_of[3]
    return PartitionReport(
        alpha=alpha,
        epsilon=eps.echo(),
        n_grid=n_grid,
        partitions=tuple(partition_label(t) for t in taus),
        s_values=s,
        bound_products=bounds,
        bound_products_alt=alt,
        envelope_exponents=tuple(partition_envelope_exponents(t) for t in taus),
        cardinality_note=PARTITION_CARDINALITY_NOTE,
    )


# ---------------------------------------------------------------------------
# tightness functional
# ---------------------------------------------------------------------------


def _envelope_block_exponents(first_slots: int, second_slots: int) -> tuple[float, float]:
    """Envelope exponents (p, q) bounding one block's expectation by G1^p G2^q.

    ``first_slots`` of the block's factors are increments over (t1, t] and
    ``second_slots`` over (t, t2]; Cauchy-Schwarz plus the two moment
    envelopes give the exponents below (G1, G2 are the pair/triple
    envelope values over the widened interval (t1, t2]).
    """
    a, b = first_slots, second_slots
    if (a, b) == (2, 2):
        return 0.0, 2.0
    if (a, b) in ((2, 1), (1, 2)):
        return 0.5, 1.0
    if a + b == 2:
        return 1.0, 0.0
    return 0.5, 0.0


def partition_envelope_exponents(tau: Partition) -> tuple[float, float]:
    """Summed (G1, G2) exponents of the increment-envelope bound for tau."""
    p = q = 0.0
    for block in tau:
        dp, dq = _envelope_block_exponents(
            sum(1 for j in block if j in (1, 2)),
            sum(1 for j in block if j in (3, 4)),
        )
        p += dp
        q += dq
    return p, q


def tightness_functional(
    spec: SeriesSpec,
    triples,
    replicates: int,
    envelopes: tuple[MomentEnvelope, MomentEnvelope] | None = None,
    threads=1,
) -> MomentReport:
    """Fourth moment of weighted partial-sum increments vs its assembled bound, per triple.

    Requires ``epsilon_mode='truncated'`` and ``weight_mode='deterministic'``
    (the partial sums whose tightness the bound controls), at ``n = spec.truncation_n``.
    The report, of kind ``"tightness"`` and meta ``{"n": n}``, has the entries of the moment reports:
    the estimate of ``E|X_n(t2)-X_n(t)|^2 |X_n(t)-X_n(t1)|^2`` against the bound
    ``d^2 * sum_tau S_{n,tau} * Dhat_tau(t1, t, t2)``, with the envelope exponents
    of :func:`partition_envelope_exponents`.

    One series run of ``replicates`` paths serves every triple: triple ``k``
    reads its increments over (t1, t] and (t, t2] from columns ``2k`` and
    ``2k + 1`` of a single :func:`sample_weighted_increments` call, which
    sums each interval on its own, so each entry is the one a run of that
    triple alone gives.  The envelopes, every triple and ``replicates >= 2``
    are checked before anything is drawn, and no triples draw nothing; a
    non-finite estimate raises :class:`ConfigurationError` naming its triple.
    """
    if spec.epsilon_mode != "truncated" or spec.weight_mode != "deterministic":
        raise ConfigurationError(
            "tightness functional is defined for epsilon_mode='truncated', "
            f"weight_mode='deterministic'; got {spec.epsilon_mode!r}, {spec.weight_mode!r}"
        )
    env1, env2 = envelopes if envelopes is not None else default_envelopes(spec.y_gen)
    terms = [(partition_sum(tau, spec.alpha, spec.epsilon, spec.truncation_n), partition_envelope_exponents(tau))
             for tau in _PARTITIONS]

    def bound(t1, t2, spans) -> float:
        g1, g2 = env1.bound(t1, t2), env2.bound(t1, t2, spans) ** 0.5  # |F2(t2)-F2(t1)|^beta2
        total = 0.0  # term by term in partition order: sum() of floats compensates on Python >= 3.12
        for s_val, (p, q) in terms:
            total += s_val * g1**p * g2**q
        return spec.dimension**2 * total

    def span_products(intervals, spans):  # one series run for every triple
        return _span_products(sample_weighted_increments(spec, intervals, replicates, threads), spans)

    return _moment_report("tightness", triples, replicates, 2, span_products, bound, {"n": spec.truncation_n})
