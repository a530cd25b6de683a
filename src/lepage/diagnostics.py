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

``tightness_functional`` ties the two together: the Monte Carlo fourth
moment of weighted partial-sum increments is reported next to its
assembled bound ``d^2 * sum_tau S_{n,tau} * Dhat_tau``, for every triple
of a grid from one series run, reduced once per triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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
    "TightnessResult",
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

    def pair_bound(self, t1: float, t2: float) -> float:
        """``|F(t2) - F(t1)|^beta``."""
        return float(np.abs(self.f(t2) - self.f(t1)) ** self.beta)

    def triple_bound(self, t1: float, t2: float) -> float:
        """``|F(t2) - F(t1)|^(2 beta)``."""
        return float(np.abs(self.f(t2) - self.f(t1)) ** (2.0 * self.beta))

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


def _entry_mean_se(kind, times, stats):
    """:func:`replicate_mean_se` of ``stats[:, e]``, the values of entry ``times[e]`` per replicate.

    A non-finite estimate or SE raises :class:`ConfigurationError` naming its entry.
    """
    mean, se = replicate_mean_se(stats.T)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(se)))
    if bad.size:
        raise ConfigurationError(f"{kind} entry {times[bad[0]]}: estimate {mean[bad[0]]}, se {se[bad[0]]}; "
                                 "the squared increments overflow")
    return mean.tolist(), se.tolist()


def _moment_report(kind, tag, statistic, bound, y_spec, times, replicates, envelope, stream, threads):
    """The :class:`MomentReport` of ``statistic`` over ``times``, entries of 2 or 3 times.

    ``statistic(sq)`` maps ``sq[:, j, e]``, the squared norm of each path's increment
    over the j-th interval of entry e, to one value per path and entry; the envelope
    of entry ``(t1, ..., t2)`` is ``bound(envelope, t1, t2)``.  Each chunk of paths
    returns its values, and :func:`replicate_mean_se` reduces them in chunk order.
    A non-finite estimate raises :class:`ConfigurationError` naming its entry.
    """
    times = _checked_times(kind, times)
    if replicates < 100:
        raise ConfigurationError(f"need at least 100 replicates, got {replicates}")
    spans = len(_ENTRY_TIMES[kind][1]) - 1
    intervals = [(ts[j], ts[j + 1]) for j in range(spans) for ts in times]

    def one_chunk(sub, m):
        inc = interval_increments(y_spec.block_sampler(sub).take(m), intervals)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming the entry
            return statistic(np.sum(inc * inc, axis=2).reshape(m, spans, -1))

    stats = np.concatenate(map_replicates(one_chunk, stream.substream(tag), replicates, 1, threads))
    mean, se = _entry_mean_se(kind, times, stats)
    entries = []
    for ts, m, s in zip(times, mean, se):
        b = bound(envelope, ts[0], ts[-1])
        entries.append(MomentEntry(ts[0], ts[1] if spans == 2 else None, ts[-1], m, s, b, _verdict(m, s, b)))
    return MomentReport(kind, tuple(entries), replicates, {"y": y_spec.echo(), "envelope": envelope.echo()})


def estimate_c1(y_spec: YGeneratorSpec, pairs, replicates: int, envelope: MomentEnvelope, stream: RngStream,
                threads=1) -> MomentReport:
    """Monte Carlo second moments ``E|Y(t2) - Y(t1)|^2`` against the envelope."""
    return _moment_report("increment_second_moment", _TAG_C1, lambda sq: sq[:, 0], MomentEnvelope.pair_bound,
                          y_spec, pairs, replicates, envelope, stream, threads)


def estimate_c2(y_spec: YGeneratorSpec, triples, replicates: int, envelope: MomentEnvelope, stream: RngStream,
                threads=1) -> MomentReport:
    """Monte Carlo cross moments ``E|Y(t2)-Y(t)|^2 |Y(t)-Y(t1)|^2``."""
    return _moment_report("cross_moment", _TAG_C2, lambda sq: sq[:, 0] * sq[:, 1], MomentEnvelope.triple_bound,
                          y_spec, triples, replicates, envelope, stream, threads)


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
    i = np.arange(1, n_max + 1, dtype=np.float64)
    terms = i ** (-m / alpha) * eps.truncated_abs_moment(m, i, alpha)
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
    if n_max <= 0:
        return 0.0
    i = np.arange(1, n_max + 1, dtype=np.float64)
    return float(np.sum(i ** (-1.0 / alpha) * np.abs(eps.truncated_mean(i, alpha))))


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


def enumerate_partitions() -> list[Partition]:
    """The 15 set partitions of {1, 2, 3, 4}, in canonical sorted order."""
    return _set_partitions((1, 2, 3, 4))


def partition_label(tau: Partition) -> str:
    return "".join("{" + ",".join(str(x) for x in block) + "}" for block in tau)


def _block_moment_factors(block_sizes, alpha: float, eps: EpsilonSpec, n: int) -> list[np.ndarray]:
    """Per-block arrays g_B(i) = i^(-|B|/alpha) * moment factor of eps~_i.

    Singleton blocks contribute ``|E eps~_i|``; larger blocks contribute
    ``E|eps~_i|^b`` (absolute values per factor, as in the bounding step).
    """
    i = np.arange(1, n + 1, dtype=np.float64)
    out = []
    for b in block_sizes:
        if b == 1:
            mom = np.abs(eps.truncated_mean(i, alpha))
        else:
            mom = eps.truncated_abs_moment(float(b), i, alpha)
        out.append(i ** (-b / alpha) * mom)
    return out


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
    if tau not in enumerate_partitions():
        raise ConfigurationError(f"not a partition of {{1,2,3,4}}: {tau!r}")
    if n <= 0:
        return 0.0
    return float(_sum_distinct(_block_moment_factors([len(b) for b in tau], alpha, eps, n), [n])[0])


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
    s = np.array([_sum_distinct(_block_moment_factors([len(b) for b in tau], alpha, eps, max(depths, default=0)),
                                depths) for tau in taus])
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


@dataclass(frozen=True)
class TightnessResult:
    t1: float
    t_mid: float
    t2: float
    n_terms: int
    estimate: float
    se: float
    bound: float
    verdict: str

    def row(self) -> dict:
        return {
            "t1": self.t1,
            "t": self.t_mid,
            "t2": self.t2,
            "n": self.n_terms,
            "estimate": self.estimate,
            "se": self.se,
            "envelope": self.bound,
            "verdict": self.verdict,
        }


def tightness_functional(
    spec: SeriesSpec,
    n: int,
    triples,
    replicates: int,
    envelopes: tuple[MomentEnvelope, MomentEnvelope] | None = None,
    threads=1,
) -> list[TightnessResult]:
    """Fourth moment of weighted partial-sum increments vs its assembled bound, per triple.

    Requires ``epsilon_mode='truncated'`` and ``weight_mode='deterministic'``
    (the partial sums whose tightness the bound controls).  The companion
    bound is ``d^2 * sum_tau S_{n,tau} * Dhat_tau(t1, t, t2)`` with the
    envelope exponents of :func:`partition_envelope_exponents`.

    One series run of ``replicates`` paths serves every triple: triple ``k``
    reads its increments over (t1, t] and (t, t2] from columns ``2k`` and
    ``2k + 1`` of a single :func:`sample_weighted_increments` call, which
    sums each interval on its own, so each result is the one a run of that
    triple alone gives.  The triples share the time-order check and the
    :func:`replicate_mean_se` reduction of the moment reports.  Every triple,
    and ``replicates >= 2``, is checked before anything is drawn; a non-finite
    estimate raises :class:`ConfigurationError` naming its triple.
    """
    if spec.epsilon_mode != "truncated" or spec.weight_mode != "deterministic":
        raise ConfigurationError(
            "tightness functional is defined for epsilon_mode='truncated', "
            f"weight_mode='deterministic'; got {spec.epsilon_mode!r}, {spec.weight_mode!r}"
        )
    checked = _checked_times("tightness", triples)
    if replicates < 2:
        raise ConfigurationError(f"need at least 2 replicates, got {replicates}")
    if not checked:
        return []
    intervals = [iv for t1, t_mid, t2 in checked for iv in ((t1, t_mid), (t_mid, t2))]
    inc = sample_weighted_increments(replace(spec, truncation_n=int(n)), intervals, replicates, threads)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _entry_mean_se, naming the triple
        sq = np.sum(inc * inc, axis=2)
        stats = sq[:, 1::2] * sq[:, 0::2]
    mean, se = _entry_mean_se("tightness", checked, stats)

    env1, env2 = envelopes if envelopes is not None else default_envelopes(spec.y_gen)
    terms = [(partition_sum(tau, spec.alpha, spec.epsilon, int(n)), partition_envelope_exponents(tau))
             for tau in enumerate_partitions()]
    d = spec.dimension
    results = []
    for (t1, t_mid, t2), estimate, s in zip(checked, mean, se):
        g1 = env1.pair_bound(t1, t2)
        g2 = env2.triple_bound(t1, t2) ** 0.5  # |F2(t2)-F2(t1)|^beta2
        bound = 0.0
        for s_val, (p, q) in terms:
            bound += s_val * g1**p * g2**q
        bound *= d * d
        results.append(TightnessResult(t1, t_mid, t2, int(n), estimate, s, float(bound),
                                       _verdict(estimate, s, bound)))
    return results
