"""Exact algebra for d-dimensional cadlag step functions on [0, 1].

A :class:`StepPath` is piecewise constant, right-continuous with left
limits: it holds an initial value on ``[0, t_1)`` and one post-jump value
per jump time.  Evaluation, linear combination, increments and the uniform
norm are all computed exactly on the jump grid; nothing is resampled.

The norm used throughout is the coordinatewise uniform norm

    ``sup { |x_i(t)| : t in [0, 1], i = 1..d }``

which for a step path is attained on a segment, so :func:`sup_norm` is
exact.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainError",
    "PathValidationError",
    "StepPath",
    "evaluate",
    "linear_combine",
    "sup_norm",
    "increment",
    "zero_path",
    "path_to_csv",
    "path_from_csv",
    "path_to_json",
]


class DomainError(ValueError):
    """Raised when a time argument leaves [0, 1] or an interval is reversed."""


class PathValidationError(ValueError):
    """Raised when StepPath fields violate the representation invariants."""


@dataclass(frozen=True)
class StepPath:
    """Piecewise-constant cadlag path on [0, 1] with values in R^d.

    Parameters
    ----------
    dimension :
        Number of coordinates d >= 1.
    initial_value :
        Value on ``[0, t_1)`` (and on all of [0, 1] if there are no jumps),
        shape ``(d,)``.
    jump_times :
        Strictly increasing times in ``(0, 1]``.  A jump "at 0" must be
        folded into ``initial_value``.
    post_jump_values :
        Value on ``[t_k, t_{k+1})``, shape ``(m, d)``.
    """

    dimension: int
    initial_value: np.ndarray
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    post_jump_values: np.ndarray = field(default_factory=lambda: np.empty((0, 1)))

    def __post_init__(self) -> None:
        d = self.dimension
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise PathValidationError(f"dimension must be a positive integer, got {d!r}")
        init = np.asarray(self.initial_value, dtype=np.float64).reshape(-1)
        if init.shape != (d,):
            raise PathValidationError(f"initial_value must have shape ({d},), got {init.shape}")
        times = np.asarray(self.jump_times, dtype=np.float64).reshape(-1)
        values = np.asarray(self.post_jump_values, dtype=np.float64)
        if values.size == 0:
            values = values.reshape(0, d)
        if values.ndim != 2 or values.shape != (times.size, d):
            raise PathValidationError(
                f"post_jump_values must have shape ({times.size}, {d}), got {values.shape}"
            )
        if times.size:
            if not np.all(np.isfinite(times)):
                raise PathValidationError("jump_times must be finite")
            if times[0] <= 0.0 or times[-1] > 1.0:
                raise PathValidationError("jump_times must lie in (0, 1]")
            if np.any(np.diff(times) <= 0.0):
                raise PathValidationError("jump_times must be strictly increasing")
        if not (np.all(np.isfinite(init)) and np.all(np.isfinite(values))):
            raise PathValidationError("path values must be finite")
        for name, arr in (("initial_value", init), ("jump_times", times), ("post_jump_values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_jumps(self) -> int:
        return self.jump_times.size

    def segment_values(self) -> np.ndarray:
        """All segment values including the initial one, shape (m + 1, d)."""
        return np.concatenate([self.initial_value[None, :], self.post_jump_values], axis=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepPath):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and np.array_equal(self.initial_value, other.initial_value)
            and np.array_equal(self.jump_times, other.jump_times)
            and np.array_equal(self.post_jump_values, other.post_jump_values)
        )

    def __call__(self, t):
        return evaluate(self, t)


def zero_path(dimension: int = 1) -> StepPath:
    """Constant-zero path of the given dimension."""
    return StepPath(dimension, np.zeros(dimension))


def evaluate(path: StepPath, t) -> np.ndarray:
    """Value of the path at time(s) ``t`` in [0, 1].

    Right-continuous: at a jump time the post-jump value is returned.
    Scalar ``t`` gives shape ``(d,)``; an array gives ``(len(t), d)``.
    """
    ts = np.asarray(t, dtype=np.float64)
    if np.any(ts < 0.0) or np.any(ts > 1.0):
        raise DomainError(f"evaluation time outside [0, 1]: {t!r}")
    # searchsorted(right) counts jumps with time <= t; index 0 is the initial segment
    idx = np.searchsorted(path.jump_times, ts, side="right")
    segs = path.segment_values()
    out = segs[idx]
    return out


def linear_combine(coeffs, paths, dimension: int | None = None) -> StepPath:
    """Exact linear combination ``sum_k coeffs[k] * paths[k]``.

    The result's jump grid is the merged union of the input grids
    (coincident times merged); on every segment the value is the
    coefficient-weighted sum of the input segment values, accumulated in
    input order, so evaluating the result reproduces the direct sum of
    evaluations bit for bit.  Jumps that do not change the value are
    dropped, which makes cancellation produce a canonical zero path.
    """
    coeffs = [float(c) for c in coeffs]
    paths = list(paths)
    if len(coeffs) != len(paths):
        raise ValueError(f"got {len(coeffs)} coefficients for {len(paths)} paths")
    if not paths:
        return zero_path(1 if dimension is None else dimension)
    d = paths[0].dimension
    for p in paths:
        if p.dimension != d:
            raise PathValidationError(f"dimension mismatch: {p.dimension} != {d}")
    if dimension is not None and dimension != d:
        raise PathValidationError(f"dimension mismatch: requested {dimension}, paths have {d}")

    times = np.unique(np.concatenate([p.jump_times for p in paths]))
    acc = np.zeros((times.size + 1, d))
    for c, p in zip(coeffs, paths):
        idx = np.searchsorted(p.jump_times, times, side="right")
        segs = p.segment_values()
        block = np.concatenate([segs[:1], segs[idx]], axis=0)
        acc += c * block
    return _compressed(d, acc[0], times, acc[1:])


def _compressed(d: int, initial: np.ndarray, times: np.ndarray, values: np.ndarray) -> StepPath:
    """Drop jumps whose post value equals the previous segment value exactly."""
    if times.size == 0:
        return StepPath(d, initial)
    prev = np.concatenate([initial[None, :], values[:-1]], axis=0)
    keep = np.any(values != prev, axis=1)
    return StepPath(d, initial, times[keep], values[keep])


def sup_norm(path: StepPath) -> float:
    """Coordinatewise uniform norm, exact for step paths."""
    return float(np.max(np.abs(path.segment_values())))


def increment(path: StepPath, t1: float, t2: float) -> np.ndarray:
    """``path(t2) - path(t1)`` for ``0 <= t1 <= t2 <= 1``."""
    if t1 > t2:
        raise DomainError(f"increment requires t1 <= t2, got ({t1}, {t2})")
    return evaluate(path, t2) - evaluate(path, t1)


# ---------------------------------------------------------------------------
# serialization
#
# CSV: header "t,value_1,...,value_d", one row per segment start, first row
# t=0.  Cells are "%.17g" of finite floats (the same text as format(x,
# ".17g")), so the round trip is bit-exact and no cell needs CSV quoting;
# the whole body is one template filled from one tolist().
# JSON uses native float encoding (shortest round-trip repr).
# ---------------------------------------------------------------------------


def path_to_csv(path: StepPath) -> str:
    header = ",".join(["t"] + [f"value_{i + 1}" for i in range(path.dimension)])
    table = np.column_stack([np.concatenate([[0.0], path.jump_times]), path.segment_values()])
    row = ",".join(["%.17g"] * table.shape[1])
    return header + "\n" + "\n".join([row] * len(table)) % tuple(table.ravel().tolist()) + "\n"


def path_from_csv(text: str) -> StepPath:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise PathValidationError("step-path CSV must start with a 't,value_1,...' header")
    d = len(rows[0]) - 1
    body = [r for r in rows[1:] if r]
    if not body:
        raise PathValidationError("step-path CSV has no segment rows")
    data = np.array([[float(x) for x in r] for r in body])
    if data.shape[1] != d + 1:
        raise PathValidationError("step-path CSV rows do not match the header width")
    if data[0, 0] != 0.0:
        raise PathValidationError("first step-path CSV row must be the t=0 segment")
    return StepPath(d, data[0, 1:], data[1:, 0], data[1:, 1:])


def path_to_json(path: StepPath) -> str:
    payload = {
        "dimension": path.dimension,
        "initial_value": path.initial_value.tolist(),
        "jump_times": path.jump_times.tolist(),
        "post_jump_values": path.post_jump_values.tolist(),
    }
    return json.dumps(payload)
