"""d-dimensional cadlag step functions on [0, 1], and their text formats.

A :class:`StepPath` is piecewise constant, right-continuous with left
limits: it holds an initial value on ``[0, t_1)`` and one post-jump value
per jump time.  Calling a path evaluates it, and :func:`sup_norm` gives its
uniform norm; both read the jump grid exactly, and nothing is resampled.

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
    "sup_norm",
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
            if np.any(times[1:] <= times[:-1]):
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

    def __call__(self, t) -> np.ndarray:
        """Value at time(s) ``t`` in [0, 1], the post-jump value at a jump time (right-continuity).
        Scalar ``t`` gives shape ``(d,)``; an array gives ``(len(t), d)``."""
        ts = np.asarray(t, dtype=np.float64)
        if not np.all((ts >= 0.0) & (ts <= 1.0)):  # nan fails both
            raise DomainError(f"evaluation time outside [0, 1]: {t!r}")
        # searchsorted(right) counts jumps with time <= t; index 0 is the initial segment
        return self.segment_values()[np.searchsorted(self.jump_times, ts, side="right")]


def _compressed(d: int, initial: np.ndarray, times: np.ndarray, values: np.ndarray) -> StepPath:
    """Drop jumps whose post value equals the previous segment value exactly; when none is dropped,
    the path holds ``times`` and ``values`` themselves, not copies."""
    if times.size == 0:
        return StepPath(d, initial)
    keep = np.empty(times.size, dtype=bool)
    keep[0] = np.any(values[0] != initial)
    np.any(values[1:] != values[:-1], axis=1, out=keep[1:])
    if keep.all():
        return StepPath(d, initial, times, values)
    return StepPath(d, initial, times[keep], values[keep])


def sup_norm(path: StepPath) -> float:
    """Coordinatewise uniform norm, exact for step paths, read from the values' extremes with no copy."""
    init, v = np.abs(path.initial_value).max(), path.post_jump_values
    return float(max(init, abs(v.max()), abs(v.min())) if v.size else init)


# ---------------------------------------------------------------------------
# serialization
#
# CSV: header "t,value_1,...,value_d", one row per segment start, first row
# t=0.  Cells are "%.17g" of finite floats (the same text as format(x,
# ".17g")), so the round trip is bit-exact and no cell needs CSV quoting.
# The text is made in blocks of _BLOCK_ROWS rows, each one template filled
# from that block's tolist(), so a writer can stream it and no whole-path
# copy or string is made; the bytes do not depend on the block size.
# JSON uses native float encoding (shortest round-trip repr); the CLI writes
# a path's arrays in the same spelling and the same row blocks
# (cli._json_text).
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 4096  # rows a serializer formats at once


def _csv_blocks(path: StepPath):
    """The text of :func:`path_to_csv` in pieces: the header and t=0 row, then blocks of ``_BLOCK_ROWS`` rows."""
    row = ",".join(["%.17g"] * (path.dimension + 1)) + "\n"
    yield ",".join(["t"] + [f"value_{i + 1}" for i in range(path.dimension)]) + "\n"
    yield row % (0.0, *path.initial_value.tolist())
    times, values = path.jump_times, path.post_jump_values
    for a in range(0, times.size, _BLOCK_ROWS):
        block = np.column_stack((times[a:a + _BLOCK_ROWS], values[a:a + _BLOCK_ROWS]))
        yield row * len(block) % tuple(block.ravel().tolist())


def path_to_csv(path: StepPath) -> str:
    return "".join(_csv_blocks(path))


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
