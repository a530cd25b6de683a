"""Deterministic splittable random streams.

Every stochastic routine in this package draws from an :class:`RngStream`,
a value object naming a stream by ``(seed, stream_id)`` plus an optional
route of integers for derived substreams.  Identical names produce
bit-identical draws on every platform (for a fixed numpy version), and
distinct names produce statistically independent streams, because the whole
name is hashed by ``numpy.random.SeedSequence`` into the state of an SFC64
generator.  Every substream is derived by hashing its name, never by
advancing or jumping a parent generator, so no counter-based generator is
needed; SFC64 draws uniforms about 2.5x and exponentials 1.4-1.7x as fast
as Philox (numpy 2.4, x86-64).

Each fixed-size chunk of replicates draws from one substream per chunk (see
:mod:`lepage.parallel`), so results do not depend on thread scheduling.

:data:`STREAM_LAYOUT` versions how names become draws: the generator, the
chunk plan and how each law reads its stream.  Layout 1 was Philox with
chunks of up to 4096 replicates; layout 2 is SFC64 with chunks of up to 1024.
Layout 3 keeps both and changes two draws:

* a Poisson count is one ``random()`` double read through a guide-table
  inverse cdf (``random_inputs._PoissonTable``), not ``Generator.poisson``;
* a Rademacher sign is one bit of the generator's raw 64-bit words, least
  significant first, not the sign of ``random() - 0.5``.

Exponential gaps stay on ``standard_exponential``.  As ``-log U`` they would
go through numpy's SIMD ``log``, whose last bit depends on the CPU, and no
result file may depend on the CPU (the canary in ``tests/test_stream_layout.py``
runs at alpha 1 to keep ``pow`` out of its digests for the same reason).
Any change to what a name draws bumps the layout, and every ``manifest.json``
records it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["STREAM_LAYOUT", "RngStream"]

STREAM_LAYOUT = 3


@dataclass(frozen=True)
class RngStream:
    """Name of a reproducible random stream.

    Parameters
    ----------
    seed :
        64-bit unsigned experiment seed.
    stream_id :
        Replicate index; distinct ids give independent streams.
    route :
        Extra integers appended by :meth:`substream` to derive
        independent child streams (one per ingredient of a simulation).
    """

    seed: int
    stream_id: int = 0
    route: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0 or v >= 2**64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def substream(self, *route: int) -> "RngStream":
        """Derive an independent child stream by extending the route."""
        return RngStream(self.seed, self.stream_id, self.route + tuple(int(r) for r in route))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the origin of this stream."""
        entropy = (self.seed, self.stream_id) + self.route
        return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))
