"""Weighted-jump series on cadlag step paths, with verification tooling.

The package simulates truncated series ``sum_i w_i eps_i Y_i`` of i.i.d.
step paths with heavy-tailed weights, and checks everything checkable
about them: moment conditions on the path increments, the analytic
constants controlling the truncated multipliers, tightness functionals,
and the stable-law / regular-variation properties of the simulated limit.
"""

import types as _types

__version__ = "0.1.0"

from .paths import DomainError, PathValidationError, StepPath, sup_norm
from .random_inputs import (
    CdfGrid,
    ConfigurationError,
    EpsilonSpec,
    JumpHeightDist,
    YGeneratorSpec,
    poisson_counts,
    unit_jump,
    user_paths,
    weighted_jumps,
)
from .rng import RngStream
from .series import (
    PartialSumResult,
    SeriesSpec,
    coupled_partial_sums,
    partial_sum,
    sample_marginals,
)

# every public name imported above
__all__ = ["__version__", *(name for name, value in list(globals().items())
                            if not name.startswith("_") and not isinstance(value, _types.ModuleType))]
