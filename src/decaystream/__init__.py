"""Differentially private decayed-sum estimation on streams.

Private estimators for window, exponential-decay, polynomial-decay and
running sums under continual observation, with the exact oracle and
randomized-response baselines, explicit-constant utility calculators, a
lower-bound construction verifier and a reproducible benchmark CLI.

The noise source is seeded and splittable but NOT cryptographically secure,
and sampling works in IEEE double precision; see :mod:`decaystream.noise`.
"""

from .baselines import (
    ExactOracle,
    RandomizedResponse,
    RunningDiffBaseline,
    decayed_sum,
    rr_flip_parameter,
)
from .bounds import (
    IndependenceWitness,
    LowerBoundFamily,
    NoiseProfile,
    allwindow_query_profile,
    check_closeness,
    check_independence,
    framework_threshold,
    hoeffding_delta,
    laplace_tail,
    reference_delta,
    utility_delta,
    worst_noise_profile,
)
from .dyadic import DyadicTree
from .extensions import (
    DecayedHistogram,
    DistinctCount,
    KSensitiveStream,
    PredicateStream,
)
from .mechanisms import (
    AllWindowSum,
    DecaySpec,
    ExponentialSum,
    FixedWindowView,
    PolynomialSum,
    RunningSum,
    WindowSum,
    exp_decay_sensitivity,
    make_mechanism,
)
from .noise import (
    LaplaceScale,
    RandomSource,
    laplace_from_uniform,
    laplace_sample,
    level_epsilons,
    zeta,
)

__version__ = "0.1.0"

__all__ = [
    "AllWindowSum",
    "DecayedHistogram",
    "DecaySpec",
    "DistinctCount",
    "DyadicTree",
    "ExactOracle",
    "ExponentialSum",
    "FixedWindowView",
    "IndependenceWitness",
    "KSensitiveStream",
    "LaplaceScale",
    "LowerBoundFamily",
    "NoiseProfile",
    "PolynomialSum",
    "PredicateStream",
    "RandomizedResponse",
    "RandomSource",
    "RunningDiffBaseline",
    "RunningSum",
    "WindowSum",
    "allwindow_query_profile",
    "check_closeness",
    "check_independence",
    "decayed_sum",
    "exp_decay_sensitivity",
    "framework_threshold",
    "hoeffding_delta",
    "laplace_from_uniform",
    "laplace_sample",
    "laplace_tail",
    "level_epsilons",
    "make_mechanism",
    "reference_delta",
    "rr_flip_parameter",
    "utility_delta",
    "worst_noise_profile",
    "zeta",
]
