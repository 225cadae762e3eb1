"""Memory stays bounded on a long stream: 2**17 updates through every tree.

Each store keeps one node per level, so its live counters at step i are at
most the levels it has reached: log2 W' + 1 for a window, the levels of the
tree over [1, i] for the growing trees.  The polynomial sum also archives
closed nodes, at most ceil(hi_k / 2**(k-1)) + 1 on level k.  The noise-off
outputs are checked against the exact oracle at every power-of-two step.
"""

import numpy as np
from dyadic_reference import levels_reached
from test_mechanisms import poly_archive_bound

from decaystream.baselines import ExactOracle
from decaystream.mechanisms import (
    DecaySpec,
    ExponentialSum,
    FixedWindowView,
    PolynomialSum,
    RunningSum,
    WindowSum,
)
from decaystream.noise import RandomSource

T = 1 << 17
C, BETA = 2.0, 0.5


def test_long_stream_keeps_one_node_per_level_and_a_bounded_poly_archive():
    xs = np.random.default_rng(17).random(T).tolist()
    rng = RandomSource(0)
    estimators = {
        "window": (WindowSum(1000, 1.0, rng, noisy=False), DecaySpec.window(1000)),
        "fixed view": (FixedWindowView(1000, 1.0, rng, noisy=False), DecaySpec.window(1000)),
        "exponential": (ExponentialSum(0.99, 1.0, rng, noisy=False), DecaySpec.exponential(0.99)),
        "running": (RunningSum(1.0, rng, noisy=False), DecaySpec.running()),
    }
    oracles = {name: ExactOracle(decay) for name, (_, decay) in estimators.items()}
    poly = PolynomialSum(C, BETA, 1.0, rng, noisy=False)
    bound = poly_archive_bound(C, BETA, T.bit_length())
    pushes = [(name, est.push, oracles[name].push) for name, (est, _) in estimators.items()]
    for i, x in enumerate(xs, 1):
        outs = [(name, push(x), exact(x)) for name, push, exact in pushes]
        out = poly.push(x)
        if i & (i - 1):
            continue
        for name, got, want in outs:
            assert abs(got - want) <= 1e-9 * max(1.0, want), (name, i)
        for name, (est, _) in estimators.items():
            tree = est._tree
            assert len(est.counters()) <= levels_reached(tree), (name, i)
        assert levels_reached(estimators["window"][0]._tree) == 11  # W' = 1024
        assert levels_reached(estimators["running"][0]._tree) == i.bit_length()
        assert len(poly.counters()) == i.bit_length()
        sizes = [len(values) for values in poly._archive]
        assert all(n <= b for n, b in zip(sizes, bound)), i
        assert sum(sizes) <= sum(bound[: len(sizes)]), i
        F = float(np.dot(xs[:i], (i - np.arange(i, dtype=np.float64)) ** -C))
        assert (1 - BETA) * F - 1e-9 <= out <= F + 1e-9, i
