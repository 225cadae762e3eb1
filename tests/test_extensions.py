import itertools

import pytest

from decaystream.baselines import ExactOracle
from decaystream.extensions import (
    DecayedHistogram,
    DistinctCount,
    KSensitiveStream,
    PredicateStream,
)
from decaystream.mechanisms import DecaySpec, WindowSum, make_mechanism
from decaystream.noise import RandomSource


def first_occurrence():
    """A fresh stateful predicate: 1.0 at each element's first appearance,
    else 0.0 (DistinctCount's predicate)."""
    seen = set()

    def bit(u):
        new = u not in seen
        seen.add(u)
        return float(new)

    return bit


def first_occurrence_bits(stream) -> list[float]:
    return list(map(first_occurrence(), stream))


def test_constant_predicate_saturates_window():
    mech = WindowSum(8, 1.0, RandomSource(0), noisy=False)
    stream = PredicateStream(lambda u: 1.0, mech)
    outs = [stream.push(("user", i)) for i in range(30)]
    assert all(o == 8.0 for o in outs[8:])


def test_zero_predicate_stays_zero():
    mech = WindowSum(4, 1.0, RandomSource(0), noisy=False)
    stream = PredicateStream(lambda u: 0.0, mech)
    assert all(stream.push(i) == 0.0 for i in range(20))


def test_item_match_predicate_counts_one_key():
    # count views of one title within a window, against a direct oracle
    gen = RandomSource(13)
    titles = ["m%d" % int(gen.uniform() * 4) for _ in range(100)]
    pred = lambda u: 1.0 if u == "m2" else 0.0
    stream = PredicateStream(pred, WindowSum(16, 1.0, RandomSource(1), noisy=False))
    oracle = ExactOracle(DecaySpec.window(16))
    for title in titles:
        assert stream.push(title) == oracle.push(pred(title))


def test_predicate_contract_violation():
    stream = PredicateStream(lambda u: 1.5, WindowSum(4, 1.0, RandomSource(0)))
    with pytest.raises(ValueError):
        stream.push("x")


def test_k_sensitive_wrapper_splits_budget():
    wrapped = KSensitiveStream(lambda u: 1.0, 3, DecaySpec.running(), 1.2, RandomSource(0))
    assert wrapped.inner.epsilon == pytest.approx(0.4)
    assert wrapped.k * wrapped.inner.epsilon == pytest.approx(wrapped.epsilon)
    with pytest.raises(ValueError):
        KSensitiveStream(lambda u: 1.0, 0, DecaySpec.running(), 1.0, RandomSource(0))


def test_distinct_count_trace():
    dc = DistinctCount(1.0, RandomSource(0), noisy=False)
    assert [dc.push(u) for u in "abac"] == [1.0, 2.0, 2.0, 3.0]
    assert dc.inner.step == 4


def test_distinct_count_budget_split():
    dc = DistinctCount(1.0, RandomSource(0))
    assert dc.inner.epsilon == pytest.approx(0.5)


def test_first_occurrence_streams_change_in_at_most_two_positions():
    # exhaustive over a 3-element universe, lengths up to 6, all single
    # substitutions
    universe = [0, 1, 2]
    for T in range(1, 7):
        for seq in itertools.product(universe, repeat=T):
            base = first_occurrence_bits(seq)
            for pos in range(T):
                for u in universe:
                    if u == seq[pos]:
                        continue
                    alt = list(seq)
                    alt[pos] = u
                    other = first_occurrence_bits(alt)
                    diffs = sum(1 for a, b in zip(base, other) if a != b)
                    assert diffs <= 2, (seq, pos, u)


def test_histogram_keys_match_independent_oracles():
    gen = RandomSource(3)
    hist = DecayedHistogram(DecaySpec.window(16), 1.0, RandomSource(3), noisy=False)
    oracles = {}
    counts = {}
    total = 0
    for _ in range(500):
        key = "k%d" % int(gen.uniform() * 100)
        x = gen.uniform()
        k, est = hist.push(key, x)
        assert k == key
        oracle = oracles.setdefault(key, ExactOracle(DecaySpec.window(16)))
        assert est == pytest.approx(oracle.push(x), abs=1e-9)
        counts[key] = counts.get(key, 0) + 1
        total += 1
    # partitioning: every update reached exactly one child
    assert sum(counts.values()) == total
    assert sum(m.step for m in hist._mechs.values()) == total


def test_histogram_single_key_equals_plain_mechanism():
    hist = DecayedHistogram(DecaySpec.window(8), 1.0, RandomSource(0), noisy=False)
    plain = make_mechanism(DecaySpec.window(8), 1.0, RandomSource(1), noisy=False)
    gen = RandomSource(5)
    for _ in range(50):
        x = gen.uniform()
        _, est = hist.push("only", x)
        assert est == plain.push(x)


def test_histogram_key_seeding_is_order_independent():
    a = DecayedHistogram(DecaySpec.window(4), 1.0, RandomSource(7))
    b = DecayedHistogram(DecaySpec.window(4), 1.0, RandomSource(7))
    a.push("x", 1.0)
    a.push("y", 1.0)
    b.push("y", 1.0)
    b.push("x", 1.0)
    # second push of each key sees the same per-key noise stream either way
    assert a.push("x", 0.0) == b.push("x", 0.0)
    assert a.push("y", 0.0) == b.push("y", 0.0)
