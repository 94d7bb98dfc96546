"""Randomized filters: determinism, degenerate cases, and seeded
Monte Carlo agreement with the advertised inclusion probabilities.

Statistical assertions use 5-sigma bands under fixed seeds, so they are
deterministic: a passing seed passes forever.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gusbox import LineageSchema, Row, SampleRelation, SampleSizeError, SchemaError
from gusbox.samplers import (
    bernoulli_sample,
    derive_seed,
    generator,
    keyed_unit,
    lineage_bernoulli,
    mix64,
    wor_sample,
)

from conftest import lineage_relation


def flat_relation(n):
    return lineage_relation(["r"], [((i,), 1.0) for i in range(n)])


def array_relation(m):
    """``flat_relation(m)`` built from arrays, fast enough for a million rows."""
    return SampleRelation(LineageSchema.of(["r"]), (), (), (),
                          np.arange(m, dtype=np.int64).reshape(-1, 1), np.ones(m))


def grid_relation():
    """Four rows over {l, o}: every pair shares l, shares o, or neither."""
    return lineage_relation(
        ["l", "o"],
        [((1, 1), 1.0), ((1, 2), 1.0), ((2, 1), 1.0), ((2, 2), 1.0)],
    )


def binomial_band(p, trials, nsigma=5.0):
    sigma = math.sqrt(p * (1.0 - p) / trials)
    return p - nsigma * sigma, p + nsigma * sigma


class TestKeyedHash:
    def test_mix64_is_stable(self):
        assert mix64(0) == mix64(0)
        assert mix64(1) != mix64(2)

    def test_keyed_unit_range_and_determinism(self):
        values = [keyed_unit(7, k) for k in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [keyed_unit(7, k) for k in range(1000)]

    def test_keyed_unit_roughly_uniform(self):
        values = [keyed_unit(3, k) for k in range(20000)]
        mean = sum(values) / len(values)
        # mean of U(0,1) is 0.5 with sd 1/sqrt(12n)
        assert abs(mean - 0.5) < 5.0 / math.sqrt(12 * len(values))


class TestBernoulli:
    def test_p_one_keeps_everything(self):
        rel = flat_relation(50)
        out = bernoulli_sample(rel, 1.0, generator(0, 0))
        assert out.rows == rel.rows

    def test_p_zero_drops_everything(self):
        out = bernoulli_sample(flat_relation(50), 0.0, generator(0, 0))
        assert len(out) == 0

    def test_deterministic_given_seed(self):
        rel = flat_relation(100)
        a = bernoulli_sample(rel, 0.3, generator(5, 1))
        b = bernoulli_sample(rel, 0.3, generator(5, 1))
        assert a.rows == b.rows

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kept_count_within_binomial_band(self, seed):
        rel = flat_relation(10_000)
        out = bernoulli_sample(rel, 0.5, generator(seed, 0))
        assert 4750 <= len(out) <= 5250

    def test_per_row_inclusion_frequency(self):
        rel = flat_relation(3)
        trials = 10_000
        counts = [0, 0, 0]
        for t in range(trials):
            out = bernoulli_sample(rel, 0.5, generator(derive_seed(11, t), 0))
            for row in out.rows:
                counts[row.lineage[0]] += 1
        lo, hi = binomial_band(0.5, trials)
        for c in counts:
            assert lo <= c / trials <= hi

    def test_pair_retention_is_p_squared(self):
        rel = flat_relation(3)
        trials = 20_000
        p = 0.4
        pair_count = 0
        for t in range(trials):
            out = bernoulli_sample(rel, p, generator(derive_seed(13, t), 0))
            kept = {row.lineage[0] for row in out.rows}
            if {0, 1} <= kept:
                pair_count += 1
        lo, hi = binomial_band(p * p, trials)
        assert lo <= pair_count / trials <= hi

    def test_probability_range_checked(self):
        with pytest.raises(SchemaError):
            bernoulli_sample(flat_relation(3), 1.5, generator(0, 0))


class TestWor:
    def test_full_size_returns_everything(self):
        rel = flat_relation(10)
        out = wor_sample(rel, 10, generator(0, 0))
        assert out.rows == rel.rows

    def test_zero_returns_nothing(self):
        assert len(wor_sample(flat_relation(10), 0, generator(0, 0))) == 0

    def test_oversize_rejected(self):
        with pytest.raises(SampleSizeError):
            wor_sample(flat_relation(3), 4, generator(0, 0))

    def test_preserves_input_order(self):
        rel = flat_relation(20)
        out = wor_sample(rel, 5, generator(9, 0))
        ids = [r.lineage[0] for r in out.rows]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("m,n", [(30000, 5000), (20, 18), (5, 5), (1, 1), (7, 3),
                                     (100, 0), (1_000_000, 10)])
    def test_draws_match_one_integers_call_per_step(self, m, n):
        # the swap positions come from one array-bound rng.integers call; it
        # must keep the rows, and leave the stream where, one scalar
        # rng.integers(i, m) per Fisher-Yates step over a full list would
        rel = array_relation(m)
        for seed in range(5):
            rng, scalar_rng = generator(seed, 0), generator(seed, 0)
            idx = list(range(m))
            for i in range(n):
                j = int(scalar_rng.integers(i, m))
                idx[i], idx[j] = idx[j], idx[i]
            out = wor_sample(rel, n, rng)
            assert out.lineage[:, 0].tolist() == sorted(idx[:n])
            assert rng.random() == scalar_rng.random()

    def test_state_follows_n_not_m(self):
        # a partial shuffle stores only the positions it displaced: drawing
        # 10 of a million rows must not allocate per input row
        rel = array_relation(1_000_000)
        # the untraced draw also absorbs numpy's one-time first-call allocations
        expected = wor_sample(rel, 10, generator(3, 0)).lineage
        tracemalloc.start()
        try:
            out = wor_sample(rel, 10, generator(3, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.lineage.tolist() == expected.tolist()
        assert peak < 1 << 20, f"wor_sample traced {peak} bytes"

    def test_pair_frequencies_match_uniform_subsets(self):
        # 2 of 4: each unordered pair should appear with probability 1/6
        rel = flat_relation(4)
        trials = 60_000
        counts = {pair: 0 for pair in itertools.combinations(range(4), 2)}
        for t in range(trials):
            out = wor_sample(rel, 2, generator(derive_seed(17, t), 0))
            kept = tuple(sorted(row.lineage[0] for row in out.rows))
            counts[kept] += 1
        lo, hi = binomial_band(1.0 / 6.0, trials)
        for pair, count in counts.items():
            assert lo <= count / trials <= hi, (pair, count / trials)


class TestLineageBernoulli:
    def test_all_ones_keeps_everything(self):
        rel = grid_relation()
        out = lineage_bernoulli(rel, {"l": (1.0, 1), "o": (1.0, 2)})
        assert out.rows == rel.rows

    def test_unknown_relation_rejected(self):
        with pytest.raises(SchemaError):
            lineage_bernoulli(grid_relation(), {"x": (0.5, 1)})

    def test_shared_base_tuple_gets_one_decision(self):
        # two rows sharing the o-side id 42 are kept or dropped together
        rel = lineage_relation(["l", "o"], [((1, 42), 1.0), ((2, 42), 1.0)])
        for seed in range(200):
            out = lineage_bernoulli(rel, {"o": (0.3, seed)})
            assert len(out) in (0, 2)

    def test_covering_subset_of_schema_is_allowed(self):
        rel = grid_relation()
        out = lineage_bernoulli(rel, {"l": (1.0, 5)})
        assert out.rows == rel.rows

    def test_bidimensional_retention_matches_parameter_table(self):
        # composed coins: a = 0.06, pairs sharing l 0.018, sharing o 0.012,
        # sharing nothing 0.0036
        rel = grid_relation()
        trials = 10_000
        p_l, p_o = 0.2, 0.3
        singles = {row.lineage: 0 for row in rel.rows}
        pairs = {
            pair: 0 for pair in itertools.combinations(sorted(singles), 2)
        }
        for t in range(trials):
            out = lineage_bernoulli(
                rel,
                {"l": (p_l, derive_seed(t, 1)), "o": (p_o, derive_seed(t, 2))},
            )
            present = sorted(row.lineage for row in out.rows)
            for lin in present:
                singles[lin] += 1
            for pair in itertools.combinations(present, 2):
                pairs[pair] += 1
        lo, hi = binomial_band(0.06, trials)
        for lin, count in singles.items():
            assert lo <= count / trials <= hi, lin
        expected_by_overlap = {
            (True, False): p_l * p_o * p_o,    # share l only: 0.018
            (False, True): p_l * p_l * p_o,    # share o only: 0.012
            (False, False): (p_l * p_o) ** 2,  # share nothing: 0.0036
        }
        for (t, u), count in pairs.items():
            overlap = (t[0] == u[0], t[1] == u[1])
            expected = expected_by_overlap[overlap]
            lo, hi = binomial_band(expected, trials)
            assert lo <= count / trials <= hi, (t, u, count / trials, expected)
