import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynhmc.binwords import BinWord, IndexInterval
from dynhmc.index_select import WeightTree, progressive_sample, q_h
from dynhmc.leapfrog import LeapfrogParams
from dynhmc.orbit import OrbitCache
from dynhmc.targets import MassMatrix, PhasePoint, builtin_target
from dynhmc.verify import chi2_gof

log_weight_arrays = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.lists(
        st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
        min_size=1 << k,
        max_size=1 << k,
    ).map(lambda ws: np.asarray(ws))
)


class TestWeightTree:
    def test_internal_sums(self):
        rng = np.random.default_rng(0)
        leaves = rng.normal(size=16)
        tree = WeightTree(leaves)
        for n in range(5):
            lvl = tree.level(n)
            for u in range(1 << n):
                block = leaves[u << (4 - n) : (u + 1) << (4 - n)]
                direct = math.log(np.sum(np.exp(block)))
                assert lvl[u] == pytest.approx(direct, abs=1e-12)

    def test_leaf_level_is_leaves(self):
        leaves = np.array([0.0, 1.0, -1.0, 2.0])
        tree = WeightTree(leaves)
        assert np.array_equal(tree.level(2), leaves)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            WeightTree(np.zeros(3))


class TestRejectionProduct:
    def test_t_zero_is_one(self):
        tree = WeightTree(np.random.default_rng(1).normal(size=8))
        for a in range(8):
            assert tree.rejection_product(a, 0) == 1.0

    def test_uniform_weights_give_zero(self):
        tree = WeightTree(np.zeros(8))
        for a in range(8):
            for t in range(1, 4):
                assert tree.rejection_product(a, t) == 0.0

    def test_single_factor(self):
        # K=1, weights (old, new) = (1, 0.5): Pi = 1 - 0.5
        tree = WeightTree(np.log(np.array([1.0, 0.5])))
        assert tree.rejection_product(0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_prefix_invariance_exact(self):
        rng = np.random.default_rng(2)
        tree = WeightTree(rng.normal(size=32))
        for k in range(1, 6):
            for a in range(32):
                for c in range(32):
                    if (a >> (5 - k)) == (c >> (5 - k)):
                        assert tree.rejection_product(a, k) == tree.rejection_product(c, k)


class TestQhatRow:
    def test_uniform_k2_from_corner(self):
        tree = WeightTree(np.zeros(4))
        row = tree.qhat_row(0b00).probs
        assert row[0b10] == pytest.approx(0.5, abs=1e-15)
        assert row[0b11] == pytest.approx(0.5, abs=1e-15)
        assert row[0b01] == 0.0
        assert row[0b00] == 0.0

    def test_k1_metropolis(self):
        tree = WeightTree(np.log(np.array([1.0, 0.5])))
        row = tree.qhat_row(0).probs
        assert row[1] == pytest.approx(0.5, abs=1e-15)
        assert row[0] == pytest.approx(0.5, abs=1e-15)

    @given(log_weight_arrays)
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, leaves):
        tree = WeightTree(leaves)
        for a in range(leaves.size):
            assert abs(float(np.sum(tree.qhat_row(a).probs)) - 1.0) <= 1e-12

    @given(log_weight_arrays)
    @settings(max_examples=60, deadline=None)
    def test_detailed_balance(self, leaves):
        tree = WeightTree(leaves)
        n = leaves.size
        rows = [tree.qhat_row_log(a) for a in range(n)]
        for a in range(n):
            for b in range(n):
                lhs = leaves[a] + rows[a][b]
                rhs = leaves[b] + rows[b][a]
                if math.isinf(lhs) and math.isinf(rhs):
                    continue
                assert abs(lhs - rhs) <= 1e-10

    def test_db_uniform_example_normalized(self):
        # uniform K=2 orbit: normalized flow a->b is (1/4) * (1/2) = 1/8
        tree = WeightTree(np.zeros(4))
        row = tree.qhat_row(0).probs
        assert 0.25 * row[2] == pytest.approx(1.0 / 8.0, abs=1e-15)

    @given(log_weight_arrays)
    @settings(max_examples=40, deadline=None)
    def test_support_iff_rejection_product_positive(self, leaves):
        tree = WeightTree(leaves)
        k = tree.k
        for a in range(leaves.size):
            row = tree.qhat_row(a).probs
            for b in range(leaves.size):
                if a == b:
                    continue
                x = a ^ b
                n = k - x.bit_length()
                assert (row[b] > 0) == (tree.rejection_product(a, n) > 0)

    def test_diverged_leaf_gets_zero_mass(self):
        leaves = np.array([0.0, -math.inf, 0.3, 0.1])
        tree = WeightTree(leaves)
        for a in (0, 2, 3):
            assert tree.qhat_row(a).probs[1] == 0.0

    def test_all_diverged_new_half_stays(self):
        # 0/0 swap ratio means stay: all mass remains on the origin's side
        leaves = np.array([0.0, 0.5, -math.inf, -math.inf])
        tree = WeightTree(leaves)
        row = tree.qhat_row(0).probs
        assert row[2] == 0.0 and row[3] == 0.0
        assert abs(row.sum() - 1.0) <= 1e-12


class TestQh:
    def _cache(self, h=1.2, q=1.5, p=0.3):
        target = builtin_target("standard_gaussian", 1)
        params = LeapfrogParams(h, MassMatrix.identity(1))
        cache = OrbitCache(target, params, PhasePoint(np.array([q]), np.array([p])))
        cache.extend_to(-8, 8)
        return cache

    def test_forced_move_on_equal_weights(self):
        from dynhmc.targets import Target

        flat = Target(dim=1, potential=lambda q: 0.0, gradient=lambda q: np.zeros(1))
        params = LeapfrogParams(0.5, MassMatrix.identity(1))
        cache = OrbitCache(flat, params, PhasePoint(np.zeros(1), np.ones(1)))
        cache.extend_to(0, 1)
        iv = IndexInterval(0, 1)
        assert q_h(1, iv, cache) == pytest.approx(1.0)
        assert q_h(0, iv, cache) == pytest.approx(0.0)

    def test_metropolis_ratio_left_interval(self):
        from dynhmc.targets import Target

        # flat flow with unit momentum visits q = j; U jumps by 2 left of 0,
        # so logw(-1) - logw(0) = -2 and the single swap factor is exp(-2)
        t = Target(
            dim=1,
            potential=lambda q: 2.0 if q[0] < -0.5 else 0.0,
            gradient=lambda q: np.zeros(1),
        )
        params = LeapfrogParams(1.0, MassMatrix.identity(1))
        cache = OrbitCache(t, params, PhasePoint(np.zeros(1), np.ones(1)))
        cache.extend_to(-1, 0)
        iv = IndexInterval(-1, 0)
        assert q_h(-1, iv, cache) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert q_h(0, iv, cache) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_probabilities_sum_to_one(self):
        cache = self._cache()
        for lo, hi in [(-1, 0), (-2, 1), (-4, 3), (0, 7)]:
            iv = IndexInterval(lo, hi)
            total = sum(q_h(j, iv, cache) for j in iv)
            assert abs(total - 1.0) <= 1e-12

    def test_outside_interval_rejected(self):
        cache = self._cache()
        with pytest.raises(ValueError):
            q_h(5, IndexInterval(-1, 0), cache)


class TestProgressiveSample:
    def test_always_moves_when_new_dominates(self):
        tree = WeightTree(np.log(np.array([1.0, 3.0])))
        rng = np.random.default_rng(0)
        # origin at leaf 0 corresponds to record v = 1 (doubled right)
        for _ in range(200):
            assert progressive_sample(tree, BinWord(1, 1), rng) == 1

    def test_never_moves_to_diverged_half(self):
        tree = WeightTree(np.array([0.0, 0.1, -math.inf, -math.inf]))
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert progressive_sample(tree, BinWord(2, 0b11), rng) in (0, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_qhat_row(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        leaves = rng.normal(size=1 << k)
        v = int(rng.integers(0, 1 << k))
        tree = WeightTree(leaves)
        a = ((1 << k) - 1) - v
        probs = tree.qhat_row(a).probs
        n = 10000
        counts: dict[int, int] = {}
        for _ in range(n):
            j = progressive_sample(tree, BinWord(k, v), rng)
            counts[j] = counts.get(j, 0) + 1
        pv = chi2_gof(counts, {i: float(p) for i, p in enumerate(probs)}, n)
        assert pv >= 1e-3

    def test_uniform_k2_empirical(self):
        tree = WeightTree(np.zeros(4))
        rng = np.random.default_rng(9)
        n = 20000
        counts: dict[int, int] = {}
        for _ in range(n):
            j = progressive_sample(tree, BinWord(2, 0b11), rng)
            counts[j] = counts.get(j, 0) + 1
        # from origin leaf 0: opposite half {2, 3} gets 1/2 + 1/2
        probs = {0: 0.0, 1: 0.0, 2: 0.5, 3: 0.5}
        assert counts.get(0, 0) == 0 and counts.get(1, 0) == 0
        assert chi2_gof(counts, probs, n) >= 1e-3


class TestAccessibilityProperty:
    @given(log_weight_arrays)
    @settings(max_examples=40, deadline=None)
    def test_one_or_two_steps_reach_everything(self, leaves):
        tree = WeightTree(leaves)
        m1 = tree.qhat_matrix()
        m2 = m1 @ m1
        assert np.min(np.maximum(m1, m2)) > 0.0

    def test_distinct_weights_aperiodic_powers(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            tree = WeightTree(rng.normal(size=1 << k) * 2)
            m1 = tree.qhat_matrix()
            m = m1 @ m1
            for _ in range(3):
                assert np.min(m) > 0.0
                m = m @ m1
