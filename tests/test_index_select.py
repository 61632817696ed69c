import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynhmc.index_select import (WeightTree, accept_log_ratio, logaddexp, logsumexp,
                                 multinomial_pick)
from dynhmc.leapfrog import LeapfrogParams
from dynhmc.orbit import OrbitCache
from dynhmc.kernels import KernelConfig, nuts_transition_iterative, nuts_transition_recursive
from dynhmc.targets import MassMatrix, PhasePoint, Target, builtin_target
from dynhmc.verify import chi2_gof
from doubling import record_interval

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

    def test_one_leaf_row(self):
        assert WeightTree([1.7]).qhat_row_log(0).tolist() == [0.0]

    @pytest.mark.parametrize("k", range(5))
    def test_batch_rows_equal_single_tree_rows(self, k):
        # leaves of weight zero included: whole subtrees, and origins, too
        rng = np.random.default_rng(20 + k)
        logw = 3.0 * rng.standard_normal((4, 3, 1 << k))
        logw[rng.random(logw.shape) < 0.3] = -math.inf
        logw[0, 0] = -math.inf
        batch = WeightTree(logw)
        for a in range(1 << k):
            rows = batch.qhat_row_log(a)
            assert rows.shape == logw.shape
            for i in np.ndindex(logw.shape[:-1]):
                assert np.array_equal(rows[i], WeightTree(logw[i]).qhat_row_log(a))
            assert not np.isnan(rows).any()

    @pytest.mark.parametrize("k", range(5))
    def test_one_origin_per_tree_equals_single_tree_rows(self, k):
        rng = np.random.default_rng(40 + k)
        logw = 3.0 * rng.standard_normal((4, 3, 1 << k))
        logw[rng.random(logw.shape) < 0.3] = -math.inf
        origins = rng.integers(0, 1 << k, (4, 3))
        rows = WeightTree(logw).qhat_row_log(origins)
        assert rows.shape == logw.shape
        for i in np.ndindex(origins.shape):
            assert np.array_equal(rows[i], WeightTree(logw[i]).qhat_row_log(int(origins[i])))

    @pytest.mark.parametrize("k", range(6))
    def test_rows_equal_the_per_level_loop_bit_for_bit(self, k):
        # qhat_row_log reads every level at once; the per-level loop makes the
        # same float operations in the same order, so the bits must agree
        rng = np.random.default_rng(60 + k)
        logw = 3.0 * rng.standard_normal((8, 1 << k)) * rng.choice([0.1, 1.0, 30.0], (8, 1))
        logw[rng.random(logw.shape) < 0.3] = -math.inf
        logw[0] = -0.0
        for leaves in logw:
            tree = WeightTree(leaves)
            for a in range(1 << k):
                got, want = tree.qhat_row_log(a), _row_by_level(leaves, a)
                assert _bits(got).tolist() == _bits(want).tolist()


def _row_by_level(leaves: np.ndarray, a: int) -> np.ndarray:
    """``log qhat(a, .)`` on one tree, level by level: at level ``n`` the
    sibling subtree of ``a``'s receives ``(log Pi + log R_n) + leaves - log w_sib``."""
    levels = [leaves]
    while len(levels[-1]) > 1:
        levels.append(np.logaddexp(levels[-1][0::2], levels[-1][1::2]))
    levels, k = levels[::-1], len(levels) - 1
    row, log_pi = np.full(leaves.shape, -math.inf), 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(k):
            shift = k - 1 - n
            own = a >> shift
            log_sib, log_own = levels[n + 1][own ^ 1], levels[n + 1][own]
            log_r = -math.inf  # a sibling of weight zero is never taken
            if log_sib > -math.inf:
                log_r = min(0.0, log_sib - log_own)
                sib = slice((own ^ 1) << shift, ((own ^ 1) + 1) << shift)
                row[sib] = (log_pi + log_r) + leaves[sib] - log_sib
            log_pi = log_pi + np.log(-np.expm1(log_r))
    row[a] = log_pi
    return row


def rejection_product(tree: WeightTree, a: int, t: int) -> float:
    """``Pi(a, t)``, the paper's probability that the first ``t`` top-down
    swap proposals at leaf ``a`` are all rejected, as a plain product.  It is
    the reference that the ``Pi`` accumulated inside ``qhat_row_log`` is
    checked against."""
    if not 0 <= t <= tree.k:
        raise ValueError(f"t = {t} outside [0, {tree.k}]")
    out = 1.0
    for i in range(t):
        own = a >> (tree.k - 1 - i)
        lvl = tree.level(i + 1)
        # 1 - exp(r) via expm1: exact for r near 0 and for r = -inf
        out *= -math.expm1(accept_log_ratio(float(lvl[own ^ 1]), float(lvl[own])))
    return out


def qhat_row(tree: WeightTree, a: int) -> np.ndarray:
    return np.exp(tree.qhat_row_log(a))


class TestRejectionProduct:
    def test_t_zero_is_one(self):
        tree = WeightTree(np.random.default_rng(1).normal(size=8))
        for a in range(8):
            assert rejection_product(tree, a, 0) == 1.0

    def test_uniform_weights_give_zero(self):
        tree = WeightTree(np.zeros(8))
        for a in range(8):
            for t in range(1, 4):
                assert rejection_product(tree, a, t) == 0.0

    def test_single_factor(self):
        # K=1, weights (old, new) = (1, 0.5): Pi = 1 - 0.5
        tree = WeightTree(np.log(np.array([1.0, 0.5])))
        assert rejection_product(tree, 0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_prefix_invariance_exact(self):
        rng = np.random.default_rng(2)
        tree = WeightTree(rng.normal(size=32))
        for k in range(1, 6):
            for a in range(32):
                for c in range(32):
                    if (a >> (5 - k)) == (c >> (5 - k)):
                        assert rejection_product(tree, a, k) == rejection_product(tree, c, k)

    @given(log_weight_arrays)
    @settings(max_examples=40, deadline=None)
    def test_is_the_rows_stay_probability(self, leaves):
        # qhat(a, a) = Pi(a, K): the product qhat_row_log accumulates
        tree = WeightTree(leaves)
        for a in range(leaves.size):
            stay = qhat_row(tree, a)[a]
            assert stay == pytest.approx(rejection_product(tree, a, tree.k), rel=1e-12, abs=1e-300)


class TestQhatRow:
    def test_uniform_k2_from_corner(self):
        tree = WeightTree(np.zeros(4))
        row = qhat_row(tree, 0b00)
        assert row[0b10] == pytest.approx(0.5, abs=1e-15)
        assert row[0b11] == pytest.approx(0.5, abs=1e-15)
        assert row[0b01] == 0.0
        assert row[0b00] == 0.0

    def test_k1_metropolis(self):
        tree = WeightTree(np.log(np.array([1.0, 0.5])))
        row = qhat_row(tree, 0)
        assert row[1] == pytest.approx(0.5, abs=1e-15)
        assert row[0] == pytest.approx(0.5, abs=1e-15)

    @given(log_weight_arrays)
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, leaves):
        tree = WeightTree(leaves)
        for a in range(leaves.size):
            assert abs(float(np.sum(qhat_row(tree, a))) - 1.0) <= 1e-12

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
        row = qhat_row(tree, 0)
        assert 0.25 * row[2] == pytest.approx(1.0 / 8.0, abs=1e-15)

    @given(log_weight_arrays)
    @settings(max_examples=40, deadline=None)
    def test_support_iff_rejection_product_positive(self, leaves):
        tree = WeightTree(leaves)
        k = tree.k
        for a in range(leaves.size):
            row = qhat_row(tree, a)
            for b in range(leaves.size):
                if a == b:
                    continue
                x = a ^ b
                n = k - x.bit_length()
                assert (row[b] > 0) == (rejection_product(tree, a, n) > 0)

    def test_diverged_leaf_gets_zero_mass(self):
        leaves = np.array([0.0, -math.inf, 0.3, 0.1])
        tree = WeightTree(leaves)
        for a in (0, 2, 3):
            assert qhat_row(tree, a)[1] == 0.0

    def test_all_diverged_new_half_stays(self):
        # 0/0 swap ratio means stay: all mass remains on the origin's side
        leaves = np.array([0.0, 0.5, -math.inf, -math.inf])
        tree = WeightTree(leaves)
        row = qhat_row(tree, 0)
        assert row[2] == 0.0 and row[3] == 0.0
        assert abs(row.sum() - 1.0) <= 1e-12


def q_h(j: int, lo: int, hi: int, cache: OrbitCache) -> float:
    """Probability that progressive selection on ``[lo, hi]`` lands on orbit
    index ``j``: the origin's row of the interval's weight tree, at ``j``
    (leaf ``j - lo``)."""
    tree = WeightTree(cache.logw_range(lo, hi))
    return float(math.exp(tree.qhat_row_log(-lo)[j - lo]))


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
        assert q_h(1, 0, 1, cache) == pytest.approx(1.0)
        assert q_h(0, 0, 1, cache) == pytest.approx(0.0)

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
        assert q_h(-1, -1, 0, cache) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert q_h(0, -1, 0, cache) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_probabilities_sum_to_one(self):
        cache = self._cache()
        for lo, hi in [(-1, 0), (-2, 1), (-4, 3), (0, 7)]:
            total = sum(q_h(j, lo, hi, cache) for j in range(lo, hi + 1))
            assert abs(total - 1.0) <= 1e-12


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestLogaddexp:
    """``logaddexp`` equals ``np.logaddexp`` bit for bit, sign included."""

    def test_seeded_pairs(self):
        rng = np.random.default_rng(0)
        n = 50_000  # 10^5 pairs over the two scales
        for scale in (1e3, 1e308):
            x = rng.uniform(-1.0, 1.0, n) * scale
            y = rng.uniform(-1.0, 1.0, n) * scale
            # near-equal pairs, where log1p(exp(-|x - y|)) matters most
            y[: n // 2] = x[: n // 2] + rng.normal(0.0, 1.0, n // 2)
            with np.errstate(over="ignore"):  # x - y overflows at 1e308
                want = np.logaddexp(x, y)
            got = [logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())]
            assert np.array_equal(_bits(got), _bits(want))

    def test_special_values(self):
        inf, nan = math.inf, math.nan
        values = (-inf, inf, 0.0, -0.0, -2.5, 3.0, 1e308, -1e308, nan, -nan)
        pairs = [(a, b) for a in values for b in values]
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.logaddexp([a for a, _ in pairs], [b for _, b in pairs])
        got = [logaddexp(a, b) for a, b in pairs]
        assert np.array_equal(_bits(got), _bits(want))
        assert logaddexp(-inf, -inf) == -inf and logaddexp(-inf, 3.0) == 3.0
        assert logaddexp(2.0, 2.0) == 2.0 + math.log(2.0)


class TestWeightZero:
    """The log-sum and the pick on weights that are all zero."""

    def test_logsumexp_of_all_minus_inf_is_minus_inf(self):
        assert logsumexp([-math.inf, -math.inf]) == -math.inf
        assert logsumexp(np.full(4, -math.inf)) == -math.inf

    def test_multinomial_pick_of_total_minus_inf_is_the_first_index(self):
        for u in (0.0, 0.5, 0.999):
            assert multinomial_pick(np.full(4, -math.inf), u, -math.inf) == 0


class TestMultinomialPick:
    """The pick equals numpy's inverse CDF, ``cumsum`` then ``searchsorted``
    on the right, capped at the last index, on a list or an array."""

    @staticmethod
    def _numpy_pick(w: np.ndarray, u: float, total: float) -> int:
        return min(int(np.exp(w - total).cumsum().searchsorted(u, "right")), w.size - 1)

    def test_equals_the_numpy_inverse_cdf(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(1, 40))
            w = rng.normal(0.0, 3.0, n)
            w[rng.random(n) < 0.2] = -math.inf
            total = logsumexp(w)
            if total == -math.inf:
                continue
            cum = np.exp(w - total).cumsum()
            # uniforms inside a step, on a cumulative boundary, and at the ends
            us = [rng.random(), float(cum[rng.integers(n)]), 0.0, 1.0 - 2.0**-53]
            for u in us:
                want = self._numpy_pick(w, u, total)
                assert multinomial_pick(w, u, total) == want
                assert multinomial_pick(w.tolist(), u, total) == want

    def test_u_on_a_boundary_takes_the_next_index(self):
        w = np.log([0.25, 0.25, 0.5])
        assert multinomial_pick(w.tolist(), 0.25, 0.0) == 1
        assert multinomial_pick(w.tolist(), 0.5, 0.0) == 2
        assert multinomial_pick(w.tolist(), 1.0, 0.0) == 2  # capped at the last index


def _line_orbit(log_w: dict[int, float]) -> Target:
    """A 1-D target whose orbit from ``(0, 1)`` at ``h = 1`` is the flat flow
    ``q = j``, weighted ``-H(j) = log_w[j] - 1/2``; a weight of ``-inf`` is a
    divergent state.  A straight line never turns, so every doubling that
    meets no divergence is accepted."""
    return Target(
        dim=1,
        potential=lambda q: -log_w[round(float(q[0]))],
        gradient=lambda q: np.zeros(1),
    )


SAMPLERS = (nuts_transition_iterative, nuts_transition_recursive)
X_LINE = PhasePoint(np.zeros(1), np.ones(1))


def _line_draws(log_w, k_m, n, rng):
    """``(i_f, j_f)`` of ``n`` transitions of each production sampler on
    :func:`_line_orbit`."""
    target = _line_orbit(log_w)
    cfg = KernelConfig("nuts_iterative", h=1.0, mass=MassMatrix.identity(1), k_m=k_m)
    draws = []
    for transition in SAMPLERS:
        for _ in range(n):
            _, info = transition(target, cfg, X_LINE, rng)
            draws.append((info.i_f, info.j_f))
    return draws


class TestProgressiveSample:
    # the samplers' index selection on orbits of chosen weights, against the
    # closed-form rows of the weight tree of the selected interval

    def test_always_moves_when_new_dominates(self):
        # each new half outweighs the origin: the first swap always happens
        draws = _line_draws({-1: math.log(3.0), 0: 0.0, 1: math.log(3.0)}, 1, 200,
                            np.random.default_rng(0))
        assert all(j != 0 for _, j in draws)

    def test_never_moves_to_diverged_half(self):
        log_w = {j: 0.1 * j for j in range(-3, 2)} | {2: -math.inf, 3: -math.inf}
        draws = _line_draws(log_w, 2, 200, np.random.default_rng(1))
        assert all(j < 2 and i_f[1] < 2 for i_f, j in draws)
        assert any(i_f == (0, 1) for i_f, _ in draws)  # stopped by the divergence

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_qhat_row(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        span = (1 << k) - 1
        log_w = dict(zip(range(-span, span + 1), rng.normal(size=2 * span + 1)))
        # every record of length k is drawn with probability 2^-k, then the
        # index from the qhat row of its interval's weight tree
        probs = {}
        for v in range(1 << k):
            lo, hi = record_interval(v, k)
            tree = WeightTree(np.array([log_w[j] for j in range(lo, hi + 1)]))
            for leaf, pr in enumerate(qhat_row(tree, -lo)):
                probs[((lo, hi), lo + leaf)] = pr / (1 << k)
        draws = _line_draws(log_w, k, 2500, rng)
        counts: dict[tuple, int] = {}
        for d in draws:
            counts[d] = counts.get(d, 0) + 1
        assert chi2_gof(counts, probs, len(draws)) >= 1e-3

    def test_uniform_k2_empirical(self):
        draws = _line_draws(dict.fromkeys(range(-3, 4), 0.0), 2, 5000,
                            np.random.default_rng(9))
        # from origin leaf 0 of [0, 3]: opposite half {2, 3} gets 1/2 + 1/2
        counts: dict[int, int] = {}
        for i_f, j in draws:
            if i_f == (0, 3):
                counts[j] = counts.get(j, 0) + 1
        n = sum(counts.values())
        assert n > 0 and counts.get(0, 0) == 0 and counts.get(1, 0) == 0
        assert chi2_gof(counts, {0: 0.0, 1: 0.0, 2: 0.5, 3: 0.5}, n) >= 1e-3


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
