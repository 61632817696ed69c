import math
from fractions import Fraction

import numpy as np
import pytest

from dynhmc.binwords import BinWord, interval, low_trunc, t_minus
from dynhmc.leapfrog import LeapfrogParams, leapfrog_iter
from dynhmc.orbit import (
    CacheCoverageError,
    OrbitCache,
    is_uturn,
    no_uturns,
    orbit_select_pmf,
    stopping_time,
)
from dynhmc.targets import MassMatrix, PhasePoint, Target, builtin_target

STD1 = builtin_target("standard_gaussian", 1)
STD2 = builtin_target("standard_gaussian", 2)
I1 = MassMatrix.identity(1)
I2 = MassMatrix.identity(2)


def flat_target(dim):
    return Target(dim=dim, potential=lambda q: 0.0, gradient=lambda q: np.zeros(dim), name="flat")


def brute_force_pairs(k_len, t_min):
    """Independent enumeration of the stage-K U-turn pair set."""
    lo = -t_min
    pairs = []
    for k in range(1, k_len):
        size = 2**k
        for block in range(2 ** (k_len - k)):
            pairs.append((lo + block * size, lo + (block + 1) * size - 1))
    return pairs


def cache_uturn(cache: OrbitCache, i_lo: int, i_hi: int) -> bool:
    """:func:`is_uturn` on two states of an identity-mass orbit."""
    left, right = cache.state(i_lo), cache.state(i_hi)
    return is_uturn(left.q, left.p, right.q, right.p)


class TestUturnPair:
    # is_uturn(q_lo, v_lo, q_hi, v_hi) on velocities v = M^{-1} p; under the
    # identity mass v = p
    def test_moving_apart(self):
        e1 = np.array([1.0, 0.0])
        assert is_uturn(np.zeros(2), e1, e1, e1) is False

    def test_right_momentum_opposes(self):
        e1 = np.array([1.0, 0.0])
        assert is_uturn(np.zeros(2), e1, e1, -e1) is True

    def test_zero_displacement_is_not_a_uturn(self):
        q = np.array([0.3, -0.2])
        # strict inequalities
        assert is_uturn(q, np.array([5.0, 0.0]), q.copy(), np.array([-5.0, 0.0])) is False

    def test_mass_matrix_whitening(self):
        # with M^{-1} weighting a pair can turn even if raw products disagree
        mass = MassMatrix.diagonal(np.array([100.0, 0.01]))
        dq = np.array([1.0, -0.1])
        p = np.array([10.0, 20.0])
        raw = p @ dq
        white = mass.inv_mul(p) @ dq
        assert raw > 0 > white  # the construction is meaningful
        vel = mass.inv_mul(p)
        assert is_uturn(np.zeros(2), vel, dq, vel) is True
        assert is_uturn(np.zeros(2), p, dq, p) is False


class TestOrbitCache:
    def test_matches_leapfrog_iter(self):
        params = LeapfrogParams(0.3, I2)
        rng = np.random.default_rng(0)
        x0 = PhasePoint(rng.standard_normal(2), rng.standard_normal(2))
        cache = OrbitCache(STD2, params, x0)
        cache.extend_to(-9, 9)
        for j in (-9, -4, -1, 0, 1, 5, 9):
            ref = leapfrog_iter(STD2, params, x0, j)
            got = cache.state(j)
            assert np.linalg.norm(got.q - ref.q) <= 1e-10
            assert np.linalg.norm(got.p - ref.p) <= 1e-10

    def test_logw_is_neg_hamiltonian(self):
        from dynhmc.targets import hamiltonian

        params = LeapfrogParams(0.5, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([1.1]), np.array([-0.4])))
        cache.extend_to(-3, 3)
        for j in range(-3, 4):
            assert cache.logw(j) == pytest.approx(
                -hamiltonian(STD1, I1, cache.state(j)), abs=1e-12
            )

    def test_gradient_caching_cost(self):
        calls = 0
        base = builtin_target("standard_gaussian", 1)

        def counted(q):
            nonlocal calls
            calls += 1
            return q

        t = Target(dim=1, potential=base.potential, gradient=counted)
        cache = OrbitCache(t, LeapfrogParams(0.2, I1), PhasePoint(np.ones(1), np.ones(1)))
        cache.extend_right(5)
        cache.extend_left(3)
        # anchor + one per step
        assert calls == 1 + 5 + 3
        assert cache.n_grad == calls

    def test_coverage_error(self):
        cache = OrbitCache(STD1, LeapfrogParams(0.2, I1), PhasePoint(np.ones(1), np.ones(1)))
        with pytest.raises(CacheCoverageError):
            cache.state(1)

    def test_divergence_marks_tail(self):
        dw = builtin_target("double_well", 1)
        cache = OrbitCache(dw, LeapfrogParams(5.0, I1), PhasePoint(np.array([10.0]), np.zeros(1)))
        cache.extend_right(30)
        flags = [cache.diverged(j) for j in range(31)]
        assert any(flags)
        first = flags.index(True)
        assert all(flags[first:])  # once diverged, stays flagged
        assert all(cache.logw(j) == -math.inf for j in range(first, 31))


class TestNoUturns:
    def test_k1_always_true(self):
        params = LeapfrogParams(2.5, I1)
        for v in (0, 1):
            cache = OrbitCache(STD1, params, PhasePoint(np.array([2.0]), np.array([-3.0])))
            cache.extend_to(-1, 1)
            assert no_uturns(BinWord(1, v), cache) is True

    def test_flat_potential_never_turns(self):
        t = flat_target(2)
        params = LeapfrogParams(0.8, I2)
        cache = OrbitCache(t, params, PhasePoint(np.zeros(2), np.array([1.0, 0.3])))
        cache.extend_to(-7, 7)
        for k_len in (1, 2, 3):
            for v in range(2**k_len):
                assert no_uturns(BinWord(k_len, v), cache) is True

    @pytest.mark.parametrize("h,anchor", [(0.1, (1.0, 0.0)), (1.0, (2.0, 0.0)), (1.4, (0.5, 1.0))])
    def test_matches_brute_force_enumeration(self, h, anchor):
        params = LeapfrogParams(h, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([anchor[0]]), np.array([anchor[1]])))
        cache.extend_to(-15, 15)
        for k_len in (1, 2, 3, 4):
            for v in range(2**k_len):
                w = BinWord(k_len, v)
                expected = True
                for i_lo, i_hi in brute_force_pairs(k_len, t_minus(w)):
                    if cache_uturn(cache, i_lo, i_hi):
                        expected = False
                assert no_uturns(w, cache) is expected

    def test_divergence_counts_as_uturn(self):
        # anchor is finite but the first step overflows: stage 1 must stop
        dw = builtin_target("double_well", 1)
        params = LeapfrogParams(5.0, I1)
        cache = OrbitCache(dw, params, PhasePoint(np.array([1e60]), np.zeros(1)))
        cache.extend_to(-1, 1)
        assert not cache.diverged(0)
        assert cache.diverged(1)
        assert no_uturns(BinWord(1, 1), cache) is False


class TestStoppingTime:
    def test_flat_is_infinite(self):
        t = flat_target(1)
        cache = OrbitCache(t, LeapfrogParams(0.5, I1), PhasePoint(np.zeros(1), np.ones(1)))
        cache.extend_to(-15, 15)
        for v in range(16):
            assert stopping_time(BinWord(4, v), cache) == math.inf

    def test_never_one(self):
        params = LeapfrogParams(2.0, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([2.0]), np.array([0.0])))
        cache.extend_to(-1, 1)
        for v in (0, 1):
            assert stopping_time(BinWord(1, v), cache) > 1

    def test_exhaustive_prefix_oracle(self):
        params = LeapfrogParams(1.0, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([2.0]), np.array([0.0])))
        cache.extend_to(-3, 3)
        v = BinWord(2, 0b11)
        expected = math.inf
        for k in (1, 2):
            w = low_trunc(v, k)
            turned = any(
                cache_uturn(cache, i_lo, i_hi)
                for i_lo, i_hi in brute_force_pairs(k, t_minus(w))
            )
            if turned:
                expected = k
                break
        assert stopping_time(v, cache) == expected

    def test_consistency_under_extension(self):
        # if S(v) = K then S depends only on the K-bit prefix
        params = LeapfrogParams(0.9, I1)
        rng = np.random.default_rng(17)
        for _ in range(10):
            x0 = PhasePoint(rng.standard_normal(1) * 2, rng.standard_normal(1))
            cache = OrbitCache(STD1, params, x0)
            cache.extend_to(-15, 15)
            for v in range(16):
                s = stopping_time(BinWord(4, v), cache)
                if s <= 4 and not math.isinf(s):
                    k = int(s)
                    prefix = v & ((1 << k) - 1)
                    for w in range(16):
                        if w & ((1 << k) - 1) == prefix:
                            assert stopping_time(BinWord(4, w), cache) == s

    def test_monotone_uturn_sets(self):
        # a prefix U-turn forces a U-turn for every extension
        params = LeapfrogParams(1.1, I1)
        rng = np.random.default_rng(23)
        for _ in range(10):
            x0 = PhasePoint(rng.standard_normal(1) * 2, rng.standard_normal(1))
            cache = OrbitCache(STD1, params, x0)
            cache.extend_to(-15, 15)
            for v in range(16):
                for k in range(1, 4):
                    if not no_uturns(low_trunc(BinWord(4, v), k), cache):
                        assert not no_uturns(BinWord(4, v), cache)
                        break


class TestOrbitSelectPmf:
    def test_km1(self):
        params = LeapfrogParams(0.3, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([0.5]), np.array([0.2])))
        pmf = orbit_select_pmf(cache, 1)
        assert {(iv.lo, iv.hi): fr for iv, fr in pmf} == {
            (-1, 0): Fraction(1, 2),
            (0, 1): Fraction(1, 2),
        }

    def test_flat_km3_uniform_over_records(self):
        t = flat_target(1)
        params = LeapfrogParams(0.5, I1)
        cache = OrbitCache(t, params, PhasePoint(np.zeros(1), np.ones(1)))
        pmf = orbit_select_pmf(cache, 3)
        assert len(pmf) == 8
        assert all(fr == Fraction(1, 8) for _, fr in pmf)
        assert all(len(iv) == 8 for iv, _ in pmf)

    def test_total_mass_exact(self):
        params = LeapfrogParams(1.2, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([1.5]), np.array([0.3])))
        pmf = orbit_select_pmf(cache, 3)
        assert sum(fr for _, fr in pmf) == 1

    @staticmethod
    def _cases():
        rng = np.random.default_rng(6)
        for k_m in (4, 6):
            for _ in range(5):
                x0 = PhasePoint(rng.standard_normal(1) * 2, rng.standard_normal(1))
                yield STD1, LeapfrogParams(1.0, I1), x0, k_m
        # a double-well orbit that diverges within the enumerated range
        dw = builtin_target("double_well", 1)
        x0 = PhasePoint(np.array([5.0]), np.array([0.0]))
        for k_m in (4, 6):
            yield dw, LeapfrogParams(0.25, I1), x0, k_m

    def test_matches_direct_record_aggregation(self):
        # independent oracle: aggregate P(V = b) 2^-K_m over stopped prefixes
        diverged = False
        for target, params, x0, k_m in self._cases():
            cache = OrbitCache(target, params, x0)
            cache.extend_to(-(1 << k_m) + 1, (1 << k_m) - 1)
            diverged = diverged or cache.any_diverged(cache.lo, cache.hi)
            masses = {}
            for b in range(2**k_m):
                s = stopping_time(BinWord(k_m, b), cache)
                k_f = k_m if math.isinf(s) else int(s) - 1
                if k_f == 0:
                    key = (0, 0)
                else:
                    iv = interval(BinWord(k_f, b & ((1 << k_f) - 1)))
                    key = (iv.lo, iv.hi)
                masses[key] = masses.get(key, Fraction(0)) + Fraction(1, 2**k_m)
            got = {(iv.lo, iv.hi): fr for iv, fr in orbit_select_pmf(cache, k_m)}
            assert got == masses
        assert diverged


class TestSymmetryProperty:
    @pytest.mark.parametrize("k_m", [1, 2, 3])
    def test_shift_covariance_exact(self, k_m):
        params = LeapfrogParams(1.0, I1)
        rng = np.random.default_rng(100 + k_m)
        for _ in range(5):
            x0 = PhasePoint(rng.standard_normal(1) * 1.5, rng.standard_normal(1))
            cache = OrbitCache(STD1, params, x0)
            pmf = {(iv.lo, iv.hi): fr for iv, fr in orbit_select_pmf(cache, k_m)}
            for (lo, hi), fr in pmf.items():
                for j in range(-hi, -lo + 1):
                    x_s = leapfrog_iter(STD1, params, x0, -j)
                    cache_s = OrbitCache(STD1, params, x_s)
                    pmf_s = {
                        (iv.lo, iv.hi): f for iv, f in orbit_select_pmf(cache_s, k_m)
                    }
                    assert pmf_s.get((lo + j, hi + j)) == fr
