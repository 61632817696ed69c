import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dynhmc.leapfrog import LeapfrogParams, leapfrog_iter
from dynhmc.orbit import (
    CacheCoverageError,
    OrbitCache,
    is_uturn,
    no_uturns,
    orbit_select_pmf,
)
from dynhmc.targets import MassMatrix, PhasePoint, Target, builtin_target
from doubling import brute_force_pairs, record_interval, stopping_time

STD1 = builtin_target("standard_gaussian", 1)
STD2 = builtin_target("standard_gaussian", 2)
DW1 = builtin_target("double_well", 1)
I1 = MassMatrix.identity(1)
I2 = MassMatrix.identity(2)


def flat_target(dim):
    return Target(dim=dim, potential=lambda q: 0.0, gradient=lambda q: np.zeros(dim), name="flat")


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
        # the criterion reads the velocity M^{-1} p, so a pair can turn though
        # p . dq > 0.  The whitened identity-mass criterion reads p . dq
        # instead: M = L L^T, q' = L^T q, p' = L^{-1} p give p' . dq' = p . dq
        mass = MassMatrix.diagonal(np.array([100.0, 0.01]))
        dq = np.array([1.0, -0.1])
        p = np.array([10.0, 20.0])
        raw = p @ dq
        by_velocity = mass.inv_mul(p) @ dq
        assert raw > 0 > by_velocity  # the construction is meaningful
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

    def test_pair_uturn_coverage_error(self):
        cache = OrbitCache(STD1, LeapfrogParams(0.2, I1), PhasePoint(np.ones(1), np.ones(1)))
        cache.extend_right(3)
        cache.extend_left(2)
        assert cache.pair_uturn(-2, 3) == cache_uturn(cache, -2, 3)
        for pair in ((-3, 3), (-2, 4), (4, 5), (-4, -3), (0, 4), (-3, 0)):
            with pytest.raises(CacheCoverageError):
                cache.pair_uturn(*pair)

    def test_divergence_marks_tail(self):
        dw = builtin_target("double_well", 1)
        cache = OrbitCache(dw, LeapfrogParams(5.0, I1), PhasePoint(np.array([10.0]), np.zeros(1)))
        cache.extend_right(30)
        flags = [cache.diverged(j) for j in range(31)]
        assert any(flags)
        first = flags.index(True)
        assert all(flags[first:])  # once diverged, stays flagged
        assert all(cache.logw(j) == -math.inf for j in range(first, 31))

    @staticmethod
    def _double_well_cache():
        # divergent at |j| >= 10 on both sides
        return OrbitCache(builtin_target("double_well", 1), LeapfrogParams(0.25, I1),
                          PhasePoint(np.array([5.0]), np.array([0.0])))

    def test_logw_range_matches_per_index_gather(self):
        cache = self._double_well_cache()
        cache.extend_right(12)
        cache.extend_left(7)
        intervals = [(-7, 12), (-3, 4), (-1, 0), (0, 1),  # crossing 0
                     (-7, -1), (-5, -2), (1, 12), (8, 11),  # one side only
                     (-7, -7), (-1, -1), (0, 0), (1, 1), (12, 12)]  # a single index
        for lo, hi in intervals:
            want = np.array([cache.logw(j) for j in range(lo, hi + 1)])
            got = cache.logw_range(lo, hi)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (lo, hi)
        assert np.isneginf(cache.logw_range(9, 12)[1:]).all()  # the divergent tail
        for lo, hi in ((-8, 0), (0, 13)):
            with pytest.raises(CacheCoverageError):
                cache.logw_range(lo, hi)

    def test_unchecked_growth_is_silent(self):
        # the growth steps into overflowing states without the caller
        # holding an np.errstate: unchecked extensions enter their own
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = self._double_well_cache()
            cache.extend_right(14)
            cache.extend_to(-14, 16)
        assert [cache.diverged(j) for j in range(-14, 17)] == [abs(j) >= 10 for j in range(-14, 17)]

    @staticmethod
    def _checked_stop(fresh, start, forward, n):
        """How many states checked growth of ``n`` from ``start`` appends: up
        to the first that diverged or completes an aligned block of the new
        half whose endpoints turn, read off the fully stepped ``fresh``."""
        for i in range(1, n + 1):
            j = start + i - 1 if forward else start - i + 1
            if fresh.diverged(j):
                return i, True
            size = 2
            while i % size == 0:
                lo, hi = (j - size + 1, j) if forward else (j, j + size - 1)
                if cache_uturn(fresh, lo, hi):
                    return i, False
                size <<= 1
        return n, False

    def _assert_checked_growth(self, make, left, right, forward, n, stops_by):
        # ``left`` and ``right`` unchecked states, then checked growth
        cache, fresh = make(), make()
        cache.extend_to(-left, right)
        start = right + 1 if forward else -left - 1
        fresh.extend_to(start - n, start + n)
        with np.errstate(over="ignore", invalid="ignore"):
            logw, diverged = (cache.extend_right if forward else cache.extend_left)(n, check=True)
        grown, want_diverged = self._checked_stop(fresh, start, forward, n)
        assert (cache.lo, cache.hi) == ((-left, right + grown) if forward else (-left - grown, right))
        assert cache.n_grad == cache.hi - cache.lo + 1
        want = np.array([cache.logw(j) for j in range(cache.lo, cache.hi + 1)])
        assert cache.logw_range(cache.lo, cache.hi).tobytes() == want.tobytes()
        assert diverged is want_diverged
        if stops_by is None:
            assert grown == n and not diverged
            lo, hi = (start, start + n - 1) if forward else (start - n + 1, start)
            assert logw == cache.logw_range(lo, hi).tolist()
        else:
            assert logw is None and grown < n and diverged is (stops_by == "divergence")

    @pytest.mark.parametrize("forward", [True, False], ids=["right", "left"])
    def test_checked_growth_stopped_by_a_turn(self, forward):
        # the first turn ends a block of 8, so a block endpoint read one
        # state off stops the growth elsewhere
        x0 = PhasePoint(np.array([0.0]), np.array([1.0]))
        self._assert_checked_growth(lambda: OrbitCache(STD1, LeapfrogParams(0.5, I1), x0),
                                    3, 3, forward, 16, "turn")

    @pytest.mark.parametrize("forward", [True, False], ids=["right", "left"])
    def test_checked_growth_stopped_by_a_divergence(self, forward):
        # the double-well orbit overflows at |j| = 10: growth from |j| = 9 on
        # passes state 9 and stops at 10 before checking the pair (9, 10)
        left, right = (2, 8) if forward else (8, 2)
        self._assert_checked_growth(self._double_well_cache, left, right, forward, 16, "divergence")

    @pytest.mark.parametrize("forward", [True, False], ids=["right", "left"])
    def test_checked_growth_that_does_not_stop(self, forward):
        x0 = PhasePoint(np.array([0.0]), np.array([1.0]))
        self._assert_checked_growth(lambda: OrbitCache(STD1, LeapfrogParams(0.1, I1), x0),
                                    0, 0, forward, 8, None)


class TestNoUturns:
    def test_k1_always_true(self):
        params = LeapfrogParams(2.5, I1)
        for v in (0, 1):
            cache = OrbitCache(STD1, params, PhasePoint(np.array([2.0]), np.array([-3.0])))
            cache.extend_to(-1, 1)
            assert no_uturns(*record_interval(v, 1), cache) is True

    def test_flat_potential_never_turns(self):
        t = flat_target(2)
        params = LeapfrogParams(0.8, I2)
        cache = OrbitCache(t, params, PhasePoint(np.zeros(2), np.array([1.0, 0.3])))
        cache.extend_to(-7, 7)
        for k_len in (1, 2, 3):
            for v in range(2**k_len):
                assert no_uturns(*record_interval(v, k_len), cache) is True

    @pytest.mark.parametrize(
        "target,h,anchor",
        [(STD1, 0.1, (1.0, 0.0)), (STD1, 1.0, (2.0, 0.0)), (STD1, 1.4, (0.5, 1.0)),
         # diverges at |j| >= 10
         (DW1, 0.25, (5.0, 0.0))],
        ids=["0.1-anchor0", "1.0-anchor1", "1.4-anchor2", "double_well"],
    )
    def test_matches_brute_force_enumeration(self, target, h, anchor):
        params = LeapfrogParams(h, I1)
        cache = OrbitCache(target, params, PhasePoint(np.array([anchor[0]]), np.array([anchor[1]])))
        cache.extend_to(-15, 15)
        for k_len in (1, 2, 3, 4):
            for v in range(2**k_len):
                lo, hi = record_interval(v, k_len)
                expected = not any(cache.diverged(j) for j in range(lo, hi + 1))
                for i_lo, i_hi in brute_force_pairs(k_len, lo) if expected else ():
                    if cache_uturn(cache, i_lo, i_hi):
                        expected = False
                assert no_uturns(lo, hi, cache) is expected

    def test_divergence_counts_as_uturn(self):
        # anchor is finite but the first step overflows: stage 1 must stop
        dw = builtin_target("double_well", 1)
        params = LeapfrogParams(5.0, I1)
        cache = OrbitCache(dw, params, PhasePoint(np.array([1e60]), np.zeros(1)))
        cache.extend_to(-1, 1)
        assert not cache.diverged(0)
        assert cache.diverged(1)
        assert no_uturns(*record_interval(1, 1), cache) is False

    def test_rejects_an_interval_that_is_not_doubled(self):
        cache = OrbitCache(STD1, LeapfrogParams(0.5, I1), PhasePoint(np.ones(1), np.ones(1)))
        cache.extend_to(-4, 4)
        # one index; a length not a power of two; an interval missing 0
        for lo, hi in ((0, 0), (-1, 1), (1, 2)):
            with pytest.raises(ValueError):
                no_uturns(lo, hi, cache)

    def test_uncovered_interval_raises(self):
        cache = OrbitCache(STD1, LeapfrogParams(0.5, I1), PhasePoint(np.ones(1), np.ones(1)))
        cache.extend_to(-1, 2)
        assert isinstance(no_uturns(-1, 2, cache), bool)  # covered: no error
        for lo, hi in ((-3, 0), (-1, 6)):
            with pytest.raises(CacheCoverageError):
                no_uturns(lo, hi, cache)


class TestStoppingTime:
    def test_flat_is_infinite(self):
        t = flat_target(1)
        cache = OrbitCache(t, LeapfrogParams(0.5, I1), PhasePoint(np.zeros(1), np.ones(1)))
        cache.extend_to(-15, 15)
        for v in range(16):
            assert stopping_time(v, 4, cache) == math.inf

    def test_never_one(self):
        params = LeapfrogParams(2.0, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([2.0]), np.array([0.0])))
        cache.extend_to(-1, 1)
        for v in (0, 1):
            assert stopping_time(v, 1, cache) > 1

    def test_exhaustive_prefix_oracle(self):
        params = LeapfrogParams(1.0, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([2.0]), np.array([0.0])))
        cache.extend_to(-3, 3)
        v = 0b11
        expected = math.inf
        for k in (1, 2):
            lo, _ = record_interval(v & ((1 << k) - 1), k)
            turned = any(
                cache_uturn(cache, i_lo, i_hi)
                for i_lo, i_hi in brute_force_pairs(k, lo)
            )
            if turned:
                expected = k
                break
        assert stopping_time(v, 2, cache) == expected

    def test_consistency_under_extension(self):
        # if S(v) = K then S depends only on the K-bit prefix
        params = LeapfrogParams(0.9, I1)
        rng = np.random.default_rng(17)
        for _ in range(10):
            x0 = PhasePoint(rng.standard_normal(1) * 2, rng.standard_normal(1))
            cache = OrbitCache(STD1, params, x0)
            cache.extend_to(-15, 15)
            for v in range(16):
                s = stopping_time(v, 4, cache)
                if s <= 4 and not math.isinf(s):
                    k = int(s)
                    prefix = v & ((1 << k) - 1)
                    for w in range(16):
                        if w & ((1 << k) - 1) == prefix:
                            assert stopping_time(w, 4, cache) == s

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
                    if not no_uturns(*record_interval(v & ((1 << k) - 1), k), cache):
                        assert not no_uturns(*record_interval(v, 4), cache)
                        break


class TestOrbitSelectPmf:
    def test_km1(self):
        params = LeapfrogParams(0.3, I1)
        cache = OrbitCache(STD1, params, PhasePoint(np.array([0.5]), np.array([0.2])))
        pmf = orbit_select_pmf(cache, 1)
        assert dict(pmf) == {
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
        assert all(hi - lo + 1 == 8 for (lo, hi), _ in pmf)

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
            diverged = diverged or any(cache.diverged(j) for j in range(cache.lo, cache.hi + 1))
            masses = {}
            for b in range(2**k_m):
                s = stopping_time(b, k_m, cache)
                k_f = k_m if math.isinf(s) else int(s) - 1
                key = record_interval(b & ((1 << k_f) - 1), k_f)
                masses[key] = masses.get(key, Fraction(0)) + Fraction(1, 2**k_m)
            got = dict(orbit_select_pmf(cache, k_m))
            assert got == masses
        assert diverged

    def test_pairs_are_doubled_intervals_around_0(self):
        for target, params, x0, k_m in self._cases():
            for (lo, hi), _ in orbit_select_pmf(OrbitCache(target, params, x0), k_m):
                n = hi - lo + 1
                assert lo <= 0 <= hi and n & (n - 1) == 0, (lo, hi)

    def test_law_does_not_depend_on_cache_coverage(self):
        # the walk extends the cache a new half at a time, as far as it reaches
        for target, params, x0, k_m in self._cases():
            full = OrbitCache(target, params, x0)
            full.extend_to(-(1 << k_m) + 1, (1 << k_m) - 1)
            fresh = OrbitCache(target, params, x0)
            assert orbit_select_pmf(fresh, k_m) == orbit_select_pmf(full, k_m)
            assert fresh.lo >= full.lo and fresh.hi <= full.hi

    def test_walk_steps_fewer_states_than_the_full_orbit(self):
        # the first exact-law anchor of perfbench/certify.py: every record
        # stops by depth 5, so most of the 511 states of k_m = 8 are never
        # reached
        x0 = PhasePoint(np.array([1.0, -0.5]), np.array([0.3, 0.8]))
        cache = OrbitCache(STD2, LeapfrogParams(0.15, I2), x0)
        orbit_select_pmf(cache, 8)
        assert cache.hi - cache.lo + 1 < 511
        assert cache.n_grad == cache.hi - cache.lo + 1


class TestSymmetryProperty:
    @pytest.mark.parametrize("k_m", [1, 2, 3])
    def test_shift_covariance_exact(self, k_m):
        params = LeapfrogParams(1.0, I1)
        rng = np.random.default_rng(100 + k_m)
        for _ in range(5):
            x0 = PhasePoint(rng.standard_normal(1) * 1.5, rng.standard_normal(1))
            cache = OrbitCache(STD1, params, x0)
            pmf = dict(orbit_select_pmf(cache, k_m))
            for (lo, hi), fr in pmf.items():
                for j in range(-hi, -lo + 1):
                    x_s = leapfrog_iter(STD1, params, x0, -j)
                    cache_s = OrbitCache(STD1, params, x_s)
                    pmf_s = dict(orbit_select_pmf(cache_s, k_m))
                    assert pmf_s.get((lo + j, hi + j)) == fr
