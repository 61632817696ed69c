import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dynhmc.kernels import (
    KernelConfig,
    hmc_accept_prob,
    hmc_step,
    make_kernel,
    nuts_exact_pmf,
    nuts_recursive_index_batch,
    nuts_step_iterative,
    nuts_step_recursive,
    nuts_transition_iterative,
    nuts_transition_recursive,
    rhmc_step,
)
from dynhmc.orbit import OrbitCache
from dynhmc.targets import (
    MassMatrix,
    PhasePoint,
    Target,
    _shared_sigma_product,
    builtin_target,
)
from dynhmc.verify import chi2_gof

STD1 = builtin_target("standard_gaussian", 1)
STD2 = builtin_target("standard_gaussian", 2)
I1 = MassMatrix.identity(1)
I2 = MassMatrix.identity(2)


def flat_target(dim):
    return Target(dim=dim, potential=lambda q: 0.0, gradient=lambda q: np.zeros(dim), name="flat")


class TestKernelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelConfig("nuts_iterative", h=-0.1, mass=I1)
        with pytest.raises(ValueError):
            KernelConfig("nuts_iterative", h=0.1, mass=I1, k_m=0)
        with pytest.raises(ValueError):
            KernelConfig("wat", h=0.1, mass=I1)
        with pytest.raises(ValueError):
            KernelConfig("rhmc", h=0.1, mass=I1, weights=np.array([0.5, 0.6]))


class TestIterativeNuts:
    def test_flat_km1_jumps_one_step(self):
        t = flat_target(1)
        cfg = KernelConfig("nuts_iterative", h=0.3, mass=I1, k_m=1)
        rng = np.random.default_rng(0)
        lefts = rights = 0
        for _ in range(2000):
            q, info = nuts_step_iterative(t, cfg, np.zeros(1), rng)
            assert info.k_f == 1
            assert info.j_f in (-1, 1)  # equal weights force the move
            if info.j_f == 1:
                rights += 1
            else:
                lefts += 1
        assert abs(rights / 2000 - 0.5) < 0.05

    def test_small_h_displacement_bound(self):
        cfg = KernelConfig("nuts_iterative", h=1e-6, mass=I1, k_m=4)
        rng = np.random.default_rng(1)
        q0 = np.array([0.7])
        for _ in range(20):
            q1, info = nuts_step_iterative(STD1, cfg, q0, rng)
            # |q' - q| <= 2^K_m h (|p| + 1); p is O(1) here
            assert abs(q1[0] - q0[0]) <= 16 * 1e-6 * 10

    def test_gradient_budget(self):
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I2, k_m=5)
        rng = np.random.default_rng(2)
        q = np.zeros(2)
        for _ in range(100):
            q, info = nuts_step_iterative(STD2, cfg, q, rng)
            assert info.n_grad <= 1 << (info.k_f + 1)
            assert info.i_f[0] <= info.j_f <= info.i_f[1]

    def test_transition_info_has_no_momentum(self):
        from dynhmc.kernels import TransitionInfo
        import dataclasses

        names = {f.name for f in dataclasses.fields(TransitionInfo)}
        assert "p" not in names and "momentum" not in names

    def test_deterministic_given_seed(self):
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I2, k_m=4)
        out1, _ = nuts_step_iterative(STD2, cfg, np.ones(2), np.random.default_rng(33))
        out2, _ = nuts_step_iterative(STD2, cfg, np.ones(2), np.random.default_rng(33))
        assert np.array_equal(out1, out2)

    def test_divergent_anchor_stays_put(self):
        dw = builtin_target("double_well", 1)
        cfg = KernelConfig("nuts_iterative", h=0.1, mass=I1, k_m=3)
        q0 = np.array([1e100])  # potential overflows
        q1, info = nuts_step_iterative(dw, cfg, q0, np.random.default_rng(3))
        assert info.diverged and np.array_equal(q1, q0)


def _spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T / d + np.eye(d)


def _pin_config(name):
    if name == "gauss2":
        cfg = KernelConfig("nuts_iterative", h=0.7, mass=I2, k_m=6)
        return STD2, cfg, np.zeros(2)
    if name == "double_well":
        cfg = KernelConfig("nuts_iterative", h=1.5, mass=I1, k_m=5)
        return builtin_target("double_well", 1), cfg, np.array([1.0])
    if name == "gauss5_dense_sigma":
        sigma = _spd(np.random.default_rng(11), 5)
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=MassMatrix.identity(5), k_m=6)
        return builtin_target("gaussian", 5, sigma=sigma), cfg, np.zeros(5)
    g = np.random.default_rng(5)
    sigma = _spd(g, 5)
    cfg = KernelConfig("nuts_iterative", h=0.6, mass=MassMatrix.dense(_spd(g, 5)), k_m=6)
    return builtin_target("perturbed_gaussian", 5, sigma=sigma, a5=0.5), cfg, np.zeros(5)


class TestIterativeStreamPin:
    # Captured from the doubling loop that stepped through a whole doubling
    # before checking it (it computed up to twice the states).  Checking
    # only the blocks that are new must leave the draws, the selected
    # intervals and the random stream exactly as they were.
    PINS = {
        "gauss2": (
            "78c32b7a36f01213aa7f2bab21563c7843caa71ab824b52d57b174447d97559f",
            "87275ad4d62d772ffd5ee27c8a4090e8b53140c8c563ddcf20dd230e464a9601",
            0.8020640354064863,
        ),
        "double_well": (
            "942e44651e4d886f356d8cc87c4031a0719469dbfd378eb228b800afc9cd0237",
            "63cc91d6a48c83100303f3c842dfb0cf88cffca8bc53e295bbea56aca6c01a42",
            0.11574394505611929,
        ),
        "gauss5_dense_sigma": (
            "4cafe768e50223580db442372c46c315dc137821f8e637bd4c9399b5f400bff8",
            "787344edd9e830a6ed275017f5e634cba350d5f5524ec60b859c2399b672c472",
            0.16477864908211737,
        ),
        "perturbed5_dense_mass": (
            "fcb1fe2eae37d6e3a05a173b791b97c1342f09522619dae945cf8ba747663938",
            "8207f78108e8b8cd2ea69355d5fc31720b813d7773a2ac6f60e2be5a556d7e8f",
            0.8874042854863939,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_draws_and_stream_pinned(self, name):
        target, cfg, q = _pin_config(name)
        rng = np.random.default_rng(2024)
        q_digest = hashlib.sha256()
        path = []
        for _ in range(300):
            q, info = nuts_step_iterative(target, cfg, q, rng)
            q_digest.update(q.tobytes())
            path.append((info.j_f, info.k_f, info.i_f))
        got = (
            q_digest.hexdigest(),
            hashlib.sha256(repr(path).encode()).hexdigest(),
            rng.random(),
        )
        assert got == self.PINS[name]


def _counted_stream_digests(step, name, **cfg_changes):
    """Digests of 300 seeded steps: the draws, the (j_f, k_f, i_f, n_grad,
    diverged) path, and the generator's next uniform."""
    target, cfg, q = _pin_config(name)
    cfg = dataclasses.replace(cfg, **cfg_changes)
    rng = np.random.default_rng(2024)
    q_digest = hashlib.sha256()
    path = []
    for _ in range(300):
        q, info = step(target, cfg, q, rng)
        q_digest.update(q.tobytes())
        path.append((info.j_f, info.k_f, info.i_f, info.n_grad, info.diverged))
    return (
        q_digest.hexdigest(),
        hashlib.sha256(repr(path).encode()).hexdigest(),
        rng.random(),
    )


class TestRecursiveStreamPin:
    # Captured from the recursive sampler with its own step, weight and
    # U-turn helpers; routing it through the orbit primitives must leave
    # the draws, the path, the gradient counts and the stream as they were.
    PINS = {
        "gauss2": (
            "e4aabd74b83b155100d06fd94f5ed65d93419fd242c1ae9ec4b7820cc31badc2",
            "dee594048db1b826a371373304e3ea8ef168a41f18767f9d3e3544105a0739e2",
            0.3925457990043215,
        ),
        "double_well": (
            "ead4395e8bd34a3b1825dec9c53031623c92ac56c2f78f6a67450cb1c081ecef",
            "d35849b03964d44b317cb2c52e1c557c0ea68f42abf077592d7c0b9da63fa23d",
            0.23291885724659334,
        ),
        "gauss5_dense_sigma": (
            "015326d92d6b163610ba706fe4642ea72cb6a2e7791b467bcb963188a8d9fbd0",
            "4ab980df2183a6605b4fc495dfcc0b9415b55a31c4e8b03d97a52d7aeb088abe",
            0.2923840799672365,
        ),
        "perturbed5_dense_mass": (
            "8b505b0011a8c6bcaba73004d7a62e892b7523e23b3afc748fa42ad887160335",
            "2936f967a2dae5414c3ef17b5add7b2e0097aafc68460a2e302a34d5d7672f14",
            0.6903648220975553,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_draws_and_stream_pinned(self, name):
        got = _counted_stream_digests(nuts_step_recursive, name, kind="nuts_recursive")
        assert got == self.PINS[name]


class TestHmcStreamPin:
    # Captured from hmc_step with its own finiteness and energy checks.
    PINS = {
        "gauss2": (
            "f3ecf46cbc521a4e79681ff6bf9bd6ce6e22abf9b30c503f4bc475ea6252742a",
            "91c776fae426216f8996ad874086f6d21b73181171b2e8f9e87bf01e32ed8847",
            0.8925244963780264,
        ),
        "double_well": (
            "5b31fab08aed74c4cddf9e7c244b5f18d66e5079f30ff669d7a12a0259601bca",
            "96d7d8240b8d96312a7f62de0b1fb6c9646b4da3d157ed0a22b675b7c8f598c5",
            0.42248998017349115,
        ),
        "gauss5_dense_sigma": (
            "1136ee4eba54bec2e9eb73ab891911b565245ccbfd828e0b2c619da19705325c",
            "81b935b232ff906a19dbb0d419c14c77acf7d190e77b41363643f86f8cf758ef",
            0.4561862871930883,
        ),
        "perturbed5_dense_mass": (
            "4c76e5a2c7f735d98c3e6a8222c799248c0794b7836e71a79d1c21e7dbf9ab21",
            "43c30185ebf4ce81264bae6509679b46b0b14d2b8a3948f6034a41d797fdd176",
            0.4561862871930883,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_draws_and_stream_pinned(self, name):
        got = _counted_stream_digests(hmc_step, name, kind="hmc", t=5)
        assert got == self.PINS[name]


class TestIterativeGradientAccounting:
    @pytest.mark.parametrize("name", ["gauss2", "perturbed5_dense_mass"])
    def test_exact_count_when_accepted_interval_turned(self, name):
        target, cfg, _ = _pin_config(name)
        rng = np.random.default_rng(31)
        n_turned = 0
        for _ in range(200):
            x0 = PhasePoint(1.5 * rng.standard_normal(target.dim),
                            cfg.mass.chol_mul(rng.standard_normal(target.dim)))
            _, info = nuts_transition_iterative(target, cfg, x0, rng)
            assert info.n_grad <= 1 << (info.k_f + 1)
            lo, hi = info.i_f
            fresh = OrbitCache(target, cfg.params, x0)
            fresh.extend_to(lo, hi)
            if info.k_f and fresh.pair_uturn(lo, hi):
                # the stage after the last accepted one stops before stepping
                assert info.n_grad == 1 << info.k_f
                n_turned += 1
        assert n_turned > 0


class TestIterativeDivergenceSemantics:
    """A divergence is flagged only if the sampler computes the divergent state.

    The anchors sit on a double-well orbit from ``(q, p) = (5, 0)`` at
    ``h = 0.25`` that overflows at its tenth state.  A constant generator
    value below 1/2 makes every doubling go to the right in both samplers.
    """

    class _Constant:
        def random(self):
            return 0.25

    DW = builtin_target("double_well", 1)
    CFG = KernelConfig("nuts_iterative", h=0.25, mass=I1, k_m=5)

    def _anchor(self, j):
        cache = OrbitCache(self.DW, self.CFG.params, PhasePoint(np.array([5.0]), np.array([0.0])))
        cache.extend_right(10)
        assert cache.diverged(10) and not cache.diverged(9)
        return cache.state(j)

    @pytest.mark.parametrize("transition", [nuts_transition_iterative, nuts_transition_recursive])
    def test_uturn_before_divergent_state_is_not_flagged(self, transition):
        # state 7: interval {0, 1} turns, and its next doubling {2, 3} holds
        # the divergent state 3, which is never computed
        x0 = self._anchor(7)
        fresh = OrbitCache(self.DW, self.CFG.params, x0)
        fresh.extend_right(3)
        assert fresh.pair_uturn(0, 1) and fresh.diverged(3)
        _, info = transition(self.DW, self.CFG, x0, self._Constant())
        assert not info.diverged
        assert (info.k_f, info.i_f, info.n_grad) == (1, (0, 1), 2)

    @pytest.mark.parametrize("transition", [nuts_transition_iterative, nuts_transition_recursive])
    def test_divergent_state_reached_first_is_flagged(self, transition):
        # state 9: the first doubling computes the divergent state 1
        x0 = self._anchor(9)
        _, info = transition(self.DW, self.CFG, x0, self._Constant())
        assert info.diverged
        assert (info.k_f, info.j_f, info.n_grad) == (0, 0, 2)


class TestDivergenceRule:
    """Every sampler weighs states by the orbit rule: a squared norm
    ``|q|^2 + |p|^2`` that overflows is divergent even where ``U`` is finite."""

    TILT = Target(dim=1, potential=lambda q: 1e-300 * float(q[0]),
                  gradient=lambda q: np.full(1, 1e-300), name="tilt")
    X0 = PhasePoint(np.array([1e160]), np.array([1.0]))

    @pytest.mark.parametrize("kind", ["nuts_iterative", "nuts_recursive", "hmc"])
    def test_overflowing_norm_diverges_and_stays(self, kind):
        cfg = KernelConfig(kind, h=0.5, mass=I1, k_m=3, t=4)
        assert nuts_exact_pmf(self.TILT, cfg, self.X0).probs_dict() == {0: 1.0}
        rng = np.random.default_rng(0)
        if kind == "hmc":
            q1, info = hmc_step(self.TILT, cfg, self.X0.q, rng)
        elif kind == "nuts_iterative":
            q1, info = nuts_transition_iterative(self.TILT, cfg, self.X0, rng)
        else:
            q1, info = nuts_transition_recursive(self.TILT, cfg, self.X0, rng)
        assert info.diverged and np.array_equal(q1, self.X0.q)


class _CountingSigma:
    """A precision matrix that counts its products with a vector."""

    def __init__(self, sigma):
        self.sigma = sigma
        self.products = 0

    def __matmul__(self, q):
        self.products += 1
        return self.sigma @ q


class TestSharedSigmaProduct:
    @pytest.mark.parametrize("step", [nuts_step_iterative, nuts_step_recursive])
    def test_one_product_per_gradient(self, step):
        # each orbit state's potential reuses the product its gradient made
        d = 20
        sigma = _CountingSigma(_spd(np.random.default_rng(3), d))
        sigma_q, half_quad = _shared_sigma_product(sigma)
        target = Target(dim=d, potential=half_quad, gradient=sigma_q, name="gaussian")
        cfg = KernelConfig("nuts_iterative", h=0.3, mass=MassMatrix.identity(d), k_m=6)
        rng = np.random.default_rng(8)
        q = np.zeros(d)
        for _ in range(30):
            before = sigma.products
            q, info = step(target, cfg, q, rng)
            assert info.n_grad > 1
            assert sigma.products - before == info.n_grad


class TestExactPmf:
    def test_km1_equal_weights(self):
        t = flat_target(1)
        cfg = KernelConfig("nuts_iterative", h=0.3, mass=I1, k_m=1)
        pmf = nuts_exact_pmf(t, cfg, PhasePoint(np.zeros(1), np.ones(1)))
        probs = pmf.probs_dict()
        assert probs == {-1: pytest.approx(0.5), 1: pytest.approx(0.5)}

    def test_flat_km2_symmetric_no_stay(self):
        t = flat_target(1)
        cfg = KernelConfig("nuts_iterative", h=0.3, mass=I1, k_m=2)
        pmf = nuts_exact_pmf(t, cfg, PhasePoint(np.zeros(1), np.ones(1)))
        probs = pmf.probs_dict()
        assert probs.get(0, 0.0) == 0.0
        for j in (1, 2, 3):
            assert probs[j] == pytest.approx(probs[-j], abs=1e-15)

    @pytest.mark.parametrize("h,k_m", [(0.6, 2), (1.2, 3), (0.9, 4)])
    def test_sums_to_one(self, h, k_m):
        cfg = KernelConfig("nuts_iterative", h=h, mass=I1, k_m=k_m)
        rng = np.random.default_rng(k_m)
        for _ in range(5):
            x0 = PhasePoint(rng.standard_normal(1) * 1.5, rng.standard_normal(1))
            pmf = nuts_exact_pmf(STD1, cfg, x0)
            assert abs(pmf.total() - 1.0) <= 1e-12

    def test_support_in_reachable_range(self):
        cfg = KernelConfig("nuts_iterative", h=1.0, mass=I1, k_m=3)
        pmf = nuts_exact_pmf(STD1, cfg, PhasePoint(np.array([2.0]), np.array([0.5])))
        for j in pmf.support():
            assert -(2**3) + 1 <= j <= 2**3 - 1

    def test_budget_guard(self):
        cfg = KernelConfig("nuts_iterative", h=1.0, mass=I1, k_m=9)
        with pytest.raises(ValueError):
            nuts_exact_pmf(STD1, cfg, PhasePoint(np.zeros(1), np.ones(1)))


class TestSamplersAgainstPmf:
    @pytest.mark.parametrize("k_m", [1, 2, 3])
    def test_iterative_matches_exact_pmf(self, k_m):
        cfg = KernelConfig("nuts_iterative", h=1.1, mass=I1, k_m=k_m)
        x0 = PhasePoint(np.array([1.4]), np.array([-0.6]))
        pmf = nuts_exact_pmf(STD1, cfg, x0).probs_dict()
        rng = np.random.default_rng(k_m)
        n = 20000
        counts: dict[int, int] = {}
        for _ in range(n):
            _, info = nuts_transition_iterative(STD1, cfg, x0, rng)
            counts[info.j_f] = counts.get(info.j_f, 0) + 1
        assert chi2_gof(counts, pmf, n) >= 1e-3

    @pytest.mark.parametrize("k_m", [1, 2, 3])
    def test_recursive_matches_exact_pmf(self, k_m):
        cfg = KernelConfig("nuts_recursive", h=1.1, mass=I1, k_m=k_m)
        x0 = PhasePoint(np.array([1.4]), np.array([-0.6]))
        pmf = nuts_exact_pmf(STD1, cfg, x0).probs_dict()
        rng = np.random.default_rng(100 + k_m)
        n = 20000
        counts: dict[int, int] = {}
        for _ in range(n):
            _, info = nuts_transition_recursive(STD1, cfg, x0, rng)
            counts[info.j_f] = counts.get(info.j_f, 0) + 1
        assert chi2_gof(counts, pmf, n) >= 1e-3

    @pytest.mark.parametrize("k_m", [1, 2, 3])
    def test_batch_twin_matches_scalar_recursive(self, k_m):
        cfg = KernelConfig("nuts_recursive", h=0.9, mass=I2, k_m=k_m)
        rng = np.random.default_rng(7)
        x0 = PhasePoint(rng.standard_normal(2), rng.standard_normal(2))
        pmf = nuts_exact_pmf(STD2, cfg, x0).probs_dict()
        idx = nuts_recursive_index_batch(STD2, cfg, x0, 40000, rng)
        counts: dict[int, int] = {}
        for j in idx.tolist():
            counts[j] = counts.get(j, 0) + 1
        assert chi2_gof(counts, pmf, 40000) >= 1e-3

    def test_mutated_kernel_fails_gof(self):
        # negative control: removing the swap coin must break the law
        # (anchor chosen so some swap ratio is genuinely below 1)
        cfg = KernelConfig("nuts_iterative", h=1.1, mass=I1, k_m=3)
        x0 = PhasePoint(np.array([0.5]), np.array([-1.5]))
        pmf = nuts_exact_pmf(STD1, cfg, x0).probs_dict()
        rng = np.random.default_rng(11)
        n = 20000
        counts: dict[int, int] = {}
        for _ in range(n):
            _, info = nuts_transition_iterative(STD1, cfg, x0, rng, mutate="always-swap")
            counts[info.j_f] = counts.get(info.j_f, 0) + 1
        assert chi2_gof(counts, pmf, n) < 1e-3


class TestRecursiveMemory:
    D = 20_000

    def _peak_arrays(self, transition, k_m):
        """Peak traced allocation of one transition, in arrays of d floats.

        On a flat target the orbit is a straight line, so no U-turn stops
        the doubling and every transition builds all k_m stages.
        """
        cfg = KernelConfig("nuts_recursive", h=0.1, mass=MassMatrix.identity(self.D), k_m=k_m)
        rng = np.random.default_rng(0)
        x0 = PhasePoint(np.zeros(self.D), rng.standard_normal(self.D))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, info = transition(flat_target(self.D), cfg, x0, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.k_f == k_m
        return (peak - base) / (8 * self.D)

    @staticmethod
    def _bound(k_m):
        # 3(k_m + 1) + 2 states held at once, each with its q, p and gradient
        return 3 * (3 * (k_m + 1) + 2)

    @pytest.mark.parametrize("k_m", [5, 9])
    def test_recursive_peak_linear_in_depth(self, k_m):
        assert self._peak_arrays(nuts_transition_recursive, k_m) <= self._bound(k_m)

    def test_iterative_control_exceeds_bound(self):
        # the orbit table holds all 2^10 - 1 states at k_m = 9
        assert self._peak_arrays(nuts_transition_iterative, 9) > self._bound(9)


class TestHmc:
    def test_flat_always_accepts(self):
        t = flat_target(2)
        cfg = KernelConfig("hmc", h=0.4, mass=I2, t=7)
        rng = np.random.default_rng(0)
        for _ in range(50):
            _, info = hmc_step(t, cfg, np.zeros(2), rng)
            assert info.accepted is True

    def test_sqrt2_degeneracy_always_accepts(self):
        # T = 2, h = sqrt(2): the map is -identity, so Delta H = 0 exactly
        cfg = KernelConfig("hmc", h=math.sqrt(2.0), mass=I1, t=2)
        rng = np.random.default_rng(1)
        for _ in range(100):
            q0 = rng.standard_normal(1) * 2
            q1, info = hmc_step(STD1, cfg, q0, rng)
            assert info.accepted is True
            assert abs(q1[0] + q0[0]) <= 1e-12  # proposal is -q0

    def test_acceptance_rate_small_h(self):
        cfg = KernelConfig("hmc", h=0.1, mass=I1, t=10)
        rng = np.random.default_rng(2)
        q = np.zeros(1)
        acc = 0
        n = 10000
        for _ in range(n):
            q, info = hmc_step(STD1, cfg, q, rng)
            acc += info.accepted
        assert acc / n >= 0.99

    def test_dual_formulations_agree(self):
        cfg = KernelConfig("hmc", h=0.7, mass=I1, t=5)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x0 = PhasePoint(rng.standard_normal(1) * 2, rng.standard_normal(1))
            a = hmc_accept_prob(STD1, cfg, x0, formulation="metropolis")
            b = hmc_accept_prob(STD1, cfg, x0, formulation="dynamic")
            assert abs(a - b) <= 1e-12

    def test_diverged_proposal_rejected(self):
        dw = builtin_target("double_well", 1)
        cfg = KernelConfig("hmc", h=5.0, mass=I1, t=10)
        rng = np.random.default_rng(4)
        q0 = np.array([10.0])
        q1, info = hmc_step(dw, cfg, q0, rng)
        assert info.accepted is False and np.array_equal(q1, q0)

    def test_n_grad_counts_gradients_taken(self):
        # a diverged trajectory stops early: n_grad is what it took, not T + 1
        dw = builtin_target("double_well", 1)
        calls = [0]

        def counted(q):
            calls[0] += 1
            return dw.gradient(q)

        target = dataclasses.replace(dw, gradient=counted)
        cfg = KernelConfig("hmc", h=1.5, mass=I1, t=8)
        rng = np.random.default_rng(0)
        q = np.array([1.0])
        n_grad = n_div = 0
        for _ in range(200):
            q, info = hmc_step(target, cfg, q, rng)
            n_grad += info.n_grad
            n_div += info.diverged
        assert n_div > 0
        assert n_grad == calls[0]

    def test_mala_is_t1(self):
        cfg = KernelConfig("hmc", h=0.5, mass=I1, t=1)
        rng = np.random.default_rng(5)
        _, info = hmc_step(STD1, cfg, np.zeros(1), rng)
        assert info.t == 1 and info.n_grad == 2


class TestRhmc:
    def test_degenerate_weights_pin_t(self):
        w = np.zeros(4)
        w[3] = 1.0
        cfg = KernelConfig("rhmc", h=0.3, mass=I1, weights=w)
        rng = np.random.default_rng(0)
        for _ in range(50):
            _, info = rhmc_step(STD1, cfg, np.zeros(1), rng)
            assert info.t == 4

    def test_degenerate_first_weight_is_mala(self):
        cfg = KernelConfig("rhmc", h=0.3, mass=I1, weights=np.array([1.0]))
        _, info = rhmc_step(STD1, cfg, np.zeros(1), np.random.default_rng(1))
        assert info.t == 1

    def test_uniform_mixture_frequencies(self):
        cfg = KernelConfig("rhmc", h=0.3, mass=I1, weights=np.array([0.5, 0.5]))
        rng = np.random.default_rng(2)
        ts = [rhmc_step(STD1, cfg, np.zeros(1), rng)[1].t for _ in range(4000)]
        frac1 = sum(t == 1 for t in ts) / len(ts)
        assert abs(frac1 - 0.5) < 0.04
        assert set(ts) == {1, 2}

    def test_mixture_positions_match_components(self):
        # with the component pinned, rhmc and hmc sample identical laws
        w = np.zeros(3)
        w[2] = 1.0
        cfg_r = KernelConfig("rhmc", h=0.4, mass=I1, weights=w)
        cfg_h = KernelConfig("hmc", h=0.4, mass=I1, t=3)
        rng_r = np.random.default_rng(9)
        rng_h = np.random.default_rng(9)
        xr = [rhmc_step(STD1, cfg_r, np.zeros(1), rng_r)[0][0] for _ in range(3000)]
        xh = [hmc_step(STD1, cfg_h, np.zeros(1), rng_h)[0][0] for _ in range(3000)]
        from scipy import stats as sps

        assert sps.ks_2samp(xr, xh).pvalue >= 1e-3


class TestMakeKernel:
    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("nuts_iterative", {"k_m": 3}),
            ("nuts_recursive", {"k_m": 3}),
            ("hmc", {"t": 4}),
            ("rhmc", {"weights": np.array([0.3, 0.7])}),
        ],
    )
    def test_all_kinds_step(self, kind, extra):
        cfg = KernelConfig(kind, h=0.4, mass=I2, **extra)
        kernel = make_kernel(STD2, cfg)
        q, info = kernel(np.zeros(2), np.random.default_rng(0))
        assert q.shape == (2,)
        assert info.n_grad >= 1

    @pytest.mark.parametrize(
        "kind,extra,mutate",
        [
            ("nuts_iterative", {"k_m": 3}, "never-swap"),
            ("nuts_recursive", {"k_m": 3}, "never-swap"),
            ("hmc", {"t": 4}, "always-swap"),
            ("rhmc", {"weights": np.array([0.3, 0.7])}, "always-swap"),
        ],
    )
    def test_mutation_it_cannot_apply_raises(self, kind, extra, mutate):
        # a mutation silently dropped would make a negative control vacuous
        cfg = KernelConfig(kind, h=0.4, mass=I2, **extra)
        with pytest.raises(ValueError, match="mutation"):
            make_kernel(STD2, cfg, mutate=mutate)
