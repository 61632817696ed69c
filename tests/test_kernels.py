import dataclasses
import functools
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dynhmc.kernels
from dynhmc.index_select import WeightTree
from dynhmc.kernels import (
    KernelConfig,
    TransitionInfo,
    _swap,
    _swap_rows,
    hmc_step,
    make_kernel,
    nuts_exact_pmf,
    nuts_step_iterative,
    nuts_step_iterative_rows,
    nuts_step_recursive,
    nuts_transition_iterative,
    nuts_transition_iterative_rows,
    nuts_transition_recursive,
    rhmc_step,
)
from dynhmc.leapfrog import LeapfrogParams, leapfrog_forward, leapfrog_iter
from dynhmc.orbit import OrbitCache, orbit_select_pmf
from dynhmc.targets import (
    MassMatrix,
    PhasePoint,
    Target,
    _shared_sigma_product,
    builtin_target,
    hamiltonian,
    momentum_refresh,
)
from dynhmc.verify import chi2_gof
from doubling import record_interval, stopping_time

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

    def test_params_built_once_per_config(self):
        cfg = KernelConfig("nuts_iterative", h=0.2, mass=I1)
        assert cfg.params is cfg.params
        assert cfg.params.h == 0.2 and cfg.params.mass is I1
        assert dataclasses.replace(cfg, h=0.3).params.h == 0.3

    # a nan passes the sign and the sum test; only the finiteness test rejects it
    @pytest.mark.parametrize("weights", [[0.5, math.nan], [math.nan, 0.5, 0.5], [math.nan],
                                         [1.0, math.inf]])
    def test_non_finite_rhmc_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="weights"):
            KernelConfig("rhmc", h=0.1, mass=I1, weights=np.array(weights))

    def test_overflowing_rhmc_weights_rejected_without_warning(self):
        # each weight is finite, their sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weights"):
                KernelConfig("rhmc", h=0.1, mass=I1, weights=[1e308, 1e308])

    def test_t_bounded_by_the_states_k_m_allows(self):
        # 2^20 states, as many as k_m = 20 gives; beyond it an hmc run is
        # unbounded in time (t = 1e308 once read as an integer never ended)
        assert KernelConfig("hmc", h=0.1, mass=I1, t=2**20).t == 2**20
        for t in (0, 2**20 + 1, int(1e308)):
            with pytest.raises(ValueError, match=r"outside \[1, 1048576\]"):
                KernelConfig("hmc", h=0.1, mass=I1, t=t)


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
    # the q digests of the two dense-sigma cases below were re-captured when
    # Sigma q moved to BLAS dsymv, which rounds differently from a general
    # product; their paths and streams kept their digests
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
            "ef7fd24d00e78def16023afdbf6d094b14e7d8ac768e3745bb79c02299cbbedb",
            "787344edd9e830a6ed275017f5e634cba350d5f5524ec60b859c2399b672c472",
            0.16477864908211737,
        ),
        "perturbed5_dense_mass": (
            "d247064543944efba26235053e06040044d7da5ad68ccce27d5c62ac1970263f",
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


class TestIterativeCountedStreamPin:
    # Captured from the doubling loop that drew its interval as a binary
    # word and called logsumexp and multinomial_pick at every stage.  Unlike
    # TestIterativeStreamPin this hashes n_grad and diverged too.
    PINS = {
        "gauss2": (
            "78c32b7a36f01213aa7f2bab21563c7843caa71ab824b52d57b174447d97559f",
            "82c41e024c585cdb680f224d905d69d843c914a2443e1bf3a5b525557c5bba2c",
            0.8020640354064863,
        ),
        "double_well": (
            "942e44651e4d886f356d8cc87c4031a0719469dbfd378eb228b800afc9cd0237",
            "fd879de66bec8831762be9f435e86abd0747885c12b9eff4e62412124a6234f2",
            0.11574394505611929,
        ),
        "gauss5_dense_sigma": (
            "ef7fd24d00e78def16023afdbf6d094b14e7d8ac768e3745bb79c02299cbbedb",
            "6d8f3ce32b3b65c6a32801d9f40aa0bcab0c455c6802eac0fce1ef9fc9704a53",
            0.16477864908211737,
        ),
        "perturbed5_dense_mass": (
            "d247064543944efba26235053e06040044d7da5ad68ccce27d5c62ac1970263f",
            "7706b9898327860e9d00fa8077b9eabddf4f2bc5aab94db3776e4f905d94b1d5",
            0.8874042854863939,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_draws_and_stream_pinned(self, name):
        got = _counted_stream_digests(nuts_step_iterative, name, kind="nuts_iterative")
        assert got == self.PINS[name]


class TestAlwaysSwapStreamPin:
    # Captured, as the two pins above, before the iterative sampler skipped
    # the multinomial pick of a stage whose swap rejects.  The always-swap
    # control accepts every finite swap, so it takes the other branch.
    ITERATIVE_PINS = {
        "gauss2": (
            "694ca4bee2d1d77d1943d123d8956e2103cdbae5d4f86c70e4a30e4ec3cd3394",
            "eac36a90795fbda8f5343e2bb63e44190ec5af5442d6e512f4e0bd0441a91f2f",
            0.4471621590839191,
        ),
        "double_well": (
            "f42cc0fb3ab44ddd6b9cd87db03faca03156181ef757cac244c732f591203ad3",
            "44e7617ea67685e41222b3fd16f3ddd58298ada16dfcdb1a41d5cbd178913be0",
            0.5635287474122239,
        ),
        "gauss5_dense_sigma": (
            "db07668e875a304d37bd8b5d9ac7a2142c984eb6bf64c0ad29e041e14345d214",
            "047406d87e0a808baec45dfdf4d8215dd84ed4451f6919711606a8da73144227",
            0.25338267773745005,
        ),
        "perturbed5_dense_mass": (
            "120aad3732234b8dd578bb05c6d0f1c65167ad488a971549b8a867082611b0c6",
            "75ce06cbf7d0d748b6be9853a1abc1287e085fb3c19ac87ea49a7d2cf3603d91",
            0.47248675480276814,
        ),
    }
    RECURSIVE_PINS = {
        "gauss2": (
            "13bc2a9a773294a3bdb661bb8c263fd1219cfe7279094f238ea0f3f31b456159",
            "01caafc9a1858f7ef6d261d687cf016c1c79c20fede2e68ef058970ea3ee0cf8",
            0.004629512329515473,
        ),
        "double_well": (
            "84c5cc24a7cc624c8c256ad7235e29b303465608aa46d2ab992d1550e476fd83",
            "3016e6e8abdaf94110b3a49393953e1552534dd09b377d8030e05ca8e57dff7c",
            0.16165879992446797,
        ),
        "gauss5_dense_sigma": (
            "6518aabfef1981130d24d4f7ac8dbe3929152d26c0d45651eb405e86b75af26f",
            "09194ec667db3fb16a00477eeceff7aa31b6f7668679d4071be7b83bd1ee36b7",
            0.2923840799672365,
        ),
        "perturbed5_dense_mass": (
            "26efeb6c7183c2fbd2b1f4cdd74bba9e7995124d2576348f9dac5760ae5ce86d",
            "f9f03e25eacf6ebf09040548622bd85c836cc91fb0843268f7216a60aace22ce",
            0.4185057390097552,
        ),
    }

    @pytest.mark.parametrize("name", sorted(ITERATIVE_PINS))
    def test_iterative_pinned(self, name):
        step = functools.partial(nuts_step_iterative, mutate="always-swap")
        got = _counted_stream_digests(step, name, kind="nuts_iterative")
        assert got == self.ITERATIVE_PINS[name]

    @pytest.mark.parametrize("name", sorted(RECURSIVE_PINS))
    def test_recursive_pinned(self, name):
        step = functools.partial(nuts_step_recursive, mutate="always-swap")
        got = _counted_stream_digests(step, name, kind="nuts_recursive")
        assert got == self.RECURSIVE_PINS[name]


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
            "af3691cb9b56e13097c24affd80a2d036be25bf6bc3aa8e81f1a02c10c0ff16d",
            "4ab980df2183a6605b4fc495dfcc0b9415b55a31c4e8b03d97a52d7aeb088abe",
            0.2923840799672365,
        ),
        "perturbed5_dense_mass": (
            "9a78b13b836265ba2a1b58395f7bc6dcdc242848393d3c1dddaeedb5fd2ab0b5",
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
            "2942959ef7143513eedd355f80a67473d1696f081ebbfdbc86e20e97853b9064",
            "81b935b232ff906a19dbb0d419c14c77acf7d190e77b41363643f86f8cf758ef",
            0.4561862871930883,
        ),
        "perturbed5_dense_mass": (
            "02a64f506a1be5e4a05d5274d67ff5eb90fd5fa97711fd5ba6482a264f313dbf",
            "43c30185ebf4ce81264bae6509679b46b0b14d2b8a3948f6034a41d797fdd176",
            0.4561862871930883,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_draws_and_stream_pinned(self, name):
        got = _counted_stream_digests(hmc_step, name, kind="hmc", t=5)
        assert got == self.PINS[name]

    # Captured from rhmc_step when hmc_step accepted with the Metropolis rate
    # min(1, exp(H_0 - H_T)); the two-point index-selection ratio that
    # replaced it must leave the draws, the path and the stream as they were.
    RHMC_PINS = {
        "gauss2": (
            "8b0325d918a6dfb97f39e3a4012a9d419f39b8488e184225031ff907bdb3f871",
            "d6c647abfeeb0155245f9a034e9d69fef8148df918310be6ff0e239b5ff1b63a",
            0.6151716902850042,
        ),
        "double_well": (
            "c90e49fb8de1455d5a9f2f163b6ea0e208ab849fbaa1979c59fe3428f4e656d9",
            "e007c9fc944e941212c81727e2cda3490b044ec9ed1eb0d22362f4cdb970e8f5",
            0.21821317609747137,
        ),
        "gauss5_dense_sigma": (
            "5b453a7af7109b9ab2b6b82704c719d35d8d21b8484a6b061f1781cd7e9f2aaa",
            "81049873ccb2c5be516036c3e25e517b867b2cb4ab4653206ebd21a938ffbdac",
            0.39722258405918753,
        ),
        "perturbed5_dense_mass": (
            "1b16515ca98aab4ce8877d26d184075c52092facafffa55576ea61a9e4338c8d",
            "70a09595b58feb561c976a8366e6314386e76e3c4dbc10256add42e316188e23",
            0.39722258405918753,
        ),
    }

    @pytest.mark.parametrize("name", sorted(RHMC_PINS))
    def test_rhmc_draws_and_stream_pinned(self, name):
        got = _counted_stream_digests(
            rhmc_step, name, kind="rhmc", weights=np.array([0.1, 0.2, 0.3, 0.4])
        )
        assert got == self.RHMC_PINS[name]


class TestHmcDivergentStreamPin:
    # Captured from hmc_step whose step loop probed q.q + p.p for finiteness.
    # On this double well 264 of the 300 transitions diverge, the trajectories
    # take 6 to 12 of the 12 steps, and 18 accept: the q . p probe must stop every
    # trajectory at the same step, so the draws, the gradient counts and the
    # stream stay as they were.
    PIN = (
        "903297c03dc185c8623f6e57f55f2fd4fa53954349d9ce47dd67d0fb3fa28956",
        "f08be3fd6e288942fc905f13f7661a725314085470bfdb2f6884f51c00044bf2",
        0.42248998017349115,
    )

    def test_draws_and_gradient_counts_pinned(self):
        dw = builtin_target("double_well", 1)
        cfg = KernelConfig("hmc", h=1.4, mass=I1, t=12)
        rng = np.random.default_rng(2024)
        q = np.array([1.0])
        q_digest = hashlib.sha256()
        n_grad = []
        n_div = 0
        for _ in range(300):
            q, info = hmc_step(dw, cfg, q, rng)
            q_digest.update(q.tobytes())
            n_grad.append(info.n_grad)
            n_div += info.diverged
        assert n_div == 264 and set(n_grad) == set(range(7, 14))
        got = (q_digest.hexdigest(), hashlib.sha256(repr(n_grad).encode()).hexdigest(),
               rng.random())
        assert got == self.PIN


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

    @pytest.mark.parametrize("transition, uniforms, k_f", [
        # the iterative sampler draws three uniforms per stage it enters
        (nuts_transition_iterative, [0.25] * 3, 0),
        (nuts_transition_iterative, [0.75, 0.5, 0.5, 0.25, 0.5, 0.5], 1),
        # the recursive one draws a direction, and a swap per accepted stage
        (nuts_transition_recursive, [0.25], 0),
        (nuts_transition_recursive, [0.75, 0.5, 0.25], 1),
    ])
    def test_checked_growth_into_divergence_is_silent(self, transition, uniforms, k_f):
        # from state 9 the growth steps into the overflowing state, at stage
        # 0 going right, or at stage 1 after a step left; no caller holds an
        # np.errstate, so the transition must hold its own.  A sampler that
        # draws past its script raises StopIteration
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, info = transition(self.DW, self.CFG, self._anchor(9), _Script(uniforms))
        assert info.diverged and info.k_f == k_f


class _Script:
    """A generator stand-in that returns scripted uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _double_well_anchors(rng):
    # the states of the double-well orbit from (5, 0) at h = 0.25, which
    # overflows at its tenth state on either side, and nearby random ones
    params = LeapfrogParams(0.25, I1)
    edge = OrbitCache(builtin_target("double_well", 1), params,
                      PhasePoint(np.array([5.0]), np.array([0.0])))
    edge.extend_right(9)
    rand = [PhasePoint(rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 5.5, 1),
                       rng.normal(0.0, 3.0, 1)) for _ in range(8)]
    return [edge.state(j) for j in range(10)] + rand


def _oracle_case(name):
    """(target, mass, h, anchors) for the checked-growth oracle test."""
    g = np.random.default_rng(17)
    if name == "double_well":
        return builtin_target("double_well", 1), I1, 0.25, _double_well_anchors(g)
    d = 3
    if name == "std_dense_mass":
        mass = MassMatrix.dense(_spd(g, d))
        target = builtin_target("standard_gaussian", d, mass=mass)
        h = 0.5
    else:
        mass = MassMatrix.identity(d)
        target = builtin_target("perturbed_gaussian", d, sigma=_spd(g, d), a5=0.5)
        h = 0.4
    anchors = [PhasePoint(1.5 * g.standard_normal(d), mass.chol_mul(g.standard_normal(d)))
               for _ in range(6)]
    return target, mass, h, anchors


class TestOnePickPerTransition:
    """The iterative sampler makes one multinomial pick per transition, for
    the last later stage whose swap took."""

    @pytest.mark.parametrize("mutate", [None, "always-swap"])
    def test_at_most_one_pick(self, monkeypatch, mutate):
        calls = []
        pick = dynhmc.kernels.multinomial_pick

        def counted(*args):
            calls.append(args)
            return pick(*args)

        monkeypatch.setattr(dynhmc.kernels, "multinomial_pick", counted)
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I2, k_m=6)
        rng = np.random.default_rng(4)
        q, deep = np.array([3.0, -1.0]), 0
        for _ in range(300):
            del calls[:]
            q, info = nuts_step_iterative(STD2, cfg, q, rng, mutate=mutate)
            assert len(calls) <= 1
            if mutate:  # every stage swaps: the last one past stage 0 picks
                assert len(calls) == (info.k_f >= 2)
                deep += info.k_f >= 3
        if mutate:
            assert deep  # transitions whose earlier picks were overwritten


class TestCheckedGrowthMatchesOracle:
    """The iterative sampler's checked growth stops at stage K, by a U-turn or
    a divergence, iff ``no_uturns`` fails for the stage-K record on a fully
    extended cache that checks nothing (so at ``stopping_time``).  Within the
    stopping stage it computes the states up to the first failing check, in
    the order of :class:`TestIterativeDivergenceSemantics`: the current
    interval's endpoint pair, then each new state and the blocks it
    completes; ``diverged`` is set iff that check is a divergent state."""

    K_M = 5

    @staticmethod
    def _first_failure(oracle, word, k_f):
        """(new states computed, whether the failing check is a divergence)
        at stage ``k_f + 1`` of the record ``word``, read off the oracle cache."""
        lo, hi = record_interval(word & ((1 << k_f) - 1), k_f)
        right = (word >> k_f) & 1
        if k_f and oracle.pair_uturn(lo, hi):
            return 0, False
        for i in range(1, (1 << k_f) + 1):
            j = hi + i if right else lo - i
            if oracle.diverged(j):
                return i, True
            size = 2
            while i % size == 0:
                if oracle.pair_uturn(*((j - size + 1, j) if right else (j, j + size - 1))):
                    return i, False
                size <<= 1
        raise AssertionError(f"stage {k_f + 1} of {word:#b} passed every check")

    @pytest.mark.parametrize("name", ["std_dense_mass", "perturbed_gaussian", "double_well"])
    def test_stops_iff_no_uturns_fails(self, name):
        target, mass, h, anchors = _oracle_case(name)
        k_m = self.K_M
        cfg = KernelConfig("nuts_iterative", h=h, mass=mass, k_m=k_m)
        stops = {True: 0, False: 0}  # stopping stages, by whether they diverged
        for x0 in anchors:
            oracle = OrbitCache(target, cfg.params, x0)
            if oracle.diverged(0):
                continue
            oracle.extend_to(-(1 << k_m) + 1, (1 << k_m) - 1)
            for word in range(1 << k_m):
                s_f = stopping_time(word, k_m, oracle)
                # per stage: direction (right iff the bit is set), pick, swap
                script = []
                for k in range(k_m):
                    script += [0.25 if word >> k & 1 else 0.75, 0.5, 0.5]
                _, info = nuts_transition_iterative(target, cfg, x0, _Script(script))
                if math.isinf(s_f):
                    assert (info.k_f, info.n_grad, info.diverged) == (k_m, 1 << k_m, False)
                    continue
                k_f = s_f - 1
                computed, diverged = self._first_failure(oracle, word, k_f)
                assert (info.k_f, info.n_grad, info.diverged) == (
                    k_f, (1 << k_f) + computed, diverged)
                assert info.i_f == record_interval(word & ((1 << k_f) - 1), k_f)
                stops[diverged] += 1
        assert stops[False] > 0
        if name == "double_well":
            assert stops[True] > 0


class _Recorder:
    """A generator that keeps every block of uniforms it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.blocks = []

    def random(self, size):
        block = self._rng.random(size)
        self.blocks.append(block)
        return block


def _info_row(rows, r):
    """Row ``r`` of a :class:`TransitionRows` as a :class:`TransitionInfo`."""
    return TransitionInfo(int(rows.j_f[r]), tuple(rows.i_f[r].tolist()), int(rows.k_f[r]),
                          int(rows.n_grad[r]), bool(rows.diverged[r]))


def _rows_case(name):
    """(target, cfg, anchors q, momenta p) for the rows-against-scalar pins."""
    g = np.random.default_rng(sum(map(ord, name)))
    if name == "double_well":
        # the edge orbit diverges mid-stage; three anchors diverge at once
        anchors = _double_well_anchors(g) * 8
        q = np.array([x.q for x in anchors])
        p = np.array([x.p for x in anchors])
        q[:3] = [[1e100], [np.inf], [np.nan]]
        cfg = KernelConfig("nuts_iterative", h=0.25, mass=I1, k_m=5)
        return builtin_target("double_well", 1), cfg, q, p
    if name == "custom":  # no row forms: the rows loop over the scalar functions
        target = Target(dim=3, potential=lambda x: 0.5 * float(x @ x) + 0.1 * float(np.sum(x**4)),
                        gradient=lambda x: x + 0.4 * x**3, name="quartic")
        mass, h, k_m = MassMatrix.identity(3), 0.5, 7
    elif name.startswith("std"):
        d, h, k_m = {"std1": (1, 1.3, 8), "std2": (2, 0.4, 6), "std5": (5, 1.0, 4),
                     "std5_km1": (5, 0.7, 1), "std100": (100, 0.5, 3)}[name]
        mass = MassMatrix.identity(d)
        target = builtin_target("standard_gaussian", d)
    elif name == "gaussian_sigma100":  # a dense sigma large enough for BLAS's blocked kernel
        mass, h, k_m = MassMatrix.identity(100), 0.4, 4
        target = builtin_target("gaussian", 100, sigma=_spd(g, 100))
    else:
        kind, mass_kind = name.rsplit("_", 1)
        d = 4
        mass = {"identity": MassMatrix.identity(d),
                "diagonal": MassMatrix.diagonal(g.uniform(0.5, 2.0, d)),
                "dense": MassMatrix.dense(_spd(g, d))}[mass_kind]
        target = builtin_target(kind, d, sigma=_spd(g, d), mass=mass)
        h, k_m = {"identity": (1.1, 2), "diagonal": (0.6, 5), "dense": (0.5, 6)}[mass_kind]
    cfg = KernelConfig("nuts_iterative", h=h, mass=mass, k_m=k_m)
    n = 40 if target.dim == 100 else 150
    q = 1.5 * g.standard_normal((n, target.dim))
    return target, cfg, q, mass.chol_mul(g.standard_normal((n, target.dim)))


ROWS_CASES = ["std1", "std2", "std5", "std5_km1", "std100", "gaussian_identity",
              "gaussian_dense", "gaussian_sigma100", "perturbed_gaussian_diagonal",
              "perturbed_gaussian_dense", "double_well", "custom"]


class TestIterativeRowsMatchScalar:
    """Each row of the rows sampler is the scalar sampler given that row's
    uniforms: a stage's block holds three uniforms per row that entered the
    stage, in row order, and a row enters stage k iff its anchor did not
    diverge (then ``n_grad > 1``) and it passed stage k - 1 (``k_f >= k``)."""

    @pytest.mark.parametrize("mutate", [None, "always-swap"])
    @pytest.mark.parametrize("name", ROWS_CASES)
    def test_each_row_is_the_scalar_transition(self, name, mutate):
        target, cfg, q, p = _rows_case(name)
        rng = _Recorder(7)
        out, rows = nuts_transition_iterative_rows(target, cfg, PhasePoint(q, p), rng, mutate=mutate)
        scripts = [[] for _ in q]
        for k, block in enumerate(rng.blocks):
            entered = np.flatnonzero((rows.n_grad > 1) & (rows.k_f >= k))
            assert block.shape == (entered.size, 3)
            for r, u in zip(entered, block.tolist()):
                scripts[r] += u
        for r in range(len(q)):
            script = _Script(scripts[r])
            q1, info = nuts_transition_iterative(target, cfg, PhasePoint(q[r], p[r]), script,
                                                 mutate=mutate)
            assert q1.tobytes() == out[r].tobytes() and info == _info_row(rows, r)
            assert next(script._values, None) is None  # every uniform was read
        if name == "double_well":
            assert np.all(rows.diverged[:3] & (rows.n_grad[:3] == 1))
            assert np.any(rows.diverged & (rows.k_f > 0))  # stopped mid-stage

    @pytest.mark.parametrize("seed", range(20))
    def test_one_row_is_the_scalar_stream(self, seed):
        g = np.random.default_rng(seed + 100)
        mass = MassMatrix.dense(_spd(g, 3)) if seed % 2 else MassMatrix.identity(3)
        cfg = KernelConfig("nuts_iterative", h=0.7, mass=mass, k_m=5)
        target = builtin_target("standard_gaussian", 3, mass=mass)
        q = g.standard_normal(3)
        scalar_rng, rows_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        q1, info = nuts_step_iterative(target, cfg, q, scalar_rng)
        out, rows = nuts_step_iterative_rows(target, cfg, q[None], rows_rng)
        assert q1.tobytes() == out[0].tobytes() and info == _info_row(rows, 0)
        assert scalar_rng.random() == rows_rng.random()

    def test_n_grad_counts_the_gradients_evaluated(self):
        # the custom target has no row forms: each row's gradient is one call
        target, cfg, q, p = _rows_case("custom")
        calls = [0]

        def gradient(x):
            calls[0] += 1
            return target.gradient(x)

        counted = dataclasses.replace(target, gradient=gradient)
        _, rows = nuts_transition_iterative_rows(counted, cfg, PhasePoint(q, p),
                                                 np.random.default_rng(7))
        assert rows.n_grad.sum() == calls[0]
        # some row stopped inside a stage, before the stage's last state
        mid = (rows.n_grad - 1 != (1 << rows.k_f) - 1) & (rows.n_grad != 1 << rows.k_f + 1)
        assert mid.any()

    def test_one_row_that_stops_mid_stage_without_row_forms(self):
        # a lone row that stops before its stage's last state leaves no row to
        # step: the loop over the rows must not be called on an empty array
        target, cfg, q, p = _rows_case("custom")
        for r in range(len(q)):
            one = PhasePoint(q[r:r + 1], p[r:r + 1])
            q1, info = nuts_transition_iterative(target, cfg, PhasePoint(q[r], p[r]),
                                                 np.random.default_rng(1))
            out, rows = nuts_transition_iterative_rows(target, cfg, one, np.random.default_rng(1))
            assert q1.tobytes() == out[0].tobytes() and info == _info_row(rows, 0)

    def test_unknown_mutation_raises(self):
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I2, k_m=3)
        with pytest.raises(ValueError, match="mutation"):
            nuts_step_iterative_rows(STD2, cfg, np.zeros((4, 2)), np.random.default_rng(0),
                                     mutate="never-swap")

    def test_overflow_is_silent(self):
        steep = TestOverflowIsSilent.STEEP
        cfg = KernelConfig("nuts_iterative", h=4.0, mass=I2, k_m=3)
        x0 = PhasePoint(np.zeros((3, 2)), np.ones((3, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, rows = nuts_transition_iterative_rows(steep, cfg, x0, np.random.default_rng(0))
        assert rows.diverged.all() and np.array_equal(out, x0.q)


class TestSwapRows:
    """``_swap_rows`` is ``_swap`` on each row, whatever the two log-weights
    (equal, signed zeros, infinite on either side, a difference that
    overflows) and with ``u`` at ``exp(log_r)`` and one ulp either side."""

    @pytest.mark.parametrize("mutate", [None, "always-swap"])
    def test_each_row_is_the_scalar_coin(self, mutate):
        inf = math.inf
        weights = (-inf, -1e308, -2.5, -0.0, 0.0, 1.0, 3.0, 1e308, inf, math.nan)
        cases = [(a, b, u) for a in weights for b in weights
                 for u in (0.0, 0.3, 0.999, math.nextafter(1.0, 0.0))]
        # np.exp and math.exp differ in the last bit on a few percent of
        # these ratios, so a coin taken with np.exp fails here
        ratios = [(-1.0, 0.0), (2.0, 2.7), (-700.0, 40.0), (5.0, 5.0 + 1e-12)]
        ratios += [(a, 0.0) for a in np.random.default_rng(0).uniform(-30.0, 0.0, 500).tolist()]
        for a, b in ratios:
            e = math.exp(a - b)
            cases += [(a, b, u) for u in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))]
        new, old, u = (np.array(c) for c in zip(*cases))
        got = _swap_rows(new, old, u, mutate)
        assert got.dtype == bool
        assert got.tolist() == [_swap(a, b, w, mutate) for a, b, w in cases]
        if mutate is None:  # below exp(log_r) swaps, at it or above does not
            assert got[-3 * len(ratios):].tolist() == [True, False, False] * len(ratios)


class TestOverflowIsSilent:
    """Every path that steps or weighs an overflowing state holds
    ``np.errstate`` around it: no RuntimeWarning, and the divergence is
    flagged."""

    # the first half-kick overflows: 0.5 * h * 1e308 at h = 4
    STEEP = Target(dim=2, potential=lambda q: 0.0, gradient=lambda q: np.full(2, 1e308),
                   name="steep")
    PARAMS = LeapfrogParams(4.0, I2)
    X0 = PhasePoint(np.zeros(2), np.ones(2))

    def test_leapfrog_step_and_forward(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x1 = leapfrog_iter(self.STEEP, self.PARAMS, self.X0, 1)
            x_t, n_grad = leapfrog_forward(self.STEEP, self.PARAMS, self.X0, 5)
        assert not np.all(np.isfinite(x1.q))
        assert not np.all(np.isfinite(x_t.q)) and n_grad == 2

    def test_orbit_extension(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = OrbitCache(self.STEEP, self.PARAMS, self.X0)
            cache.extend_to(-3, 3)
        assert all(cache.diverged(j) for j in (-3, -2, -1, 1, 2, 3))
        assert not cache.diverged(0) and cache.n_grad == 3

    @pytest.mark.parametrize("kind, extra", [
        ("nuts_iterative", {"k_m": 3}),
        ("nuts_recursive", {"k_m": 3}),
        ("hmc", {"t": 4}),
        ("rhmc", {"weights": np.array([0.5, 0.5])}),
    ])
    def test_kernels(self, kind, extra):
        cfg = KernelConfig(kind, h=4.0, mass=I2, **extra)
        kernel = make_kernel(self.STEEP, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q1, info = kernel(self.X0.q, np.random.default_rng(0))
        assert info.diverged and np.array_equal(q1, self.X0.q)

    def test_forward_stops_only_at_non_finite_states(self):
        # |q|^2 overflows but every state is finite: the trajectory runs on,
        # unlike the orbit's weigh, which counts such a state as divergent
        flat = Target(dim=1, potential=lambda q: 0.0, gradient=lambda q: np.zeros(1), name="flat")
        x0 = PhasePoint(np.array([1e160]), np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_t, n_grad = leapfrog_forward(flat, LeapfrogParams(0.5, I1), x0, 4)
        assert n_grad == 5 and np.all(np.isfinite(x_t.q))

    def test_forward_runs_through_an_overflowing_norm(self):
        # from q0 = (1e200, 0) every |q|^2 + |p|^2 overflows while each entry
        # stays finite: three steps, four gradients
        x0 = PhasePoint(np.array([1e200, 0.0]), np.array([0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_t, n_grad = leapfrog_forward(STD2, LeapfrogParams(0.5, I2), x0, 3)
        assert n_grad == 4 and np.all(np.isfinite(x_t.q)) and np.all(np.isfinite(x_t.p))


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


class _CountingProduct:
    """``q -> Sigma q``, counting its calls."""

    def __init__(self, sigma):
        self.sigma = sigma
        self.products = 0

    def __call__(self, q):
        self.products += 1
        return self.sigma @ q


class TestSharedSigmaProduct:
    @pytest.mark.parametrize("step", [nuts_step_iterative, nuts_step_recursive])
    def test_one_product_per_gradient(self, step):
        # each orbit state's potential reuses the product its gradient made
        d = 20
        product = _CountingProduct(_spd(np.random.default_rng(3), d))
        sigma_q, half_quad = _shared_sigma_product(product)
        target = Target(dim=d, potential=half_quad, gradient=sigma_q, name="gaussian")
        cfg = KernelConfig("nuts_iterative", h=0.3, mass=MassMatrix.identity(d), k_m=6)
        rng = np.random.default_rng(8)
        q = np.zeros(d)
        for _ in range(30):
            before = product.products
            q, info = step(target, cfg, q, rng)
            assert info.n_grad > 1
            assert product.products - before == info.n_grad


    def test_hmc_one_product_per_gradient_rejections_included(self):
        # the gradient at x0 comes first, so weighing x0 reuses its product
        # even when the last gradient was taken at a rejected proposal
        d = 20
        product = _CountingProduct(_spd(np.random.default_rng(3), d))
        sigma_q, half_quad = _shared_sigma_product(product)
        target = Target(dim=d, potential=half_quad, gradient=sigma_q, name="gaussian")
        cfg = KernelConfig("hmc", h=0.6, mass=MassMatrix.identity(d), t=8)
        rng = np.random.default_rng(8)
        q = np.zeros(d)
        rejected = 0
        for _ in range(60):
            before = product.products
            q, info = hmc_step(target, cfg, q, rng)
            assert product.products - before == info.n_grad
            rejected += not info.accepted
        assert 0 < rejected < 60


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

    @pytest.mark.parametrize("kind,h,k_m,q,p", [
        ("standard_gaussian", 0.15, 8, (1.0, -0.5), (0.3, 0.8)),  # 32 intervals of 32
        ("standard_gaussian", 0.15, 8, (1.5, 0.2), (0.1, -0.9)),  # of 16 and of 32
        ("standard_gaussian", 1.8, 6, (0.896, -2.217), (1.567, -0.096)),
        ("double_well", 0.25, 6, (5.0,), (0.0,)),  # divergent from |j| = 10 on
    ])
    def test_entries_equal_each_intervals_own_tree_bit_for_bit(self, kind, h, k_m, q, p):
        # the intervals share one batch of trees, padded with leaves of weight
        # zero to the widest; each keeps the bits of the rows of its own tree
        target = builtin_target(kind, len(q))
        cfg = KernelConfig("nuts_iterative", h=h, mass=MassMatrix.identity(len(q)), k_m=k_m)
        x0 = PhasePoint(np.array(q), np.array(p))
        cache = OrbitCache(target, cfg.params, x0)
        off = (1 << k_m) - 1
        probs = np.zeros(2 * off + 1)
        for (lo, hi), frac in orbit_select_pmf(cache, k_m):
            row = WeightTree(cache.logw_range(lo, hi)).qhat_row_log(-lo)
            probs[lo + off:hi + off + 1] += float(frac) * np.exp(row)
        want = [(j - off, probs[j]) for j in np.flatnonzero(probs).tolist()]
        assert [(j, pr) for j, pr, _ in nuts_exact_pmf(target, cfg, x0).entries] == want

    def test_budget_guard(self):
        cfg = KernelConfig("nuts_iterative", h=1.0, mass=I1, k_m=9)
        with pytest.raises(ValueError):
            nuts_exact_pmf(STD1, cfg, PhasePoint(np.zeros(1), np.ones(1)))


def _sample_at(transition, cfg, x0, seed, n, **kw):
    """Counts of ``j_f`` and of ``i_f`` over ``n`` transitions from ``x0`` on STD1."""
    rng = np.random.default_rng(seed)
    j_counts: dict[int, int] = {}
    iv_counts: dict[tuple[int, int], int] = {}
    for _ in range(n):
        _, info = transition(STD1, cfg, x0, rng, **kw)
        j_counts[info.j_f] = j_counts.get(info.j_f, 0) + 1
        iv_counts[info.i_f] = iv_counts.get(info.i_f, 0) + 1
    return j_counts, iv_counts


def _sample_rows_at(cfg, x0, seed, n, **kw):
    """:func:`_sample_at` for iterative NUTS: the ``n`` transitions are the
    rows of one rows sampler call on ``x0`` tiled ``n`` times."""
    tiled = PhasePoint(np.tile(x0.q, (n, 1)), np.tile(x0.p, (n, 1)))
    _, rows = nuts_transition_iterative_rows(STD1, cfg, tiled, np.random.default_rng(seed), **kw)
    js, j_n = np.unique(rows.j_f, return_counts=True)
    ivs, iv_n = np.unique(rows.i_f, axis=0, return_counts=True)
    return (dict(zip(js.tolist(), j_n.tolist())),
            dict(zip(map(tuple, ivs.tolist()), iv_n.tolist())))


def _interval_pmf(cfg, x0):
    """The exact law of the selected interval, keyed like ``TransitionInfo.i_f``."""
    cache = OrbitCache(STD1, cfg.params, x0)
    return {iv: float(fr) for iv, fr in orbit_select_pmf(cache, cfg.k_m)}


class TestSamplersAgainstPmf:
    # both the index and the interval each transition selects are checked
    # against their exact laws, on the same transitions
    X0 = PhasePoint(np.array([1.4]), np.array([-0.6]))
    N = 20000

    @pytest.mark.parametrize("k_m", [1, 2, 3])
    def test_iterative_matches_exact_pmf(self, k_m):
        cfg = KernelConfig("nuts_iterative", h=1.1, mass=I1, k_m=k_m)
        j_counts, iv_counts = _sample_rows_at(cfg, self.X0, k_m, self.N)
        assert chi2_gof(j_counts, nuts_exact_pmf(STD1, cfg, self.X0).probs_dict(), self.N) >= 1e-3
        assert chi2_gof(iv_counts, _interval_pmf(cfg, self.X0), self.N) >= 1e-3

    @pytest.mark.parametrize("k_m", [1, 2, 3])
    def test_recursive_matches_exact_pmf(self, k_m):
        cfg = KernelConfig("nuts_recursive", h=1.1, mass=I1, k_m=k_m)
        j_counts, iv_counts = _sample_at(
            nuts_transition_recursive, cfg, self.X0, 100 + k_m, self.N
        )
        assert chi2_gof(j_counts, nuts_exact_pmf(STD1, cfg, self.X0).probs_dict(), self.N) >= 1e-3
        assert chi2_gof(iv_counts, _interval_pmf(cfg, self.X0), self.N) >= 1e-3

    def test_mutated_kernel_fails_gof(self):
        # negative control: removing the swap coin must break the law
        # (anchor chosen so some swap ratio is genuinely below 1)
        cfg = KernelConfig("nuts_iterative", h=1.1, mass=I1, k_m=3)
        x0 = PhasePoint(np.array([0.5]), np.array([-1.5]))
        pmf = nuts_exact_pmf(STD1, cfg, x0).probs_dict()
        counts, _ = _sample_rows_at(cfg, x0, 11, self.N, mutate="always-swap")
        assert chi2_gof(counts, pmf, self.N) < 1e-3


DW1 = builtin_target("double_well", 1)


@st.composite
def _law_cases(draw):
    """``(target, cfg, x0)``: a perturbed Gaussian with d <= 3 and a dense
    mass, or the double well near the edge where its orbits overflow (about
    two in three of these anchors reach a divergent state within 15 steps;
    the orbit from (5, 0) at h = 0.25 does so at its tenth)."""
    k_m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        g = np.random.default_rng(draw(st.integers(0, 1 << 16)))
        mass = MassMatrix.dense(_spd(g, d))
        target = builtin_target("perturbed_gaussian", d, sigma=_spd(g, d), a5=0.5)
        h = draw(st.floats(0.2, 1.2))
        coords = st.lists(st.floats(-2.5, 2.5), min_size=d, max_size=d)
        q = np.array(draw(coords))
        p = mass.chol_mul(np.array(draw(coords)))
    else:
        target, mass = DW1, I1
        h = draw(st.floats(0.2, 0.3))
        q = np.array([draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(4.0, 6.0))])
        p = np.array([draw(st.floats(-8.0, 8.0))])
    cfg = KernelConfig("nuts_iterative", h=h, mass=mass, k_m=k_m)
    return target, cfg, PhasePoint(q, p)


class TestSamplersAgainstPmfProperty:
    """Both production samplers' ``j_f`` counts match ``nuts_exact_pmf`` on
    drawn targets, anchors, step sizes and depths.  The examples and the
    sampler seeds are fixed, so the outcome is too; the χ² level 1e-3 is
    shared by all examples and both samplers (Bonferroni)."""

    EXAMPLES = 20
    N = 2000

    @given(_law_cases())
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_both_samplers_match_exact_pmf(self, case):
        target, cfg, x0 = case
        pmf = nuts_exact_pmf(target, cfg, x0).probs_dict()
        level = 1e-3 / (2 * self.EXAMPLES)
        for seed, transition in enumerate((nuts_transition_iterative, nuts_transition_recursive)):
            rng = np.random.default_rng(seed)
            counts: dict[int, int] = {}
            for _ in range(self.N):
                _, info = transition(target, cfg, x0, rng)
                counts[info.j_f] = counts.get(info.j_f, 0) + 1
            p_value = chi2_gof(counts, pmf, self.N)
            assert p_value >= level, transition.__name__


class TestFlatTarget:
    def test_both_samplers_reach_full_depth(self):
        # a flat target's orbit is a straight line: no U-turn ever stops it
        t = flat_target(1)
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I1, k_m=3)
        x0 = PhasePoint(np.zeros(1), np.ones(1))
        rng = np.random.default_rng(2)
        for transition in (nuts_transition_iterative, nuts_transition_recursive):
            for _ in range(20):
                _, info = transition(t, cfg, x0, rng)
                assert info.k_f == cfg.k_m == 3
                assert info.i_f[1] - info.i_f[0] + 1 == 8


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

    def test_accept_decision_is_metropolis(self):
        # hmc_step accepts iff u < min(1, exp(H(x0) - H(x_T))), with the
        # momentum and u replayed from a copy of its generator
        cfg = KernelConfig("hmc", h=0.7, mass=I1, t=5)
        anchors = np.random.default_rng(3).standard_normal(100) * 2
        n_acc = 0
        for seed, q0 in enumerate(anchors):
            q0 = np.array([q0])
            q1, info = hmc_step(STD1, cfg, q0, np.random.default_rng(seed))
            replay = np.random.default_rng(seed)
            x0 = PhasePoint(q0, momentum_refresh(cfg.mass, replay))
            x_t = leapfrog_iter(STD1, cfg.params, x0, cfg.t)
            d_h = hamiltonian(STD1, cfg.mass, x0) - hamiltonian(STD1, cfg.mass, x_t)
            expect = bool(replay.random() < min(1.0, math.exp(d_h)))
            assert info.accepted is expect
            assert np.array_equal(q1, x_t.q if expect else q0)
            n_acc += expect
        assert 0 < n_acc < 100  # both branches are exercised

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

    @pytest.mark.parametrize("kind", ["hmc", "rhmc"])
    def test_list_input_returns_float_array_on_both_branches(self, kind):
        # a rejection returns the start as the array it was read into, not
        # the caller's own list of ints
        step = hmc_step if kind == "hmc" else rhmc_step
        cfg = KernelConfig(kind, h=1.2, mass=I2, t=3, weights=np.array([0.0, 0.5, 0.5]))
        rng = np.random.default_rng(6)
        seen = set()
        for _ in range(40):
            q1, info = step(STD2, cfg, [3, -2], rng)
            assert type(q1) is np.ndarray and q1.dtype == np.float64
            if not info.accepted:
                assert q1.tolist() == [3.0, -2.0]
            seen.add(info.accepted)
        assert seen == {True, False}

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
