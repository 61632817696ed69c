import math

import numpy as np
import pytest

from dynhmc.kernels import KernelConfig, nuts_step_recursive
from dynhmc.targets import MassMatrix, PhasePoint, builtin_target, momentum_refresh
from dynhmc.verify import (
    batch_means_se,
    check_accessibility,
    check_detailed_balance,
    check_ph_symmetry,
    chi2_gof,
    drift_estimate,
    ergodicity_run,
    trajectory_uniqueness_margin,
    doubling_stability_value,
    tail_step_bound,
    random_weight_trees,
    statistical_invariance,
    stationarity_polar_exact,
    stationarity_quadrature,
    stepsize_conditions,
    tail_conditions,
    tail_contraction,
    uturn_degeneracy_scan,
)
from dynhmc.verify import _precision_of

STD1 = builtin_target("standard_gaussian", 1)
STD2 = builtin_target("standard_gaussian", 2)
I1 = MassMatrix.identity(1)
I2 = MassMatrix.identity(2)


def anchors(dim, mass, n, seed):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(1.5 * rng.standard_normal(dim), momentum_refresh(mass, rng))
        for _ in range(n)
    ]


class TestSymmetryCheck:
    def test_passes_on_gaussians(self):
        for dim, mass in ((1, I1), (2, I2)):
            target = builtin_target("standard_gaussian", dim)
            cfg = KernelConfig("nuts_iterative", h=1.0, mass=mass, k_m=2)
            rep = check_ph_symmetry(target, cfg, anchors(dim, mass, 4, dim), seed=dim)
            assert rep.passed and rep.violation == 0.0

    def test_budget_guard(self):
        cfg = KernelConfig("nuts_iterative", h=1.0, mass=I1, k_m=5)
        with pytest.raises(ValueError):
            check_ph_symmetry(STD1, cfg, anchors(1, I1, 1, 0))


class TestDetailedBalanceCheck:
    def test_passes(self):
        cfg = KernelConfig("nuts_iterative", h=0.6, mass=I2, k_m=4)
        rep = check_detailed_balance(STD2, cfg, anchors(2, I2, 10, 5))
        assert rep.passed
        assert rep.violation <= 1e-10


class TestAccessibilityCheck:
    def test_random_trees_pass(self):
        rng = np.random.default_rng(0)
        rep = check_accessibility(random_weight_trees(50, 5, rng))
        assert rep.passed
        assert rep.config["distinct_weight_trees"] > 0

    def test_tied_weights_still_one_or_two_step(self):
        from dynhmc.index_select import WeightTree

        rep = check_accessibility([WeightTree(np.zeros(8))])
        assert rep.passed
        assert rep.config["distinct_weight_trees"] == 0


class TestStationarity:
    def test_polar_oracle_hits_tolerance(self):
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I1, k_m=2)
        rep = stationarity_polar_exact(STD1, cfg, n_scan=4096, radial_panels=40)
        assert rep.passed
        assert rep.details[0]["err_var_rel"] <= 1e-7
        # the ray search over the 42 turn functionals of the 21 index pairs
        # in [-3, 3] finds 26 rays, which cut the circle into 26 panels of
        # 12 angular nodes
        assert rep.config["n_discontinuity_rays"] == 26
        assert rep.config["angular_nodes"] == 312

    def test_tensor_gh_is_jump_limited(self):
        # the plain Gauss-Hermite rule cannot resolve the stopping-rule
        # discontinuities: its error is orders of magnitude above the
        # polar oracle's, and that is a property of the rule, not a bug
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I1, k_m=3)
        rep = stationarity_quadrature(STD1, cfg, n_q=64)
        assert abs(rep.details[0]["err_mean"]) <= 1e-8  # exact by grid symmetry
        assert 1e-4 <= rep.details[0]["err_var_rel"] <= 1e-1

    def test_smooth_case_is_spectral(self):
        # with K_m = 1 no stopping ever happens, so tensor GH is exact-ish
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I1, k_m=1)
        rep = stationarity_quadrature(STD1, cfg, n_q=64)
        assert rep.passed

    def test_perturbed_target_reference_moments(self):
        t = builtin_target("perturbed_gaussian", 1, a5=0.3)
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I1, k_m=1)
        rep = stationarity_quadrature(t, cfg, n_q=64, tol_rel=1e-5)
        assert rep.passed  # K_m = 1: no stopping discontinuities
        # independent sanity: reference var below the standard Gaussian's
        assert rep.details[0]["ref_var"] < 1.0

    def test_rejects_multidim(self):
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I2, k_m=2)
        with pytest.raises(ValueError):
            stationarity_quadrature(STD2, cfg)


class TestStatisticalInvariance:
    def test_passes_small(self):
        cfg = KernelConfig("nuts_iterative", h=0.4, mass=I2, k_m=4)
        rep = statistical_invariance(STD2, cfg, n=4000, seed=1)
        assert rep.passed and not rep.underpowered

    def test_negative_control_fails(self):
        # larger step: orbit weights spread out, so the missing swap coin
        # biases the selection detectably even at moderate sample sizes
        cfg = KernelConfig("nuts_iterative", h=1.2, mass=I2, k_m=3)
        rep = statistical_invariance(STD2, cfg, n=4000, seed=1, mutate="always-swap")
        assert not rep.passed
        clean = statistical_invariance(STD2, cfg, n=4000, seed=1)
        assert clean.passed

    @pytest.mark.parametrize(
        "kind,extra",
        [("nuts_recursive", {"k_m": 4}), ("hmc", {"t": 3}),
         ("rhmc", {"weights": np.array([0.5, 0.5])})],
    )
    def test_runs_the_kind_cfg_names(self, kind, extra):
        cfg = KernelConfig(kind, h=0.4, mass=I2, **extra)
        assert statistical_invariance(STD2, cfg, n=2000, seed=1).passed
        if kind != "nuts_recursive":
            with pytest.raises(ValueError, match="mutation"):
                statistical_invariance(STD2, cfg, n=2000, seed=1, mutate="always-swap")

    def test_underpowered_guard(self):
        cfg = KernelConfig("nuts_iterative", h=0.4, mass=I2, k_m=4)
        rep = statistical_invariance(STD2, cfg, n=100, seed=1)
        assert rep.underpowered and rep.passed


class TestDrift:
    def test_far_radius_contracts(self):
        cfg = KernelConfig("nuts_iterative", h=0.2, mass=I2, k_m=4)
        est = drift_estimate(STD2, cfg, a=1.0, radius=20.0, n=800, seed=0)
        assert est.ci_high < 1.0

    def test_runs_the_kind_cfg_names(self):
        cfg = KernelConfig("nuts_recursive", h=0.2, mass=I2, k_m=3)
        est = drift_estimate(STD2, cfg, a=1.0, radius=5.0, n=50, seed=0)
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(2)
        q = 5.0 * (direction / np.linalg.norm(direction))
        ratios = [
            math.exp(float(np.linalg.norm(nuts_step_recursive(STD2, cfg, q, rng)[0])) - 5.0)
            for _ in range(50)
        ]
        assert est.ratio == float(np.mean(ratios))

    def test_zero_exponent_ratio_is_one(self):
        cfg = KernelConfig("nuts_iterative", h=0.2, mass=I2, k_m=3)
        est = drift_estimate(STD2, cfg, a=0.0, radius=5.0, n=100, seed=0)
        assert est.ratio == 1.0 and est.se == 0.0

    def test_radius_zero_unconstrained(self):
        cfg = KernelConfig("nuts_iterative", h=0.2, mass=I2, k_m=3)
        est = drift_estimate(STD2, cfg, a=1.0, radius=0.0, n=200, seed=0)
        assert est.ratio > 1.0  # inside the small set, growth is allowed


class TestTailConditions:
    def test_gaussian_at_large_radius(self):
        s_bar = tail_step_bound(1.0, 1.0, 1.0)
        cfg = KernelConfig("nuts_iterative", h=s_bar, mass=I2, k_m=1)
        rep = tail_conditions(STD2, cfg, radius=1e3, gamma=2.0 / 3.0, n=30, seed=0)
        assert rep.passed
        assert rep.details[0]["flip_symmetry_exact"] is True
        assert rep.details[0]["scan_onset_radius"] is not None

    def test_detects_violation_at_small_radius(self):
        cfg = KernelConfig("nuts_iterative", h=0.1, mass=I2, k_m=1)
        rep = tail_conditions(STD2, cfg, radius=2.0, gamma=2.0 / 3.0, n=10, seed=0)
        assert not rep.passed


class TestStepsizeConditions:
    def test_doubling_stability_worked_pair(self):
        assert doubling_stability_value(1.0, 0.1, 1) == pytest.approx(0.2215775625, abs=1e-11)
        assert doubling_stability_value(1.0, 0.2, 1) == pytest.approx(0.493284, abs=1e-6)
        rep = stepsize_conditions(l1=1.0, h=0.1, k_m=1)
        assert rep["doubling_stability"]["pass"] is True
        assert stepsize_conditions(l1=1.0, h=0.2, k_m=1)["doubling_stability"]["pass"] is False

    def test_doubling_stability_overflow_is_inf(self):
        # (1 + x g(x))^(2^20) at x = 1e-3 exceeds the float range
        assert doubling_stability_value(1.0, 1e-3, 20) == math.inf
        assert stepsize_conditions(l1=1.0, h=1e-3, k_m=20)["doubling_stability"]["pass"] is False

    def test_uniqueness_margin_worked_pair(self):
        assert trajectory_uniqueness_margin(1.0, 1.0, 2) > 0
        assert trajectory_uniqueness_margin(1.0, 1.5, 2) < 0
        assert stepsize_conditions(l1=1.0, h=1.0, t=2)["trajectory_uniqueness"]["pass"] is True
        assert stepsize_conditions(l1=1.0, h=1.5, t=2)["trajectory_uniqueness"]["pass"] is False

    def test_tail_bound_bisection(self):
        s = tail_step_bound(1.0, 1.0, 1.0)
        assert tail_contraction(s, 1.0, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert tail_contraction(s * 0.99, 1.0, 1.0) < 1.0

    def test_infinite_a1_hits_cap(self):
        assert tail_step_bound(1.0, 1.0, math.inf) == 1e6

    def test_missing_constants_reported(self):
        rep = stepsize_conditions(l1=1.0, h=0.1)
        assert "missing" in rep["doubling_stability"]
        assert "missing" in rep["tail_step_bound"]
        assert "pass" not in rep["doubling_stability"]


class TestDegeneracyScan:
    def test_flat_potential_no_zeros(self):
        from dynhmc.targets import Target

        t = Target(dim=2, potential=lambda q: 0.0, gradient=lambda q: np.zeros(2))
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I2, k_m=2)
        rep = uturn_degeneracy_scan(t, cfg, np.array([0.3, -0.2]), n=100, seed=0)
        assert rep.passed
        assert rep.details[0]["exact_zero_fraction"] == 0.0

    def test_gaussian_generic_h_no_zeros(self):
        cfg = KernelConfig("nuts_iterative", h=0.7, mass=I2, k_m=2)
        rep = uturn_degeneracy_scan(STD2, cfg, np.array([1.0, 0.5]), n=200, seed=0)
        assert rep.passed
        assert rep.details[0]["near_zero_fraction"] <= 1e-3


class TestErgodicityRun:
    def test_gaussian_far_start(self):
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I2, k_m=5)
        rep = ergodicity_run(
            STD2,
            cfg,
            iters=6000,
            seed=0,
            q0=np.array([50.0, 0.0]),
            ref_mean=np.zeros(2),
            ref_second=np.ones(2),
        )
        assert rep.passed

    def test_double_well_visits_both_modes(self):
        dw = builtin_target("double_well", 1)
        cfg = KernelConfig("nuts_iterative", h=0.4, mass=I1, k_m=4)
        rep = ergodicity_run(dw, cfg, iters=4000, seed=0, q0=np.array([1.0]))
        visits = rep.details[-1]
        assert visits["visits_negative"] >= 100
        assert visits["visits_positive"] >= 100

    def test_zero_iterations_underpowered(self):
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=I2, k_m=4)
        rep = ergodicity_run(STD2, cfg, iters=0, seed=0)
        assert rep.underpowered and rep.passed


class TestHelpers:
    def test_batch_means_se_iid(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100_000)
        se = batch_means_se(x)
        assert se == pytest.approx(1.0 / math.sqrt(100_000), rel=0.3)

    def test_chi2_gof_rejects_wrong_law(self):
        probs = {0: 0.5, 1: 0.5}
        counts = {0: 9000, 1: 1000}
        assert chi2_gof(counts, probs, 10000) < 1e-10

    def test_chi2_gof_accepts_right_law(self):
        rng = np.random.default_rng(1)
        draws = rng.integers(0, 2, size=10000)
        counts = {0: int(np.sum(draws == 0)), 1: int(np.sum(draws == 1))}
        assert chi2_gof(counts, {0: 0.5, 1: 0.5}, 10000) >= 1e-3

    def test_chi2_gof_merges_rare_cells_into_the_mode(self):
        # 3 draws where 0.36 are expected is a Poisson tail of about 6e-3;
        # pooled as a cell of its own it read p = 1e-5
        probs = {0: 1.0 - 1.8e-4, 2: 1.8e-4}
        assert chi2_gof({0: 1997, 2: 3}, probs, 2000) >= 1e-3
        # merged cells still weigh against the other large cells
        probs = {0: 0.5, 1: 0.4999, 2: 1e-4}
        assert chi2_gof({0: 9000, 1: 1000}, probs, 10000) < 1e-10

    def test_chi2_gof_out_of_support(self):
        assert chi2_gof({0: 10, 5: 1}, {0: 1.0}, 11) == 0.0

    def test_checks_deterministic_given_seed(self):
        cfg = KernelConfig("nuts_iterative", h=0.6, mass=I2, k_m=3)
        a = statistical_invariance(STD2, cfg, n=1500, seed=42)
        b = statistical_invariance(STD2, cfg, n=1500, seed=42)
        assert a.violation == b.violation and a.details == b.details

    def test_report_serializes(self):
        cfg = KernelConfig("nuts_iterative", h=1.0, mass=I1, k_m=2)
        rep = check_ph_symmetry(STD1, cfg, anchors(1, I1, 1, 0), seed=0)
        d = rep.to_dict()
        assert set(d) >= {"check", "pass", "tolerance", "violation", "config", "seed", "details"}


class TestPrecisionOf:
    def test_recovers_dense_sigma_exactly(self):
        a = np.random.default_rng(4).standard_normal((6, 6))
        sigma = a @ a.T / 6 + np.eye(6)
        target = builtin_target("gaussian", 6, sigma=sigma)
        assert np.array_equal(_precision_of(target, 6), sigma)
