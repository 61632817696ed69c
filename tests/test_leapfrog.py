import math

import numpy as np
import pytest

from dynhmc.leapfrog import (
    ContractionViolated,
    LeapfrogParams,
    NoConvergence,
    gaussian_maps,
    leapfrog_forward,
    leapfrog_iter,
    leapfrog_step_with_grad,
    trajectory_solve,
    tridiag_a,
)
from dynhmc.targets import MassMatrix, PhasePoint, Target, builtin_target, flip


def flat_target(dim):
    return Target(dim=dim, potential=lambda q: 0.0, gradient=lambda q: np.zeros(dim), name="flat")


STD1 = builtin_target("standard_gaussian", 1)
I1 = MassMatrix.identity(1)


class TestLeapfrogStep:
    def test_hand_example(self):
        params = LeapfrogParams(0.1, I1)
        x1 = leapfrog_iter(STD1, params, PhasePoint(np.array([1.0]), np.array([0.0])), 1)
        assert x1.q[0] == pytest.approx(0.995, abs=0)
        assert x1.p[0] == pytest.approx(-0.09975, abs=0)

    def test_flat_potential_pure_drift(self):
        t = flat_target(2)
        mass = MassMatrix.diagonal(np.array([2.0, 0.5]))
        params = LeapfrogParams(0.7, mass)
        q, p = np.array([1.0, -1.0]), np.array([0.4, 0.8])
        x1 = leapfrog_iter(t, params, PhasePoint(q, p), 1)
        assert np.allclose(x1.q, q + 0.7 * mass.inv_mul(p), atol=0)
        assert np.array_equal(x1.p, p)

    def test_flip_step_flip_step_is_identity(self):
        params = LeapfrogParams(0.3, I1)
        x = PhasePoint(np.array([0.7]), np.array([-1.2]))
        y = leapfrog_iter(STD1, params, flip(leapfrog_iter(STD1, params, flip(x), 1)), 1)
        assert np.linalg.norm(y.q - x.q) <= 1e-12
        assert np.linalg.norm(y.p - x.p) <= 1e-12


    @pytest.mark.parametrize("mass_kind", ["identity", "diagonal", "dense"])
    def test_backward_step_is_flip_step_flip_bit_for_bit(self, mass_kind):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        mass = {
            "identity": MassMatrix.identity(3),
            "diagonal": MassMatrix.diagonal(rng.uniform(0.5, 2.0, 3)),
            "dense": MassMatrix.dense(a @ a.T + np.eye(3)),
        }[mass_kind]
        target = builtin_target("perturbed_gaussian", 3, sigma=a.T @ a / 3 + np.eye(3))
        h = 0.37
        for _ in range(20):
            x = PhasePoint(rng.standard_normal(3), rng.standard_normal(3))
            grad = target.gradient(x.q)
            q_b, p_b, kick_b = leapfrog_step_with_grad(
                target.gradient, mass.inv_mul, -h, x.q, x.p, (0.5 * -h) * grad
            )
            q_f, p_f, kick_f = leapfrog_step_with_grad(
                target.gradient, mass.inv_mul, h, x.q, -x.p, (0.5 * h) * grad
            )
            assert np.array_equal(q_b, q_f) and np.array_equal(p_b, -p_f)
            assert np.array_equal(kick_b, -kick_f)

    @pytest.mark.parametrize("h", [0.37, -0.37])
    def test_returned_kick_is_half_step_times_gradient(self, h):
        rng = np.random.default_rng(7)
        target = builtin_target("perturbed_gaussian", 3, a5=0.4)
        mass = MassMatrix.diagonal(rng.uniform(0.5, 2.0, 3))
        q, p = rng.standard_normal(3), rng.standard_normal(3)
        kick = (0.5 * h) * target.gradient(q)
        for _ in range(10):
            q, p, kick = leapfrog_step_with_grad(target.gradient, mass.inv_mul, h, q, p, kick)
            assert kick.tobytes() == ((0.5 * h) * target.gradient(q)).tobytes()

    @pytest.mark.parametrize("t", [1, 5, 16])
    @pytest.mark.parametrize(
        "kind,h,q0,p0",
        [
            ("perturbed_gaussian", 0.3, [0.8, -1.1], [0.5, 0.2]),
            ("standard_gaussian", 0.9, [1.5, 0.1], [-0.3, 1.0]),
            ("double_well", 5.0, [10.0], [0.0]),  # non-finite after a few steps
        ],
    )
    def test_chained_steps_equal_leapfrog_forward(self, t, kind, h, q0, p0):
        target = builtin_target(kind, len(q0))
        mass = MassMatrix.identity(len(q0))
        q, p = np.array(q0), np.array(p0)
        with np.errstate(over="ignore", invalid="ignore"):
            x_t, n_grad = leapfrog_forward(target, LeapfrogParams(h, mass), PhasePoint(q, p), t)
            kick = (0.5 * h) * target.gradient(q)
            for s in range(1, t + 1):
                q, p, kick = leapfrog_step_with_grad(target.gradient, mass.inv_mul, h, q, p, kick)
                if not (np.isfinite(q).all() and np.isfinite(p).all()):
                    break
        assert x_t.q.tobytes() == q.tobytes() and x_t.p.tobytes() == p.tobytes()
        assert n_grad == s + 1
        if kind == "double_well" and t > 1:
            assert n_grad < t + 1  # the trajectory stopped early


class TestLeapfrogIter:
    def test_zero_is_identity_bit_for_bit(self):
        params = LeapfrogParams(0.5, I1)
        x = PhasePoint(np.array([1.0]), np.array([2.0]))
        y = leapfrog_iter(STD1, params, x, 0)
        assert y.q is x.q and y.p is x.p

    def test_inverse_of_forward_example(self):
        params = LeapfrogParams(0.1, I1)
        x = leapfrog_iter(STD1, params, PhasePoint(np.array([0.995]), np.array([-0.09975])), -1)
        assert abs(x.q[0] - 1.0) <= 1e-12
        assert abs(x.p[0]) <= 1e-12

    @pytest.mark.parametrize("j", [1, 2, 7, 32])
    def test_group_property(self, j):
        t = builtin_target("standard_gaussian", 3)
        mass = MassMatrix.identity(3)
        params = LeapfrogParams(0.2, mass)
        rng = np.random.default_rng(j)
        x = PhasePoint(rng.standard_normal(3), rng.standard_normal(3))
        y = leapfrog_iter(t, params, leapfrog_iter(t, params, x, j), -j)
        assert np.linalg.norm(y.q - x.q) <= 1e-10
        assert np.linalg.norm(y.p - x.p) <= 1e-10

    @pytest.mark.parametrize("j", [-32, -5, 3, 32])
    def test_reversibility(self, j):
        # flip . Phi^j . flip . Phi^j = identity
        params = LeapfrogParams(0.15, I1)
        rng = np.random.default_rng(abs(j))
        x = PhasePoint(rng.standard_normal(1), rng.standard_normal(1))
        y = flip(leapfrog_iter(STD1, params, flip(leapfrog_iter(STD1, params, x, j)), j))
        assert np.linalg.norm(y.q - x.q) <= 1e-10
        assert np.linalg.norm(y.p - x.p) <= 1e-10

    def test_divergence_flag_propagates(self):
        dw = builtin_target("double_well", 1)
        params = LeapfrogParams(5.0, I1)
        x = leapfrog_iter(dw, params, PhasePoint(np.array([10.0]), np.array([0.0])), 20)
        assert not np.all(np.isfinite(x.q)) or not np.all(np.isfinite(x.p))


class TestVolumePreservation:
    @pytest.mark.parametrize("dim,j", [(1, 3), (2, 5), (3, -8)])
    def test_jacobian_determinant_one(self, dim, j):
        t = builtin_target("perturbed_gaussian", dim, a5=0.4)
        mass = MassMatrix.identity(dim)
        params = LeapfrogParams(0.25, mass)
        rng = np.random.default_rng(dim * 10 + abs(j))
        x0 = np.concatenate([rng.standard_normal(dim), rng.standard_normal(dim)])
        eps = 1e-5

        def phi(z):
            x = leapfrog_iter(t, params, PhasePoint(z[:dim].copy(), z[dim:].copy()), j)
            return np.concatenate([x.q, x.p])

        jac = np.empty((2 * dim, 2 * dim))
        for i in range(2 * dim):
            e = np.zeros(2 * dim)
            e[i] = eps
            jac[:, i] = (phi(x0 + e) - phi(x0 - e)) / (2 * eps)
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-5


class TestGaussianMaps:
    def test_single_step_formula(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        mass = MassMatrix.diagonal(np.array([1.5, 0.5]))
        h = 0.3
        g = gaussian_maps(sigma, mass, h, 1)
        minv = mass.inv_matrix()
        assert np.allclose(g.a, np.eye(2) - 0.5 * h * h * minv @ sigma, atol=1e-14)
        assert np.allclose(g.b, h * minv, atol=1e-14)

    def test_two_steps_at_sqrt2_is_minus_identity(self):
        g = gaussian_maps(np.eye(1), I1, math.sqrt(2.0), 2)
        assert abs(g.a[0, 0] + 1.0) <= 1e-12
        assert abs(g.b[0, 0]) <= 1e-12
        assert abs(g.at[0, 0]) <= 1e-12
        assert abs(g.bt[0, 0] + 1.0) <= 1e-12

    def test_det_b_detects_degenerate_step(self):
        # at h^2 = 2(1 - cos(pi/T)) the position map loses injectivity in p0
        g_bad = gaussian_maps(np.eye(1), I1, math.sqrt(2.0), 2)
        g_ok = gaussian_maps(np.eye(1), I1, 1.0, 2)
        assert abs(g_bad.det_b) <= 1e-12
        assert abs(g_ok.det_b) > 0.5

    @pytest.mark.parametrize("t_steps", [1, 2, 8, 33, 64])
    def test_volume_preservation(self, t_steps):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = gaussian_maps(sigma, MassMatrix.identity(2), 0.35, t_steps)
        assert abs(g.det_full - 1.0) <= 1e-10

    @pytest.mark.parametrize("t_steps", [1, 5, 17, 64])
    def test_agreement_with_iterated_leapfrog(self, t_steps):
        sigma = np.array([[1.5, -0.2], [-0.2, 0.9]])
        target = builtin_target("gaussian", 2, sigma=sigma)
        mass = MassMatrix.diagonal(np.array([1.2, 0.7]))
        params = LeapfrogParams(0.2, mass)
        g = gaussian_maps(sigma, mass, 0.2, t_steps)
        rng = np.random.default_rng(t_steps)
        x = PhasePoint(rng.standard_normal(2), rng.standard_normal(2))
        direct = leapfrog_iter(target, params, x, t_steps)
        closed = g.apply(x)
        assert np.linalg.norm(direct.q - closed.q) <= 1e-10
        assert np.linalg.norm(direct.p - closed.p) <= 1e-10


class TestExpansionIdentity:
    def test_position_expansion(self):
        # q_T = q0 + T h p0 - T (h^2/2) grad U(q0) - h^2 sum_{i=1}^{T-1} (T-i) grad U(q_i)
        t = builtin_target("perturbed_gaussian", 2, a5=0.3)
        params = LeapfrogParams(0.2, MassMatrix.identity(2))
        rng = np.random.default_rng(4)
        x0 = PhasePoint(rng.standard_normal(2), rng.standard_normal(2))
        big_t = 9
        states = [x0]
        for _ in range(big_t):
            states.append(leapfrog_iter(t, params, states[-1], 1))
        h = params.h
        correction = sum(
            (big_t - i) * t.gradient(states[i].q) for i in range(1, big_t)
        )
        expect = (
            x0.q
            + big_t * h * x0.p
            - big_t * h * h / 2.0 * t.gradient(x0.q)
            - h * h * correction
        )
        assert np.linalg.norm(states[big_t].q - expect) <= 1e-8


class TestTridiag:
    def test_t2(self):
        mat, nrm = tridiag_a(2)
        assert mat.shape == (1, 1) and mat[0, 0] == 0.0 and nrm == 0.0

    @pytest.mark.parametrize("t_steps", [3, 4, 10, 64])
    def test_norm_matches_cos(self, t_steps):
        _, nrm = tridiag_a(t_steps)
        assert abs(nrm - math.cos(math.pi / t_steps)) <= 1e-10

    def test_requires_t_at_least_2(self):
        with pytest.raises(ValueError):
            tridiag_a(1)


class TestTrajectorySolve:
    def test_round_trip_oracle(self):
        params = LeapfrogParams(0.5, I1)
        sol = trajectory_solve(STD1, params, np.array([1.0]), np.array([-0.3]), 4)
        assert sol.roundtrip_error <= 1e-10
        assert sol.contraction_observed <= math.cos(math.pi / 4) + 0.5 * 0.25 + 1e-6

    def test_boundary_case_rejected(self):
        params = LeapfrogParams(math.sqrt(2.0), I1)
        with pytest.raises(ContractionViolated):
            trajectory_solve(STD1, params, np.array([1.0]), np.array([0.0]), 2)

    def test_flat_potential_exact_interpolant(self):
        t = flat_target(2)
        params = LeapfrogParams(0.4, MassMatrix.identity(2))
        q0, qt = np.array([0.0, 1.0]), np.array([4.0, -3.0])
        sol = trajectory_solve(t, params, q0, qt, 8, l1=0.0)
        lam = np.linspace(0, 1, 9)[:, None]
        assert np.allclose(sol.positions, (1 - lam) * q0 + lam * qt, atol=1e-14)
        assert sol.iterations == 1
        assert sol.roundtrip_error <= 1e-12

    def test_t_equal_one_direct(self):
        params = LeapfrogParams(0.3, I1)
        sol = trajectory_solve(STD1, params, np.array([0.5]), np.array([0.9]), 1)
        assert sol.roundtrip_error <= 1e-12
        # p0 = (q1 - q0)/h + (h/2) grad U(q0)
        assert sol.p0[0] == pytest.approx((0.9 - 0.5) / 0.3 + 0.15 * 0.5, abs=1e-14)

    def test_t_equal_one_with_mass(self):
        mass = MassMatrix.diagonal(np.array([2.5]))
        params = LeapfrogParams(0.3, mass)
        sol = trajectory_solve(STD1, params, np.array([0.5]), np.array([0.9]), 1)
        assert sol.roundtrip_error <= 1e-12

    def test_momenta_reconstruction_consistent(self):
        t = builtin_target("perturbed_gaussian", 2, a5=0.2)
        params = LeapfrogParams(0.3, MassMatrix.identity(2))
        rng = np.random.default_rng(6)
        q0, qt = rng.standard_normal(2), rng.standard_normal(2)
        sol = trajectory_solve(t, params, q0, qt, 6, l1=t.lipschitz_l1)
        x = PhasePoint(q0.copy(), sol.p0.copy())
        for i in range(1, 7):
            x = leapfrog_iter(t, params, x, 1)
            assert np.linalg.norm(x.q - sol.positions[i]) <= 1e-9
            assert np.linalg.norm(x.p - sol.momenta[i]) <= 1e-9

    def test_no_convergence_budget(self):
        params = LeapfrogParams(0.5, I1)
        with pytest.raises(NoConvergence):
            trajectory_solve(
                STD1, params, np.array([1.0]), np.array([-0.3]), 4, max_iter=1, tol=1e-14
            )

    def test_requires_contraction_info_or_assertion(self):
        # unknown L1: solver proceeds on the caller's responsibility
        t = flat_target(1)
        params = LeapfrogParams(0.2, I1)
        sol = trajectory_solve(t, params, np.array([0.0]), np.array([1.0]), 4)
        assert sol.roundtrip_error <= 1e-12
