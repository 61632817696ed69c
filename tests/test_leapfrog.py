import math
import warnings

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
from dynhmc.targets import MassMatrix, PhasePoint, Target, builtin_target, flip, gradient_rows


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
                target.gradient, mass.inv_mul, (-h, 0.5 * -h), x.q, x.p, (0.5 * -h) * grad
            )
            q_f, p_f, kick_f = leapfrog_step_with_grad(
                target.gradient, mass.inv_mul, (h, 0.5 * h), x.q, -x.p, (0.5 * h) * grad
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
            q, p, kick = leapfrog_step_with_grad(target.gradient, mass.inv_mul, (h, 0.5 * h), q, p, kick)
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
                q, p, kick = leapfrog_step_with_grad(target.gradient, mass.inv_mul, (h, 0.5 * h), q, p, kick)
                if not (np.isfinite(q).all() and np.isfinite(p).all()):
                    break
        assert x_t.q.tobytes() == q.tobytes() and x_t.p.tobytes() == p.tobytes()
        assert n_grad == s + 1
        if kind == "double_well" and t > 1:
            assert n_grad < t + 1  # the trajectory stopped early


def _entrywise_forward(target, mass, h, q, p, t):
    """``leapfrog_forward`` with its probe replaced by the entrywise test."""
    with np.errstate(over="ignore", invalid="ignore"):
        kick = (0.5 * h) * target.gradient(q)
        for s in range(1, t + 1):
            q, p, kick = leapfrog_step_with_grad(target.gradient, mass.inv_mul, (h, 0.5 * h), q, p, kick)
            if not (np.isfinite(q).all() and np.isfinite(p).all()):
                break
    return q, p, s + 1


# a target whose gradient is 0 up to q[0] = 1.5 and g past it, finite or not
def _gradient_past(g):
    g = np.array(g)
    zero = np.zeros_like(g)
    return Target(dim=g.size, potential=lambda q: 0.0,
                  gradient=lambda q: g if q[0] > 1.5 else zero, name="ramp")


class TestFiniteProbe:
    """The step loop probes ``q . p``: every case stops where a loop that
    tests each entry with ``np.isfinite`` stops, with the same bytes."""

    @pytest.mark.parametrize(
        "g,h,q0,p0,stop",
        [
            # an inf in q where p is 0: q . p is inf * 0, nan
            ([0.0, 0.0], 0.5, [math.inf, 1.0], [0.0, 1.0], 1),
            # the kick at q1 = (2, 0) puts a lone inf in p, q finite: q . p is -inf
            ([math.inf, 0.0], 1.0, [1.0, 0.0], [1.0, 0.0], 1),
            # ... and where q is 0: q . p is 2 + 0 * -inf, nan
            ([0.0, math.inf], 1.0, [1.0, 0.0], [1.0, 0.0], 1),
            # a nan in q
            ([0.0, 0.0], 0.5, [math.nan, 1.0], [1.0, 1.0], 1),
            # finite kicks of 1e308 whose sum overflows at the second step
            ([1e308, 1e308], 2.0, [2.0, 0.0], [1e308, 1e308], 2),
            # finite entries whose q . p overflows to inf, or to inf - inf = nan:
            # the exact check finds them finite and the trajectory runs on
            ([0.0, 0.0], 0.5, [1e200, 0.0], [1e200, 1.0], None),
            ([0.0, 0.0], 0.5, [1e200, -1e200], [1e200, 1e200], None),
        ],
        ids=["inf_q_zero_p", "inf_p", "inf_p_zero_q", "nan_q", "kick_overflows",
             "dot_overflows", "dot_overflows_to_nan"],
    )
    @pytest.mark.parametrize("t", [1, 4])
    def test_stops_where_entrywise_check_stops(self, g, h, q0, p0, stop, t):
        target = _gradient_past(g)
        mass = MassMatrix.identity(len(q0))
        q, p = np.array(q0), np.array(p0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_t, n_grad = leapfrog_forward(target, LeapfrogParams(h, mass), PhasePoint(q, p), t)
        q_ref, p_ref, n_ref = _entrywise_forward(target, mass, h, q, p, t)
        assert n_grad == n_ref == min(t, stop or t) + 1
        assert x_t.q.tobytes() == q_ref.tobytes() and x_t.p.tobytes() == p_ref.tobytes()
        if stop is not None and stop <= t:
            assert not (np.isfinite(x_t.q).all() and np.isfinite(x_t.p).all())


class TestStepConstants:
    """The step constants of :class:`LeapfrogParams` are 0-d arrays whose
    products round as the Python floats ``h`` and ``0.5 * h`` do."""

    def test_constants(self):
        params = LeapfrogParams(0.37, I1)
        for forward, h in ((True, 0.37), (False, -0.37)):
            step = params.steps[forward]
            for value, want in zip(step, (h, 0.5 * h)):
                assert value.shape == () and value.dtype == np.float64
                assert not value.flags.writeable and float(value) == want

    @staticmethod
    def _float_step(gradient, inv_mul, h, q, p, kick):
        # the step written out with the Python float h
        p_half = p - kick
        q1 = q + h * inv_mul(p_half)
        kick1 = (0.5 * h) * gradient(q1)
        return q1, p_half - kick1, kick1

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("state", ["finite", "overflowing", "nan"])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("d", [1, 2, 100])
    def test_step_equals_float_step(self, d, rows, state, forward):
        rng = np.random.default_rng(d)
        target = builtin_target("perturbed_gaussian", d, a5=0.4)
        mass = MassMatrix.diagonal(rng.uniform(0.5, 2.0, d))
        params = LeapfrogParams(0.37, mass)
        h = 0.37 if forward else -0.37
        shape = (d,) if rows is None else (rows, d)
        if rows is None:
            gradient = target.gradient
        else:
            def gradient(q):
                return gradient_rows(target, q)
        q, p = rng.standard_normal(shape), rng.standard_normal(shape)
        if state == "overflowing":
            q[..., 0], p[..., 0] = 1.7e308, math.copysign(1e308, h)  # the drift overflows
        elif state == "nan":
            q[..., -1] = math.nan
        step = params.steps[forward]
        with np.errstate(over="ignore", invalid="ignore"):
            kick = step.half * gradient(q)
            assert kick.tobytes() == ((0.5 * h) * gradient(q)).tobytes()
            got_q, got_p, got_k = q, p, kick
            ref_q, ref_p, ref_k = q, p, kick
            for _ in range(3):
                got_q, got_p, got_k = leapfrog_step_with_grad(
                    gradient, mass.inv_mul, step, got_q, got_p, got_k)
                ref_q, ref_p, ref_k = self._float_step(
                    gradient, mass.inv_mul, h, ref_q, ref_p, ref_k)
                assert got_q.tobytes() == ref_q.tobytes()
                assert got_p.tobytes() == ref_p.tobytes()
                assert got_k.tobytes() == ref_k.tobytes()
        assert np.isfinite(got_q).all() == (state == "finite")


class TestStepLeavesItsArguments:
    """The step writes only into arrays it made: the bytes of the ``q``, ``p``
    and ``kick`` it is given stay as they were, and it returns none of them."""

    MASSES = {
        "identity": MassMatrix.identity(3),
        "diagonal": MassMatrix.diagonal(np.array([0.5, 2.0, 4.0])),
        "dense": MassMatrix.dense(np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.1], [0.0, 0.1, 0.7]])),
    }

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("kind", ["standard_gaussian", "perturbed_gaussian"])
    @pytest.mark.parametrize("rows", [None, 4])
    @pytest.mark.parametrize("mass_kind", list(MASSES))
    def test_arguments_keep_their_bytes(self, mass_kind, rows, kind, forward):
        mass, target = self.MASSES[mass_kind], builtin_target(kind, 3)
        step = LeapfrogParams(0.3, mass).steps[forward]
        if rows is None:
            gradient = target.gradient
        else:
            def gradient(q):
                return gradient_rows(target, q)
        rng = np.random.default_rng(rows or 1)
        shape = (3,) if rows is None else (rows, 3)
        q, p = rng.standard_normal(shape), rng.standard_normal(shape)
        kick = step.half * gradient(q)
        before = [a.tobytes() for a in (q, p, kick)]
        for _ in range(3):
            out = leapfrog_step_with_grad(gradient, mass.inv_mul, step, q, p, kick)
            assert [a.tobytes() for a in (q, p, kick)] == before
            assert not any(np.shares_memory(a, b) for a in out for b in (q, p, kick))
            q, p, kick = out
            before = [a.tobytes() for a in out]


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

    # a precision whose eigenvectors the masses do not share: in the Euclidean
    # norm the iteration exceeded the rate by up to 6.4e-3 under the diagonal
    # mass and 4.0e-4 under the dense one
    SIGMA3 = np.array([[2.0, 0.8, 0.5], [0.8, 1.5, 0.7], [0.5, 0.7, 1.0]])
    MASSES3 = {
        "diagonal": MassMatrix.diagonal(np.array([0.3, 1.0, 4.0])),
        "dense": MassMatrix.dense(np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.4],
                                            [-0.2, 0.4, 0.7]])),
    }

    @pytest.mark.parametrize("mass", ["diagonal", "dense"])
    @pytest.mark.parametrize("kind", ["gaussian", "perturbed_gaussian"])
    @pytest.mark.parametrize("frac", [0.5, 0.9])
    def test_rate_holds_in_the_mass_norm(self, mass, kind, frac):
        # L1 bounds M^{-1} grad U in the M-norm, where the rate bounds each
        # update's ratio to the last
        mass = self.MASSES3[mass]
        t = builtin_target(kind, 3, sigma=self.SIGMA3, mass=mass)
        for steps in (4, 8):
            h = frac * math.sqrt(2.0 * (1.0 - math.cos(math.pi / steps)) / t.lipschitz_l1)
            rate = math.cos(math.pi / steps) + 0.5 * t.lipschitz_l1 * h * h
            for seed in range(3):
                rng = np.random.default_rng(seed)
                q0, qt = rng.standard_normal(3), rng.standard_normal(3)
                sol = trajectory_solve(t, LeapfrogParams(h, mass), q0, qt, steps)
                assert sol.contraction_observed <= rate + 1e-6, (steps, seed)
                assert sol.roundtrip_error <= 1e-9

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
