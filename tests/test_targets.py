import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dynhmc.targets import (
    MassMatrix,
    PhasePoint,
    _logcosh,
    builtin_target,
    hamiltonian,
    momentum_refresh,
)

ALL_BUILTINS = [
    builtin_target("standard_gaussian", 3),
    builtin_target("gaussian", 2, sigma=np.array([[2.0, 0.3], [0.3, 1.0]])),
    builtin_target("perturbed_gaussian", 2, a5=0.5),
    builtin_target("double_well", 1),
]


def finite_difference_grad(target, q, eps=1e-6):
    d = q.size
    out = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = eps
        out[i] = (target.potential(q + e) - target.potential(q - e)) / (2 * eps)
    return out


@pytest.mark.parametrize("target", ALL_BUILTINS, ids=lambda t: t.name)
def test_gradient_matches_finite_differences(target):
    rng = np.random.default_rng(7)
    for _ in range(100):
        q = 3.0 * rng.standard_normal(target.dim)
        g = target.gradient(q)
        fd = finite_difference_grad(target, q)
        assert np.all(np.abs(fd - g) / (1.0 + np.abs(g)) <= 1e-6)


@pytest.mark.parametrize("target", ALL_BUILTINS, ids=lambda t: t.name)
def test_potential_finite(target):
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = 20.0 * rng.standard_normal(target.dim)
        assert math.isfinite(target.potential(q))


DIAG_MASS = MassMatrix.diagonal(np.array([0.1, 2.0]))
LIPSCHITZ_CASES = [(t, MassMatrix.identity(t.dim)) for t in ALL_BUILTINS] + [
    (builtin_target("perturbed_gaussian", 2, a5=0.5, mass=DIAG_MASS), DIAG_MASS)
]


def test_lipschitz_constant_statistical():
    # L1 bounds the slope of q -> M^{-1} grad U(q); the near pairs probe the
    # steepest slope, which the perturbed targets take at the origin
    for target, mass in LIPSCHITZ_CASES:
        if target.lipschitz_l1 is None:
            continue
        rng = np.random.default_rng(9)
        for _ in range(200):
            far = 5.0 * rng.standard_normal((2, target.dim))
            near = 0.01 * rng.standard_normal(target.dim)
            near = (near, near + 1e-4 * rng.standard_normal(target.dim))
            for q1, q2 in (far, near):
                lhs = np.linalg.norm(mass.inv_mul(target.gradient(q1) - target.gradient(q2)))
                assert lhs <= target.lipschitz_l1 * np.linalg.norm(q1 - q2) * (1 + 1e-12)


SIGMA3 = np.array([[2.0, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 0.6]])
MASSES3 = {"identity": MassMatrix.identity(3), "diagonal": MassMatrix.diagonal([0.3, 1.0, 4.0]),
           "dense": MassMatrix.dense([[1.5, -0.3, 0.1], [-0.3, 0.4, 0.0], [0.1, 0.0, 0.8]])}


@pytest.mark.parametrize("a5", [-1.5, -0.5, 0.5])
@pytest.mark.parametrize("mass_kind", sorted(MASSES3))
@pytest.mark.parametrize("kind", ["standard_gaussian", "gaussian", "perturbed_gaussian"])
def test_stated_lipschitz_constant_holds(kind, mass_kind, a5):
    # L1 bounds |M^{-1} (grad U(x) - grad U(y))| / |x - y| in the norm
    # |v|_M = sqrt(v' M v), where M^{-1} Sigma is self-adjoint, so that its
    # norm is its largest eigenvalue; the perturbation's curvature is
    # a5 sech^2 in [-|a5|, |a5|] whatever the sign of a5.  The pairs lie far
    # out, where the Hessian is Sigma, and about the origin, where it is
    # Sigma + a5 I
    mass = MASSES3[mass_kind]
    target = builtin_target(kind, 3, sigma=None if kind == "standard_gaussian" else SIGMA3,
                            a5=a5, mass=mass)
    rng = np.random.default_rng(11)
    x = rng.uniform(-6.0, 6.0, (2000, 3)) * rng.choice([1e-3, 1.0], (2000, 1))
    y = x + rng.standard_normal((2000, 3)) * rng.choice([1e-4, 0.1, 1.0, 5.0], (2000, 1))

    def m_norm(v):
        return math.sqrt(v @ mass.mul(v))

    ratios = [m_norm(mass.inv_mul(target.gradient(a) - target.gradient(b))) / m_norm(a - b)
              for a, b in zip(x, y)]
    assert 0 < max(ratios) <= target.lipschitz_l1 * (1 + 1e-9)


class TestBuiltinConstants:
    def test_standard_gaussian(self):
        t = builtin_target("standard_gaussian", 2)
        q = np.array([0.3, -0.7])
        assert np.allclose(t.gradient(q), q)
        assert t.lipschitz_l1 == 1.0

    @pytest.mark.parametrize("kind,l1", [("standard_gaussian", 1.0), ("gaussian", 1.0),
                                         ("perturbed_gaussian", 1.5)])
    def test_identity_precision_builds_no_matrix_at_large_d(self, kind, l1):
        # a gaussian or perturbed_gaussian given no sigma takes the standard
        # Gaussian's identity path
        d = 20_000
        tracemalloc.start()
        try:
            t = builtin_target(kind, d, a5=0.5)
            q = np.ones(d)
            t.gradient(q)
            t.potential(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * 10  # a d x d identity would take 3.2 GB
        assert t.lipschitz_l1 == l1
        constants = {"m": 2.0, "M1": l1, "A1": 1.0, "A2": 0.0}
        if kind == "perturbed_gaussian":
            constants.update(A2=0.5 * math.sqrt(d), A5=0.5, rho=1.0)
        assert t.constants == constants

    @pytest.mark.parametrize("mass_kind", [None, "identity", "diagonal", "dense"])
    @pytest.mark.parametrize("kind", ["standard_gaussian", "gaussian", "perturbed_gaussian"])
    def test_identity_precision_matches_identity_sigma(self, kind, mass_kind):
        # the identity path gives the values of a product with I; at a signed
        # zero of q it keeps -0.0 where the product gives +0.0
        d = 4
        rng = np.random.default_rng(3)
        a = rng.standard_normal((d, d))
        mass = {
            None: None,
            "identity": MassMatrix.identity(d),
            "diagonal": MassMatrix.diagonal(rng.random(d) + 0.5),
            "dense": MassMatrix.dense(a @ a.T / d + np.eye(d)),
        }[mass_kind]
        fast = builtin_target(kind, d, a5=-0.5, mass=mass)
        ref = builtin_target("gaussian" if kind == "standard_gaussian" else kind, d,
                             sigma=np.eye(d), a5=-0.5, mass=mass)
        assert fast.lipschitz_l1 == ref.lipschitz_l1
        assert fast.constants == ref.constants
        assert (fast.growth_class, fast.dim) == (ref.growth_class, ref.dim)
        for q in (rng.standard_normal(d), np.array([-0.0, 1.5, -0.0, 0.0]), np.full(d, -0.0)):
            assert fast.potential(q) == ref.potential(q)
            assert np.array_equal(fast.gradient(q), ref.gradient(q))
        rows = rng.standard_normal((6, d))
        assert np.array_equal(fast.potential_rows(rows), ref.potential_rows(rows))
        assert np.array_equal(fast.gradient_rows(rows), ref.gradient_rows(rows))

    def test_spectrum_waits_for_the_first_read(self, monkeypatch):
        # a copy made by dataclasses.replace, as a tracer wraps a target's
        # functions, shares the constants and computes them once
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        t = builtin_target("perturbed_gaussian", 3, sigma=SIGMA3, a5=0.5, mass=MASSES3["dense"])
        copy = dataclasses.replace(t, gradient=lambda q: t.gradient(q))
        assert calls == []
        assert copy.lipschitz_l1 == t.lipschitz_l1 and copy.constants is t.constants
        assert calls == [(3, 3), (3, 3)]  # Sigma and M^{-1}, once each
        assert t.constants["A1"] == pytest.approx(float(eigvalsh(SIGMA3)[0]), rel=0, abs=0)

    def test_near_symmetric_sigma_has_the_gradient_of_its_potential(self):
        # allclose accepts a sigma asymmetric by 1e-9 relative; U = q' Sigma q / 2
        # sees only the symmetric part (Sigma + Sigma') / 2, so that is the
        # gradient, not Sigma q
        rng = np.random.default_rng(4)
        sigma = SIGMA3 * (1.0 + 1e-9 * rng.standard_normal((3, 3)))
        assert np.allclose(sigma, sigma.T) and not np.array_equal(sigma, sigma.T)
        sym = 0.5 * (sigma + sigma.T)
        t = builtin_target("gaussian", 3, sigma=sigma)
        for q in 3.0 * rng.standard_normal((20, 3)):
            g = t.gradient(q)
            assert np.allclose(g, sym @ q, rtol=0, atol=1e-13)
            # the check tells the two apart
            assert not np.allclose(sigma @ q, sym @ q, rtol=0, atol=1e-13)
            # U is quadratic: central differences are exact up to rounding
            fd = finite_difference_grad(t, q, eps=1e-3)
            assert np.allclose(g, fd, rtol=0, atol=1e-11)
            assert not np.allclose(sigma @ q, fd, rtol=0, atol=1e-11)

    def test_diag_precision_l1(self):
        t = builtin_target("gaussian", 2, sigma=np.diag([1.0, 4.0]))
        assert t.lipschitz_l1 == pytest.approx(4.0)

    def test_perturbed_gradient_value(self):
        t = builtin_target("perturbed_gaussian", 1, a5=0.5)
        g = t.gradient(np.array([1.0]))[0]
        assert g == pytest.approx(1.0 + 0.5 * math.tanh(1.0), abs=1e-12)
        assert g == pytest.approx(1.380797, abs=1e-6)
        assert t.lipschitz_l1 == pytest.approx(1.5)
        # under M = 0.1, M^{-1} (q + a5 tanh q) has slope 10 (1 + 0.5) at 0
        t_m = builtin_target("perturbed_gaussian", 1, a5=0.5, mass=MassMatrix.diagonal(np.array([0.1])))
        assert t_m.lipschitz_l1 == pytest.approx(15.0)
        assert t.growth_class == "h8"
        assert t.constants["rho"] == 1.0

    def test_non_spd_sigma_rejected(self):
        with pytest.raises(ValueError):
            builtin_target("gaussian", 2, sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            builtin_target("gaussian", 2, sigma=np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("kind", ["gaussian", "perturbed_gaussian"])
    def test_position_of_wrong_length_rejected(self, kind):
        t = builtin_target(kind, 3, sigma=SIGMA3)
        for q in (np.ones(2), np.ones(4)):
            for f in (t.gradient, t.potential):
                with pytest.raises(ValueError, match="position has shape"):
                    f(q)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            builtin_target("cauchy", 1)

    def test_double_well_shape(self):
        t = builtin_target("double_well", 1)
        assert t.potential(np.array([1.0])) == pytest.approx(-0.25)
        assert t.gradient(np.array([1.0]))[0] == pytest.approx(0.0)
        with pytest.raises(ValueError):
            builtin_target("double_well", 2)


class TestSharedSigmaProduct:
    # the dense Gaussian family's potential reuses the gradient's Sigma q; its
    # value must equal the formula exactly whatever the caller did in between
    SIGMA = np.array([[2.0, 0.3, -0.1], [0.3, 1.0, 0.2], [-0.1, 0.2, 1.5]])

    @staticmethod
    def _formula(kind, q, sigma):
        quad = 0.5 * float(q @ (sigma @ q))
        return quad if kind == "gaussian" else quad + 0.5 * float(np.sum(_logcosh(q)))

    @pytest.fixture(params=["gaussian", "perturbed_gaussian"])
    def case(self, request):
        kind = request.param
        target = builtin_target(kind, 3, sigma=self.SIGMA, a5=0.5)
        q = np.array([0.7, -1.3, 2.1])
        return kind, target, q, lambda x: self._formula(kind, x, self.SIGMA)

    def test_hit(self, case):
        _, target, q, formula = case
        target.gradient(q)
        assert target.potential(q) == formula(q)
        assert target.potential(q.copy()) == formula(q)

    def test_miss(self, case):
        _, target, q, formula = case
        target.gradient(q)
        other = np.array([-0.4, 0.9, 0.05])
        assert target.potential(other) == formula(other)

    def test_q_mutated_in_place(self, case):
        _, target, q, formula = case
        target.gradient(q)
        q[1] += 0.5
        assert target.potential(q) == formula(q)

    def test_gradient_mutated_in_place(self, case):
        _, target, q, formula = case
        g = target.gradient(q)
        g *= -3.0
        g[0] = np.inf
        assert target.potential(q) == formula(q)


@pytest.mark.parametrize("d", [5, 300])
@pytest.mark.parametrize("kind", ["gaussian", "perturbed_gaussian"])
def test_potential_bits_do_not_depend_on_the_gradient(kind, d):
    # the potential's own product and the one its gradient kept are the same
    # function, so a point has one potential whichever came first
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    t = builtin_target(kind, d, sigma=a @ a.T / d + np.eye(d), a5=0.5)
    for _ in range(20):
        q = 2.0 * rng.standard_normal(d)
        cold = t.potential(q)
        t.gradient(q)
        assert t.potential(q.copy()).hex() == cold.hex()


class TestHamiltonian:
    def test_examples(self):
        t = builtin_target("standard_gaussian", 1)
        mass = MassMatrix.identity(1)
        assert hamiltonian(t, mass, PhasePoint(np.zeros(1), np.zeros(1))) == 0.0
        assert hamiltonian(t, mass, PhasePoint(np.ones(1), np.ones(1))) == 1.0
        tp = builtin_target("perturbed_gaussian", 1, a5=1.0)
        h = hamiltonian(tp, mass, PhasePoint(np.ones(1), np.zeros(1)))
        assert h == pytest.approx(0.5 + math.log(math.cosh(1.0)), abs=1e-12)
        assert h == pytest.approx(0.933781, abs=1e-6)

    def test_momentum_sign_symmetry_exact(self):
        t = builtin_target("gaussian", 2, sigma=np.array([[2.0, 0.3], [0.3, 1.0]]))
        mass = MassMatrix.dense(np.array([[1.5, 0.2], [0.2, 0.8]]))
        rng = np.random.default_rng(3)
        for _ in range(50):
            q, p = rng.standard_normal(2), rng.standard_normal(2)
            a = hamiltonian(t, mass, PhasePoint(q, p))
            b = hamiltonian(t, mass, PhasePoint(q, -p))
            assert a == b  # bit-for-bit: p enters only through p^T M^{-1} p

    def test_overflow_flagged_not_raised(self):
        t = builtin_target("double_well", 1)
        mass = MassMatrix.identity(1)
        h = hamiltonian(t, mass, PhasePoint(np.array([1e200]), np.zeros(1)))
        assert h == math.inf

    @pytest.mark.parametrize("mass", [MassMatrix.identity(2), MassMatrix.diagonal([0.5, 2.0]),
                                      MassMatrix.dense([[2.0, 0.4], [0.4, 1.0]])],
                             ids=["identity", "diagonal", "dense"])
    def test_non_finite_momentum_has_non_finite_energy(self, mass):
        # the dense solve once checked its input and raised ValueError
        t = builtin_target("standard_gaussian", 2)
        for p in (np.array([math.inf, 1.0]), np.array([1.0, -math.inf]),
                  np.array([math.nan, 0.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not math.isfinite(mass.kinetic(p))
                assert hamiltonian(t, mass, PhasePoint(np.zeros(2), p)) == math.inf

    def test_kinetic_overflow_flagged_without_warning(self):
        t = builtin_target("double_well", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = hamiltonian(t, MassMatrix.identity(1), PhasePoint(np.zeros(1), np.array([1e200])))
        assert h == math.inf

    def test_dimension_mismatch(self):
        t = builtin_target("standard_gaussian", 2)
        with pytest.raises(ValueError):
            hamiltonian(t, MassMatrix.identity(2), PhasePoint(np.zeros(3), np.zeros(3)))


class TestMassMatrix:
    @pytest.mark.parametrize(
        "mass",
        [
            MassMatrix.identity(3),
            MassMatrix.diagonal(np.array([0.5, 2.0, 4.0])),
            MassMatrix.dense(np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.1], [0.0, 0.1, 0.7]])),
        ],
        ids=["identity", "diagonal", "dense"],
    )
    def test_round_trip(self, mass):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(3)
            w = mass.inv_mul(mass.mul(v))
            assert np.linalg.norm(w - v) <= 1e-12 * max(1.0, np.linalg.norm(v))

    @pytest.mark.parametrize(
        "mass",
        [
            MassMatrix.identity(3),
            MassMatrix.diagonal(np.array([0.5, 2.0, 4.0])),
            MassMatrix.dense(np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.1], [0.0, 0.1, 0.7]])),
        ],
        ids=["identity", "diagonal", "dense"],
    )
    def test_rows_act_as_single_vectors(self, mass):
        v = np.random.default_rng(1).standard_normal((5, 3))
        for act in (mass.mul, mass.inv_mul, mass.chol_mul):
            assert act(v).tobytes() == np.stack([act(row) for row in v]).tobytes()

    def test_identity_actions_return_their_argument(self):
        mass = MassMatrix.identity(3)
        rng = np.random.default_rng(2)
        for v in (rng.standard_normal(3), rng.standard_normal((5, 3))):
            for act in (mass.mul, mass.inv_mul, mass.chol_mul):
                assert act(v) is v

    def test_not_spd_rejected(self):
        with pytest.raises(ValueError):
            MassMatrix.dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            MassMatrix.diagonal(np.array([1.0, -1.0]))

    def test_chol_consistent(self):
        mat = np.array([[2.0, 0.4], [0.4, 1.0]])
        mass = MassMatrix.dense(mat)
        z = np.array([0.3, -1.2])
        lz = mass.chol_mul(z)
        chol = np.linalg.cholesky(mat)
        assert np.allclose(lz, chol @ z)


class TestMomentumRefresh:
    def test_deterministic_given_seed(self):
        mass = MassMatrix.diagonal(np.array([4.0]))
        a = momentum_refresh(mass, np.random.default_rng(5))
        b = momentum_refresh(mass, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_identity_covariance(self):
        mass = MassMatrix.identity(2)
        rng = np.random.default_rng(11)
        draws = np.array([momentum_refresh(mass, rng) for _ in range(100_000)])
        cov = np.cov(draws.T)
        # 3 standard-error band: se(cov_ij) ~ 1/sqrt(n)
        assert np.all(np.abs(cov - np.eye(2)) <= 3.0 / math.sqrt(100_000) * 1.5)

    def test_diagonal_variance(self):
        mass = MassMatrix.diagonal(np.array([4.0]))
        rng = np.random.default_rng(13)
        draws = np.array([momentum_refresh(mass, rng)[0] for _ in range(100_000)])
        assert 3.8 <= draws.var() <= 4.2
