"""Target distributions, mass matrices and the Hamiltonian.

A target is a potential ``U`` (negative log-density up to a constant) with its
gradient.  All downstream weight computations work with ``log pi = -H``; this
module exposes ``H`` itself and never ``exp(-H)``, so orbit weights can be
combined in the log domain without underflow.  A non-finite ``U`` or gradient
is returned as-is and treated by callers as a flagged divergence with zero
weight, never as a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


class PhasePoint(NamedTuple):
    """Position/momentum pair ``(q, p)`` in the 2d-dimensional phase space."""

    q: np.ndarray
    p: np.ndarray


def flip(x: PhasePoint) -> PhasePoint:
    """Momentum flip ``(q, p) -> (q, -p)``."""
    return PhasePoint(x.q, -x.p)


class MassMatrix:
    """Symmetric positive definite mass matrix with cached factorizations.

    Supports identity, diagonal and dense kinds.  Provides the forward action
    ``M v``, the inverse action ``M^{-1} v`` and multiplication by the lower
    Cholesky factor ``L`` (for momentum refresh ``p = L z``).  The inverse
    action and the factor also take a ``(C, d)`` array of rows, each row
    giving the bytes a single vector would.  Immutable after construction.
    """

    def __init__(self, kind: str, dim: int, diag=None, matrix=None):
        self.kind = kind
        self.dim = dim
        self._diag = diag
        self._matrix = matrix
        if kind == "identity":
            pass
        elif kind == "diagonal":
            with np.errstate(divide="ignore", over="ignore"):
                self._inv = 1.0 / diag
            if np.any(diag <= 0) or not np.all(np.isfinite(diag) & np.isfinite(self._inv)):
                raise ValueError("diagonal mass entries must be positive and finite, "
                                 "with a finite inverse")
            self._sqrt = np.sqrt(diag)
        elif kind == "dense":
            if matrix.shape != (dim, dim):
                raise ValueError("dense mass matrix has wrong shape")
            if not np.allclose(matrix, matrix.T):
                raise ValueError("dense mass matrix must be symmetric")
            try:
                self._chol = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError as exc:
                raise ValueError("mass matrix is not positive definite") from exc
            # scipy is loaded here, where a dense mass needs it, and not for
            # the identity or diagonal kinds
            import scipy.linalg

            self._cho_factor = scipy.linalg.cho_factor(matrix, lower=True)
            self._cho_solve = scipy.linalg.cho_solve
        else:
            raise ValueError(f"unknown mass matrix kind {kind!r}")

    @classmethod
    def identity(cls, dim: int) -> "MassMatrix":
        return cls("identity", dim)

    @classmethod
    def diagonal(cls, diag) -> "MassMatrix":
        diag = np.asarray(diag, dtype=float)
        return cls("diagonal", diag.size, diag=diag)

    @classmethod
    def dense(cls, matrix) -> "MassMatrix":
        matrix = np.asarray(matrix, dtype=float)
        return cls("dense", matrix.shape[0], matrix=matrix)

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def mul(self, v: np.ndarray) -> np.ndarray:
        """Forward action ``M v``."""
        if self.kind == "identity":
            return v
        if self.kind == "diagonal":
            return self._diag * v
        return self._matrix @ v

    def inv_mul(self, v: np.ndarray) -> np.ndarray:
        """Inverse action ``M^{-1} v``."""
        if self.kind == "identity":
            return v
        if self.kind == "diagonal":
            return self._inv * v
        if v.ndim == 2:  # one solve with the rows as right-hand sides
            return np.ascontiguousarray(self._cho_solve(self._cho_factor, v.T).T)
        return self._cho_solve(self._cho_factor, v)

    def chol_mul(self, z: np.ndarray) -> np.ndarray:
        """Multiplication by the lower Cholesky factor, ``L z``."""
        if self.kind == "identity":
            return z
        if self.kind == "diagonal":
            return self._sqrt * z
        if z.ndim == 2:
            return np.matmul(self._chol, z[:, :, None])[:, :, 0]
        return self._chol @ z

    def inv_matrix(self) -> np.ndarray:
        """Dense ``M^{-1}`` (used by the Gaussian closed-form maps)."""
        if self.kind == "identity":
            return np.eye(self.dim)
        if self.kind == "diagonal":
            return np.diag(self._inv)
        return self._cho_solve(self._cho_factor, np.eye(self.dim))

    def kinetic(self, p: np.ndarray) -> float:
        """Kinetic energy ``p^T M^{-1} p / 2``; ``inf`` if it overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return 0.5 * float(p @ self.inv_mul(p))

    def __repr__(self) -> str:
        return f"MassMatrix(kind={self.kind!r}, dim={self.dim})"


@dataclass(frozen=True)
class Target:
    """Potential/gradient pair with optional regularity metadata.

    ``lipschitz_l1`` is the Lipschitz constant of ``q -> M^{-1} grad U(q)``
    when known, for the mass ``M`` given to :func:`builtin_target` (identity
    if none); ``growth_class`` tags the tail-growth family the target belongs
    to, with the associated constants stored in ``constants`` (keys among
    ``m``, ``M1``, ``A1`` ... ``A5``, ``rho``, ``R_U``).

    ``potential_rows`` and ``gradient_rows``, when given, evaluate a
    ``(C, d)`` array of positions at once, each row equal bit for bit to the
    scalar function on that row; None means a loop over the rows (see
    :func:`potential_rows` and :func:`gradient_rows`).
    """

    dim: int
    potential: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    lipschitz_l1: float | None = None
    growth_class: str = "general"
    constants: dict = field(default_factory=dict)
    potential_rows: Callable[[np.ndarray], np.ndarray] | None = None
    gradient_rows: Callable[[np.ndarray], np.ndarray] | None = None


def potential_rows(target: Target, q: np.ndarray) -> np.ndarray:
    """``U`` at each row of ``q``, by the target's row form if it has one."""
    if target.potential_rows is not None:
        return target.potential_rows(q)
    return np.array([target.potential(x) for x in q], dtype=float)


def gradient_rows(target: Target, q: np.ndarray) -> np.ndarray:
    """``grad U`` at each row of ``q``, by the target's row form if it has one."""
    if target.gradient_rows is not None:
        return target.gradient_rows(q)
    return np.array([target.gradient(x) for x in q], dtype=float)


def hamiltonian(target: Target, mass: MassMatrix, x: PhasePoint) -> float:
    """Total energy ``H(q, p) = U(q) + p^T M^{-1} p / 2``.

    Overflowing potentials yield ``inf`` (a flagged divergence), not an error.
    """
    q, p = x
    if q.shape != (target.dim,) or p.shape != (target.dim,):
        raise ValueError(
            f"phase point dimensions {q.shape}/{p.shape} do not match target dim {target.dim}"
        )
    u = float(target.potential(q))
    if not math.isfinite(u):
        return math.inf
    k = mass.kinetic(p)
    if not math.isfinite(k):
        return math.inf
    return u + k


def momentum_refresh(mass: MassMatrix, rng: np.random.Generator) -> np.ndarray:
    """Draw ``p ~ N(0, M)`` as ``L z`` with ``z`` standard normal."""
    z = rng.standard_normal(mass.dim)
    return mass.chol_mul(z)


def _logcosh(x: np.ndarray) -> np.ndarray:
    # log cosh(x) = |x| + log1p(exp(-2|x|)) - log 2, stable for large |x|
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _shared_sigma_product(sigma):
    """``q -> Sigma q`` and ``q -> q^T Sigma q / 2`` sharing one product per point.

    The first function keeps a copy of its argument with the quadratic form
    computed from the same product; the second returns that form when its
    argument equals the copy (by contents, so in-place mutation of ``q`` or
    of the returned vector cannot make it stale) and evaluates the formula
    otherwise.  A leapfrog step's gradient followed by the new state's
    potential thus costs one matrix-vector product, with unchanged values.
    """
    kept = (None, 0.0)

    def sigma_q(q):
        nonlocal kept
        sq = sigma @ q
        # overflow is the caller's flagged-divergence path, as in the gradient
        with np.errstate(over="ignore", invalid="ignore"):
            kept = (np.array(q), 0.5 * float(q @ sq))
        return sq

    def half_quad(q):
        kept_q, quad = kept
        if kept_q is not None and np.array_equal(kept_q, q):
            return quad
        return 0.5 * float(q @ (sigma @ q))

    return sigma_q, half_quad


def builtin_target(
    kind: str,
    dim: int = 1,
    sigma=None,
    a5: float = 0.5,
    mass: MassMatrix | None = None,
) -> Target:
    """Construct one of the built-in target families.

    kind:
        ``standard_gaussian``  U(q) = |q|^2 / 2
        ``gaussian``           U(q) = q^T Sigma q / 2, ``sigma`` SPD (precision)
        ``perturbed_gaussian`` U(q) = q^T Sigma q / 2 + a5 * sum_i log cosh(q_i)
        ``double_well``        U(q) = q^4/4 - q^2/2 (1-D; super-quadratic tails,
                               used for negative tests)

    The perturbation ``log cosh`` has a globally Lipschitz, bounded gradient
    (``tanh``), so the perturbed family has quadratic-plus-linear growth with
    ``rho = 1``.
    """
    if kind == "standard_gaussian":
        # Sigma = I: the constants are known, so no d x d matrix is formed
        lam_max_m = 1.0
        if mass is not None and not mass.is_identity:
            # eigenvalues of M^{-1} Sigma = those of M^{-1}
            lam_max_m = float(np.max(np.abs(np.linalg.eigvals(mass.inv_matrix()))))

        def potential(q):
            return 0.5 * float(q.dot(q))

        def gradient(q):
            return q

        return Target(
            dim=dim,
            potential=potential,
            gradient=gradient,
            name="standard_gaussian",
            lipschitz_l1=lam_max_m,
            growth_class="h6",
            constants={"m": 2.0, "M1": 1.0, "A1": 1.0, "A2": 0.0},
            potential_rows=lambda q: 0.5 * np.vecdot(q, q),
            gradient_rows=gradient,
        )
    elif kind in ("gaussian", "perturbed_gaussian"):
        if sigma is None:
            sigma = np.eye(dim)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (dim, dim):
            raise ValueError(f"sigma has shape {sigma.shape}, expected ({dim}, {dim})")
    elif kind == "double_well":
        if dim != 1:
            raise ValueError("double_well target is 1-D only")

        def potential_dw(q):
            # super-quadratic tails overflow for extreme inputs; the flagged
            # non-finite value is the documented divergence path
            with np.errstate(over="ignore", invalid="ignore"):
                return float(q[0] ** 4 / 4.0 - q[0] ** 2 / 2.0)

        def gradient_dw(q):
            with np.errstate(over="ignore", invalid="ignore"):
                return q**3 - q

        # no potential_rows: the array power Q[:, 0]**4 differs from the
        # scalar's q[0]**4 in the last bit on some inputs, so the rows loop
        # over the scalar formula
        return Target(
            dim=1,
            potential=potential_dw,
            gradient=gradient_dw,
            name="double_well",
            lipschitz_l1=None,
            growth_class="general",
            gradient_rows=gradient_dw,
        )
    else:
        raise ValueError(f"unknown builtin target kind {kind!r}")

    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma must be symmetric positive definite") from exc
    if not np.allclose(sigma, sigma.T):
        raise ValueError("sigma must be symmetric positive definite")

    eigs = np.linalg.eigvalsh(sigma)
    lam_max, lam_min = float(eigs[-1]), float(eigs[0])
    if mass is not None and not mass.is_identity:
        minv = mass.inv_matrix()
        # eigenvalues of M^{-1} Sigma = those of the SPD pencil
        lam_max_m = float(np.max(np.abs(np.linalg.eigvals(minv @ sigma))))
        lam_max_minv = float(np.linalg.eigvalsh(minv)[-1])
    else:
        lam_max_m = lam_max
        lam_max_minv = 1.0

    def sigma_rows(q):
        return np.matmul(sigma, q[:, :, None])[:, :, 0]

    def half_quad_rows(q):
        return 0.5 * np.vecdot(q, sigma_rows(q))

    if kind == "gaussian":
        gradient, potential = _shared_sigma_product(sigma)
        return Target(
            dim=dim,
            potential=potential,
            gradient=gradient,
            name="gaussian",
            lipschitz_l1=lam_max_m,
            growth_class="h6",
            constants={"m": 2.0, "M1": lam_max, "A1": lam_min, "A2": 0.0},
            potential_rows=half_quad_rows,
            gradient_rows=sigma_rows,
        )

    sigma_q, half_quad = _shared_sigma_product(sigma)

    def potential_p(q, _a=a5):
        return half_quad(q) + _a * float(np.sum(_logcosh(q)))

    def gradient_p(q, _a=a5):
        return sigma_q(q) + _a * np.tanh(q)

    def potential_p_rows(q, _a=a5):
        return half_quad_rows(q) + _a * _logcosh(q).sum(axis=1)

    def gradient_p_rows(q, _a=a5):
        return sigma_rows(q) + _a * np.tanh(q)

    # |grad U~| = a5 |tanh| <= a5 sqrt(d): bounded perturbation gradient (rho = 1)
    return Target(
        dim=dim,
        potential=potential_p,
        gradient=gradient_p,
        name="perturbed_gaussian",
        # M^{-1} a5 tanh(q) is Lipschitz with constant a5 lambda_max(M^{-1})
        lipschitz_l1=lam_max_m + a5 * lam_max_minv,
        growth_class="h8",
        constants={
            "m": 2.0,
            "M1": lam_max + a5,
            "A1": lam_min,
            "A2": a5 * math.sqrt(dim),
            "A5": a5,
            "rho": 1.0,
        },
        potential_rows=potential_p_rows,
        gradient_rows=gradient_p_rows,
    )
