"""Leapfrog integration, Gaussian closed forms, and the trajectory BVP solver.

One leapfrog step is the half-kick / drift / half-kick composition

    p' = p - (h/2) grad U(q)
    q' = q + h M^{-1} p'
    p' = p' - (h/2) grad U(q')

with the mass matrix acting in the drift.  Negative iterates are computed by
the momentum-flip identity ``Phi^{(-T)}(q, p) = flip(Phi^{(T)}(q, -p))``,
which reuses the forward code path and is exactly the identity used by the
reversibility checks.

Every sampler takes its steps through :func:`leapfrog_step_with_grad`, one
call per orbit state: the step loop of :func:`leapfrog_forward` (HMC,
:func:`leapfrog_iter` and the trajectory solver), :class:`orbit.OrbitCache`
(iterative NUTS and the exact law), :func:`orbit._advance` (recursive NUTS)
and the rows NUTS sampler.
The step carries the half-kick ``(h/2) grad U(q)``: it finishes the step
that reached ``q`` and starts the step that leaves it, so each gradient is
scaled once, and the two half-kicks are not merged into one full kick, which
would round differently.  The step constants live on :class:`LeapfrogParams`:
``params.steps[forward]`` is ``(h, h/2)``, or ``(-h, -h/2)`` backward, built
once as 0-d float64 arrays, and every caller passes one of them to the step
and scales its first half-kick by its ``half``.  A 0-d array times a vector
skips numpy's conversion of a Python float and rounds to the same product.
Only :class:`orbit.OrbitCache` and the recursive sampler step backward; the
rows sampler steps its backward ends, held as ``(q, -p)``, forward.  The
step enters no ``np.errstate``: an overflowing step is the flagged-divergence
path, and its caller silences it once for all the steps it takes.  HMC runs
the step loop of :func:`leapfrog_forward` inside its own ``np.errstate``,
which also holds the weighing of both ends.  The loop stops at the first
state with a non-finite entry, probed by the one dot product ``q . p``: a
non-finite entry makes it inf or nan, and only when it is not finite are the
entries tested one by one.

For Gaussian targets ``U(q) = q^T Sigma q / 2`` the T-step map is linear and
is computed here in closed form; for general targets the module also solves
the discrete two-point boundary value problem (find ``p0`` such that the
T-step trajectory from ``q0`` ends at ``qT``) by fixed-point iteration, which
contracts at rate ``cos(pi/T) + L1 h^2 / 2`` whenever ``L1 h^2 <
2 (1 - cos(pi/T))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .targets import MassMatrix, PhasePoint, Target, flip, gradient_rows


class ContractionViolated(ValueError):
    """Step size/Lipschitz pair violates ``L1 h^2 < 2 (1 - cos(pi/T))``."""


class NoConvergence(RuntimeError):
    """Fixed-point iteration failed to reach tolerance within its budget."""


class Step(NamedTuple):
    """The signed step size and its half, ``(h, h/2)`` or ``(-h, -h/2)``."""

    h: np.ndarray | float
    half: np.ndarray | float


def _constant(x: float) -> np.ndarray:
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LeapfrogParams:
    """Step size and mass matrix, with the signed step constants built once.

    ``steps[forward]`` is the :class:`Step` ``(h, h/2)`` for ``forward`` true
    and ``(-h, -h/2)`` otherwise, each entry a read-only 0-d float64 array.
    """

    h: float
    mass: MassMatrix
    steps: tuple[Step, Step] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"step size must be positive and finite, got {self.h}")
        h = float(self.h)
        steps = (Step(_constant(-h), _constant(0.5 * -h)), Step(_constant(h), _constant(0.5 * h)))
        object.__setattr__(self, "steps", steps)


def leapfrog_step_with_grad(
    gradient: Callable[[np.ndarray], np.ndarray],
    inv_mul: Callable[[np.ndarray], np.ndarray],
    step: Step | tuple[float, float],
    q: np.ndarray,
    p: np.ndarray,
    kick: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step ``(q, p, kick) -> (q1, p1, kick1)`` with ``kick = half * grad U(q)``.

    ``step`` is ``(h, half)`` with ``half = 0.5 * h``: a :class:`Step` of
    :attr:`LeapfrogParams.steps`, or the same two values as floats, which
    give the same bits.  ``h`` may carry the direction's sign: the step with
    ``-h`` is ``Phi^{(-1)} = flip . Phi^{(1)} . flip`` bit for bit, because
    negating an operand negates every rounded result.  A step costs one
    gradient evaluation, so a T-step trajectory costs T + 1.  ``gradient``
    and ``inv_mul`` act on a vector, or on ``(C, d)`` rows that all step
    with the one ``h``.  The caller holds ``np.errstate(over="ignore",
    invalid="ignore")``.
    """
    h, half = step
    p_half = p - kick
    q1 = q + h * inv_mul(p_half)
    kick1 = half * gradient(q1)
    return q1, p_half - kick1, kick1


def leapfrog_iter(target: Target, params: LeapfrogParams, x: PhasePoint, j: int) -> PhasePoint:
    """The j-th leapfrog iterate, for any ``j`` in Z.

    ``j = 0`` is the identity (bit-for-bit).  Negative iterates go through the
    momentum flip of ``|j|`` forward steps.
    """
    if j == 0:
        return x
    if j < 0:
        return flip(leapfrog_iter(target, params, flip(x), -j))
    return leapfrog_forward(target, params, x, j)[0]


def leapfrog_forward(
    target: Target,
    params: LeapfrogParams,
    x: PhasePoint,
    t: int,
) -> tuple[PhasePoint, int]:
    """The t-th forward iterate (``t >= 1``) and the gradients taken to reach it.

    Stops at the first non-finite state and returns it, so that the caller
    flags the divergence; ``s`` steps take ``s + 1`` gradient evaluations,
    the one at ``x`` included.
    """
    gradient, step = target.gradient, params.steps[True]
    with np.errstate(over="ignore", invalid="ignore"):
        kick = step.half * gradient(x.q)
        q, p, n_grad = _trajectory(gradient, params.mass.inv_mul, step, x.q, x.p, kick, t)
    return PhasePoint(q, p), n_grad


def _trajectory(
    gradient: Callable[[np.ndarray], np.ndarray],
    inv_mul: Callable[[np.ndarray], np.ndarray],
    step: Step,
    q: np.ndarray,
    p: np.ndarray,
    kick: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The step loop of :func:`leapfrog_forward`: ``(q_s, p_s, s + 1)`` at the
    last step ``s <= t`` taken, with ``kick = step.half * grad U(q)``.

    The caller holds ``np.errstate(over="ignore", invalid="ignore")``.
    """
    for s in range(1, t + 1):
        q, p, kick = leapfrog_step_with_grad(gradient, inv_mul, step, q, p, kick)
        # a non-finite entry makes its product with the other vector's entry
        # inf or nan (inf * 0 is nan), which no sum makes finite again: a
        # finite q . p means every entry is finite, and one that overflows on
        # finite entries falls through to the exact check
        if not math.isfinite(q.dot(p)) and not (np.isfinite(q).all() and np.isfinite(p).all()):
            break  # divergence flag propagates to the caller
    return q, p, s + 1


@dataclass(frozen=True)
class GaussianLeapfrogMaps:
    """Linear maps of the T-step leapfrog on a Gaussian target.

    ``q_T = A q0 + B p0`` and ``p_T = At q0 + Bt p0``.  ``det_b`` detects the
    degenerate step sizes at which the position map loses injectivity in
    ``p0``; ``det_full`` is the determinant of the full 2d x 2d map and equals
    1 up to roundoff (volume preservation).
    """

    t: int
    a: np.ndarray
    b: np.ndarray
    at: np.ndarray
    bt: np.ndarray
    det_b: float
    det_full: float

    def apply(self, x: PhasePoint) -> PhasePoint:
        return PhasePoint(self.a @ x.q + self.b @ x.p, self.at @ x.q + self.bt @ x.p)


def gaussian_maps(sigma: np.ndarray, mass: MassMatrix, h: float, t: int) -> GaussianLeapfrogMaps:
    """Compose the one-step linear leapfrog map ``t`` times for ``U = q^T Sigma q/2``.

    One step:
        q1 = (I - (h^2/2) M^{-1} Sigma) q0 + h M^{-1} p0
        p1 = (-h Sigma + (h^3/4) Sigma M^{-1} Sigma) q0 + (I - (h^2/2) Sigma M^{-1}) p0
    """
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.shape[0]
    if t < 0:
        raise ValueError("gaussian_maps requires t >= 0")
    minv = mass.inv_matrix()
    ms = minv @ sigma
    one = np.block(
        [
            [np.eye(d) - 0.5 * h * h * ms, h * minv],
            [-h * sigma + 0.25 * h**3 * (sigma @ ms), np.eye(d) - 0.5 * h * h * ms.T],
        ]
    )
    full = np.linalg.matrix_power(one, t)
    a, b = full[:d, :d], full[:d, d:]
    at, bt = full[d:, :d], full[d:, d:]
    return GaussianLeapfrogMaps(
        t=t,
        a=a,
        b=b,
        at=at,
        bt=bt,
        det_b=float(np.linalg.det(b)),
        det_full=float(np.linalg.det(full)),
    )


def tridiag_a(t: int) -> tuple[np.ndarray, float]:
    """The (T-1)x(T-1) tridiagonal matrix with 1/2 off-diagonals and its norm.

    The spectral norm is computed by power iteration (ratio of successive
    vector norms, which converges even though the extreme eigenvalues come in
    a +/- pair) and equals ``cos(pi/T)``.
    """
    if t < 2:
        raise ValueError("tridiag_a requires T >= 2")
    n = t - 1
    mat = np.zeros((n, n))
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = 0.5
    mat[idx + 1, idx] = 0.5
    if n == 1:
        return mat, 0.0
    x = np.ones(n) / math.sqrt(n)
    ratio = 0.0
    for _ in range(200_000):
        y = mat @ x
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return mat, 0.0
        new_ratio = ny
        x = y / ny
        if abs(new_ratio - ratio) < 1e-14:
            ratio = new_ratio
            break
        ratio = new_ratio
    return mat, ratio


@dataclass(frozen=True)
class TrajectorySolution:
    """Solution of the discrete boundary value problem.

    ``positions`` holds ``q_0 ... q_T`` (endpoints included), ``momenta``
    holds the reconstructed ``p_0 ... p_T``.  ``residual`` is the final
    relative Frobenius update norm, ``contraction_observed`` the largest
    per-iteration residual ratio, and ``roundtrip_error`` the norm
    ``|proj_1 Phi^{(T)}(q0, p0) - qT|`` from re-integrating forward.
    """

    positions: np.ndarray
    momenta: np.ndarray
    iterations: int
    residual: float
    contraction_observed: float
    roundtrip_error: float

    @property
    def p0(self) -> np.ndarray:
        return self.momenta[0]


def trajectory_solve(
    target: Target,
    params: LeapfrogParams,
    q0: np.ndarray,
    q_t: np.ndarray,
    t: int,
    l1: float | None = None,
    tol: float = 1e-12,
    max_iter: int | None = None,
) -> TrajectorySolution:
    """Solve for the unique T-step leapfrog trajectory joining ``q0`` to ``q_t``.

    Iterates ``Q <- Q0/2 + Q A + (h^2/2) M^{-1} G(Q)`` from the linear
    interpolant, where ``A`` is the tridiagonal averaging matrix.  ``l1``
    defaults to ``target.lipschitz_l1``; when known, the sharp condition
    ``L1 h^2 < 2 (1 - cos(pi/T))`` is enforced up front (otherwise the caller
    asserts contraction).  Momenta are reconstructed from the position
    differences and the trajectory is re-integrated forward as an
    independent round-trip check.
    """
    h, mass = params.h, params.mass
    q0 = np.asarray(q0, dtype=float)
    q_t = np.asarray(q_t, dtype=float)
    if t < 1:
        raise ValueError("trajectory_solve requires T >= 1")
    if l1 is None:
        l1 = target.lipschitz_l1

    if t == 1:
        # p0 = M (q1 - q0)/h + (h/2) grad U(q0), exact (no condition needed)
        p0 = mass.mul((q_t - q0) / h) + 0.5 * h * target.gradient(q0)
        positions = np.stack([q0, q_t])
        sol_iters, residual, contraction = 1, 0.0, 0.0
    else:
        rate = math.cos(math.pi / t) + (0.0 if l1 is None else 0.5 * l1 * h * h)
        if l1 is not None and l1 * h * h >= 2.0 * (1.0 - math.cos(math.pi / t)):
            raise ContractionViolated(
                f"L1 h^2 = {l1 * h * h:.6g} >= 2(1 - cos(pi/T)) = "
                f"{2.0 * (1.0 - math.cos(math.pi / t)):.6g} for T = {t}"
            )
        if max_iter is None:
            if l1 is not None and rate < 1.0:
                max_iter = 10 * max(1, math.ceil(math.log(tol) / math.log(rate)))
            else:
                max_iter = 10_000

        lam = np.linspace(0.0, 1.0, t + 1)[1:-1, None]
        interior = (1.0 - lam) * q0[None, :] + lam * q_t[None, :]
        with np.errstate(over="ignore"):
            scale = max(1.0, float(np.linalg.norm(interior)))
        if not math.isfinite(scale):
            # every residual would read 0 against an infinite scale
            raise NoConvergence("the norm of the interpolated interior positions overflows")
        residual = math.inf
        prev_diff = None
        contraction = 0.0
        sol_iters = 0
        # an iteration that diverges overflows: it is reported as no
        # convergence at its first non-finite residual, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for sol_iters in range(1, max_iter + 1):
                ext = np.vstack([q0[None, :], interior, q_t[None, :]])
                grads = mass.inv_mul(gradient_rows(target, interior))
                new_interior = 0.5 * (ext[:-2] + ext[2:]) + 0.5 * h * h * grads
                diff = float(np.linalg.norm(new_interior - interior))
                # ratios are only meaningful while the updates sit above the
                # floating-point noise floor of the fixed-point map
                if prev_diff is not None and prev_diff > 1e-8 * scale:
                    contraction = max(contraction, diff / prev_diff)
                prev_diff = diff
                interior = new_interior
                residual = diff / scale
                if residual <= tol or not math.isfinite(residual):
                    break
        if not residual <= tol:
            raise NoConvergence(
                f"residual {residual:.3e} above tolerance {tol:.3e} after {sol_iters} iterations"
            )
        positions = np.vstack([q0[None, :], interior, q_t[None, :]])
        p0 = mass.mul((positions[1] - q0) / h) + 0.5 * h * target.gradient(q0)

    momenta = np.empty_like(positions)
    momenta[0] = p0
    grads = gradient_rows(target, positions)
    for i in range(1, len(positions)):
        momenta[i] = momenta[i - 1] - 0.5 * h * (grads[i - 1] + grads[i])

    x = PhasePoint(positions[0].copy(), momenta[0].copy())
    x_fwd = leapfrog_iter(target, params, x, t)
    roundtrip = float(np.linalg.norm(x_fwd.q - q_t))
    return TrajectorySolution(
        positions=positions,
        momenta=momenta,
        iterations=sol_iters,
        residual=residual,
        contraction_observed=contraction,
        roundtrip_error=roundtrip,
    )
