"""Numerical certification of the samplers' structural properties.

Each check returns a :class:`CheckReport` that is deterministic given
``(seed, config)`` and machine readable.  The checks split into three kinds:

* exact combinatorial identities (orbit-law symmetry), asserted with
  ``Fraction`` arithmetic and no tolerance at all;
* closed-form identities (detailed balance, accessibility, step-size
  conditions, tail inequalities), asserted at tight float tolerances;
* statistical properties (invariance under one transition, drift ratios,
  long-run moments), asserted with explicit multiple-testing corrections and
  an under-powered guard instead of silent passes.

Every statistical check has a negative control: running it with the
``always-swap`` kernel mutation (the progressive swap coin removed) must make
it fail, guarding against vacuous tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import stats as sps

from .index_select import WeightTree, logsumexp
# nuts_step_iterative and nuts_step_recursive stay importable from here:
# perfbench/tracing.py wraps them under this module as well as under kernels
from .kernels import (  # noqa: F401
    KernelConfig,
    make_kernel,
    nuts_exact_pmf,
    nuts_step_iterative,
    nuts_step_iterative_rows,
    nuts_step_recursive,
    nuts_transition_iterative_rows,
)
from .leapfrog import gaussian_maps, leapfrog_iter
from .orbit import OrbitCache, orbit_select_pmf
from .targets import MassMatrix, PhasePoint, Target, hamiltonian, momentum_refresh


@dataclass
class CheckReport:
    """Outcome of one verification check.

    ``passed`` is true iff the worst observed violation is within
    ``tolerance`` (exact checks use tolerance 0).  ``underpowered`` marks
    statistical checks whose sample size cannot support a verdict; they do
    not count as failures.
    """

    check: str
    passed: bool
    tolerance: float
    violation: float
    seed: int | None = None
    config: dict = field(default_factory=dict)
    details: list = field(default_factory=list)
    underpowered: bool = False

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": bool(self.passed),
            "tolerance": self.tolerance,
            "violation": self.violation,
            "config": self.config,
            "seed": self.seed,
            "underpowered": self.underpowered,
            "details": self.details,
        }


@dataclass
class DriftEstimate:
    """Monte Carlo estimate of the one-step ratio ``E[V_a(q')] / V_a(q)``.

    The ratio samples are ``exp(a (|q'| - |q|))``; the 99% CI is normal-based
    from their sample standard error.
    """

    a: float
    radius: float
    n: int
    ratio: float
    se: float
    ci_low: float
    ci_high: float


def _gauss_anchor(dim: int, mass: MassMatrix, rng: np.random.Generator) -> PhasePoint:
    q = 1.5 * rng.standard_normal(dim)
    p = momentum_refresh(mass, rng)
    return PhasePoint(q, p)


# --- orbit-law symmetry (exact) ----------------------------------------------


def check_ph_symmetry(
    target: Target,
    cfg: KernelConfig,
    anchors: Sequence[PhasePoint],
    seed: int | None = None,
) -> CheckReport:
    """Shift covariance of the orbit-selection law, exactly.

    For every interval ``J`` in the support at ``x0`` and every ``-j`` in
    ``J``, the law at the shifted anchor assigns ``J + j`` the same dyadic
    probability as ``J`` at ``x0``.  Both sides are recomputed from scratch
    (the shifted orbit is re-integrated) and compared as exact ``Fraction``
    values; any inequality is a failure.
    """
    if cfg.k_m > 4:
        raise ValueError("symmetry enumeration budget is k_m <= 4")
    params = cfg.params
    mismatches = 0
    cases = 0
    details = []
    for x0 in anchors:
        cache = OrbitCache(target, params, x0)
        for (lo, hi), fr in orbit_select_pmf(cache, cfg.k_m):
            for j in range(-hi, -lo + 1):
                if j == 0:
                    continue
                cases += 1
                x_shift = leapfrog_iter(target, params, x0, -j)
                cache_s = OrbitCache(target, params, x_shift)
                got = dict(orbit_select_pmf(cache_s, cfg.k_m)).get((lo + j, hi + j))
                if got != fr:
                    mismatches += 1
                    details.append(
                        {
                            "interval": [lo, hi],
                            "shift": j,
                            "expected": str(fr),
                            "got": None if got is None else str(got),
                        }
                    )
    return CheckReport(
        check="ph_symmetry",
        passed=mismatches == 0,
        tolerance=0.0,
        violation=float(mismatches),
        seed=seed,
        config={"k_m": cfg.k_m, "h": cfg.h, "anchors": len(anchors), "cases": cases},
        details=details[:20],
    )


# --- per-orbit detailed balance ----------------------------------------------


def check_detailed_balance(
    target: Target,
    cfg: KernelConfig,
    anchors: Sequence[PhasePoint],
    tol: float = 1e-10,
    seed: int | None = None,
) -> CheckReport:
    """Reversibility of the index-selection kernel on every supported orbit.

    Asserts ``w(a) qhat(a,b) = w(b) qhat(b,a)`` in the log domain with the
    unnormalized leaf weights, for every index pair of every interval in the
    orbit-selection support at every anchor.
    """
    params = cfg.params
    worst = 0.0
    checked = 0
    for x0 in anchors:
        cache = OrbitCache(target, params, x0)
        for (lo, hi), _ in orbit_select_pmf(cache, cfg.k_m):
            # log flux[a, b] = log w(a) qhat(a, b), compared with flux[b, a] for a < b;
            # row a comes from the a-th copy of the interval's tree
            n = hi - lo + 1
            logw = cache.logw_range(lo, hi)
            copies = WeightTree(np.broadcast_to(logw, (n, n)))
            flux = logw[:, None] + copies.qhat_row_log(np.arange(n))
            pairs = np.triu_indices(n, 1)
            lhs, rhs = flux[pairs], flux.T[pairs]
            live = (lhs > -math.inf) | (rhs > -math.inf)  # zero flux both ways passes
            checked += lhs.size
            worst = max(worst, float(np.abs(lhs[live] - rhs[live]).max(initial=0.0)))
    return CheckReport(
        check="detailed_balance",
        passed=worst <= tol,
        tolerance=tol,
        violation=worst,
        seed=seed,
        config={"k_m": cfg.k_m, "h": cfg.h, "anchors": len(anchors), "pairs": checked},
    )


# --- accessibility of the index kernel ----------------------------------------


def _distinct_subtree_weights(tree: WeightTree) -> bool:
    for n in range(1, tree.k + 1):
        lvl = np.sort(tree.level(n))
        if np.any(np.diff(lvl) == 0.0):
            return False
    return True


def check_accessibility(
    weight_trees: Iterable[WeightTree],
    seed: int | None = None,
) -> CheckReport:
    """One-or-two-step positivity of the index kernel.

    For every ordered leaf pair, ``qhat(a,b)`` or ``qhat^2(a,b)`` must be
    positive.  On trees whose same-level subtree weights are pairwise
    distinct, the stronger property holds: ``qhat^{2+j} > 0`` everywhere for
    ``j in {0, 1, 2}``.
    """
    worst = math.inf
    worst_strict = math.inf
    n_trees = 0
    n_distinct = 0
    for tree in weight_trees:
        n_trees += 1
        m1 = tree.qhat_matrix()
        m2 = m1 @ m1
        worst = min(worst, float(np.min(np.maximum(m1, m2))))
        if _distinct_subtree_weights(tree):
            n_distinct += 1
            m3 = m2 @ m1
            m4 = m3 @ m1
            worst_strict = min(
                worst_strict, float(np.min(m2)), float(np.min(m3)), float(np.min(m4))
            )
    passed = worst > 0.0 and (n_distinct == 0 or worst_strict > 0.0)
    return CheckReport(
        check="accessibility",
        passed=passed,
        tolerance=0.0,
        violation=0.0 if passed else 1.0,
        seed=seed,
        config={"trees": n_trees, "distinct_weight_trees": n_distinct},
        details=[{"min_one_or_two_step": worst, "min_powers_2_to_4": worst_strict}],
    )


def random_weight_trees(n: int, k_max: int, rng: np.random.Generator) -> list[WeightTree]:
    trees = []
    for _ in range(n):
        k = int(rng.integers(1, k_max + 1))
        trees.append(WeightTree(2.0 * rng.standard_normal(1 << k)))
    return trees


# --- stationarity by quadrature ------------------------------------------------


def stationarity_quadrature(
    target: Target,
    cfg: KernelConfig,
    n_q: int = 64,
    tol_mean: float = 1e-8,
    tol_rel: float = 1e-6,
    seed: int | None = None,
) -> CheckReport:
    """Push one exact NUTS transition through a Gauss-Hermite grid (d = 1).

    Quadrature over ``q0 ~ pi`` and ``p0 ~ N(0, M)`` with ``n_q`` nodes each;
    at each node the exact transition pmf moves the node mass to its
    destination positions.  Invariance means the pushforward moments equal
    the target moments up to quadrature error.  Reference moments are
    computed by direct quadrature of ``exp(-U)`` (independent of the kernel).
    """
    if target.dim != 1:
        raise ValueError("stationarity_quadrature is 1-D only")
    if n_q < 64:
        raise ValueError("need at least 64 quadrature nodes")
    x_nodes, w_nodes = np.polynomial.hermite.hermgauss(n_q)

    # q-grid: base N(0,1) importance-reweighted to exp(-U)
    qs = math.sqrt(2.0) * x_nodes
    log_wq = np.log(w_nodes) + np.array(
        [0.5 * q * q - target.potential(np.array([q])) for q in qs]
    )
    log_zq = logsumexp(log_wq)
    wq = np.exp(log_wq - log_zq)

    # p-grid: exactly N(0, M) for the 1x1 mass matrix
    sqrt_m = float(cfg.mass.chol_mul(np.ones(1))[0])
    ps = math.sqrt(2.0) * sqrt_m * x_nodes
    wp = w_nodes / math.sqrt(math.pi)

    ref = {m: float(np.sum(wq * qs**m)) for m in (1, 2, 4)}
    push = {1: 0.0, 2: 0.0, 4: 0.0}
    for qi, wqi in zip(qs, wq):
        for pk, wpk in zip(ps, wp):
            pmf = nuts_exact_pmf(target, cfg, PhasePoint(np.array([qi]), np.array([pk])))
            node = wqi * wpk
            for _, pr, pos in pmf.entries:
                x = float(pos[0])
                push[1] += node * pr * x
                push[2] += node * pr * x * x
                push[4] += node * pr * x**4

    err_mean = abs(push[1] - ref[1])
    err_var = abs(push[2] - ref[2]) / max(abs(ref[2]), 1e-300)
    err_m4 = abs(push[4] - ref[4]) / max(abs(ref[4]), 1e-300)
    worst = max(err_mean / max(tol_mean, 1e-300), err_var / tol_rel, err_m4 / tol_rel)
    return CheckReport(
        check="stationarity_quadrature",
        passed=err_mean <= tol_mean and err_var <= tol_rel and err_m4 <= tol_rel,
        tolerance=tol_rel,
        violation=worst * tol_rel,
        seed=seed,
        config={"n_q": n_q, "h": cfg.h, "k_m": cfg.k_m, "target": target.name},
        details=[
            {
                "push_mean": push[1],
                "push_var": push[2],
                "push_m4": push[4],
                "ref_mean": ref[1],
                "ref_var": ref[2],
                "ref_m4": ref[4],
                "err_mean": err_mean,
                "err_var_rel": err_var,
                "err_m4_rel": err_m4,
            }
        ],
    )


# the polar oracle's radial cut-off in u = r^2/2 (e^{-45} is below double
# precision's resolution of 1) and its Gauss-Legendre nodes per panel
_POLAR_U_MAX = 45.0
_POLAR_GL_NODES = 12


def stationarity_polar_exact(
    target: Target,
    cfg: KernelConfig,
    radial_panels: int = 60,
    tol_mean: float = 1e-8,
    tol_rel: float = 1e-6,
    seed: int | None = None,
) -> CheckReport:
    """Discontinuity-aware stationarity quadrature for 1-D Gaussian targets.

    The leapfrog flow of a Gaussian target is linear, so along each ray in
    the whitened ``(q0, p0)`` plane the U-turn pattern, and hence the orbit
    law, is constant: every discontinuity of the transition pushforward is a
    ray through the origin.  Each pairwise turn functional is a quadratic
    form in ``(cos psi, sin psi)``, so this oracle solves for those rays in
    closed form, integrates angularly with Gauss-Legendre panels between
    consecutive rays, and radially with ``radial_panels`` Gauss-Legendre
    panels in ``u = r^2/2`` against ``e^{-u}``.  At an angle
    node, each interval of the orbit law gives one weight tree per radial
    node (the log-weights scale as ``r^2``), and the index rows of all of
    them come from one batched :meth:`WeightTree.qhat_row_log`.  Between rays
    the integrand is piecewise analytic, so the rule resolves the pushforward
    moments far beyond the requested tolerance; unlike the plain tensor
    Gauss-Hermite rule of :func:`stationarity_quadrature`, it is not limited
    by the stopping-rule jumps.
    """
    if target.dim != 1:
        raise ValueError("stationarity_polar_exact is 1-D only")
    if target.name not in ("standard_gaussian", "gaussian"):
        raise ValueError("the polar oracle needs a Gaussian target (linear flow)")
    sigma = float(target.gradient(np.ones(1))[0])
    sqrt_m = float(cfg.mass.chol_mul(np.ones(1))[0])
    params = cfg.params
    j_max = (1 << cfg.k_m) - 1
    idx = np.arange(-j_max, j_max + 1)

    def anchor(psi: float) -> PhasePoint:
        return PhasePoint(
            np.array([math.cos(psi) / math.sqrt(sigma)]),
            np.array([math.sin(psi) * sqrt_m]),
        )

    # closed-form one-step map, iterated: states are linear in (q0, p0), and
    # state j on the unit circle is (Q_j . x, P_j . x), x = (cos psi, sin psi)
    flip = np.diag([1.0, -1.0])
    whiten = np.diag([1.0 / math.sqrt(sigma), sqrt_m])
    stack = np.empty((len(idx), 2, 2))  # rows Q_j, P_j
    for i, j in enumerate(idx):
        g = gaussian_maps(np.array([[sigma]]), cfg.mass, cfg.h, abs(int(j)))
        m2 = np.array([[g.a[0, 0], g.b[0, 0]], [g.at[0, 0], g.bt[0, 0]]])
        stack[i] = (flip @ m2 @ flip if j < 0 else m2) @ whiten

    # The discontinuity rays, in closed form.  For a pair a < b and an end
    # e in {a, b}, the turn functional (P_e . x)((Q_b - Q_a) . x) equals
    # m + r cos(2 psi - phi), zero at psi = (phi +- arccos(-m/r))/2 + k pi.
    # In 1-D p has the sign of M^{-1} p, so these are the criterion's rays.
    ia, ib = np.triu_indices(len(idx), 1)
    dq = np.tile(stack[ib, 0] - stack[ia, 0], (2, 1))
    pe = stack[np.concatenate([ia, ib]), 1]
    m = 0.5 * np.vecdot(pe, dq)
    c = 0.5 * (pe[:, 0] * dq[:, 0] - pe[:, 1] * dq[:, 1])
    s = 0.5 * (pe[:, 0] * dq[:, 1] + pe[:, 1] * dq[:, 0])
    r = np.hypot(c, s)
    hit = (r > 0.0) & (np.abs(m) <= r)
    phi, alpha = np.arctan2(s[hit], c[hit]), np.arccos(-m[hit] / r[hit])
    roots = np.concatenate([phi + alpha, phi - alpha]) / 2 + np.array([[0.0], [math.pi]])
    roots = np.mod(roots.ravel(), 2.0 * math.pi)
    roots[2.0 * math.pi - roots < 1e-12] = 0.0  # a zero at 2 pi is the ray at 0
    cuts = np.unique(roots)
    cuts = cuts[np.diff(cuts, prepend=-1.0) > 1e-12]  # one cut per ray
    panels = np.concatenate([[0.0], cuts, [2.0 * math.pi]])

    # radial rule: Gauss-Legendre panels in u = r^2/2 against e^{-u}
    gl_x, gl_w = np.polynomial.legendre.leggauss(_POLAR_GL_NODES)
    edges = np.linspace(0.0, _POLAR_U_MAX, radial_panels + 1)
    u_nodes = []
    u_weights = []
    for a_e, b_e in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a_e + b_e), 0.5 * (b_e - a_e)
        u = mid + half * gl_x
        u_nodes.append(u)
        u_weights.append(half * gl_w * np.exp(-u))
    u_nodes = np.concatenate(u_nodes)
    u_weights = np.concatenate(u_weights)
    r_nodes = np.sqrt(2.0 * u_nodes)

    ang_x, ang_w = np.polynomial.legendre.leggauss(_POLAR_GL_NODES)
    push = {1: 0.0, 2: 0.0, 4: 0.0}
    n_angles = 0
    for a_e, b_e in zip(panels[:-1], panels[1:]):
        if b_e - a_e < 1e-11:
            continue
        mid, half = 0.5 * (a_e + b_e), 0.5 * (b_e - a_e)
        for xi, wi in zip(ang_x, ang_w):
            psi = mid + half * xi
            w_ang = half * wi / (2.0 * math.pi)
            n_angles += 1
            x0 = anchor(psi)
            cache = OrbitCache(target, params, x0)
            for (lo, hi), frac in orbit_select_pmf(cache, cfg.k_m):
                node_w = w_ang * float(frac)
                qs_unit = np.array([float(cache.state(j).q[0]) for j in range(lo, hi + 1)])
                logw = 2.0 * np.outer(u_nodes, cache.logw_range(lo, hi))  # -H at r = sqrt(2u)
                rows = np.exp(WeightTree(logw).qhat_row_log(-lo))
                qdest = r_nodes[:, None] * qs_unit[None, :]
                for m in (1, 2, 4):
                    push[m] += node_w * float(
                        np.sum(u_weights[:, None] * rows * qdest**m)
                    )

    ref = {1: 0.0, 2: 1.0 / sigma, 4: 3.0 / sigma**2}
    err_mean = abs(push[1] - ref[1])
    err_var = abs(push[2] - ref[2]) / abs(ref[2])
    err_m4 = abs(push[4] - ref[4]) / abs(ref[4])
    return CheckReport(
        check="stationarity_polar_exact",
        passed=err_mean <= tol_mean and err_var <= tol_rel and err_m4 <= tol_rel,
        tolerance=tol_rel,
        violation=max(err_mean / tol_mean * tol_rel, err_var, err_m4),
        seed=seed,
        config={
            "h": cfg.h,
            "k_m": cfg.k_m,
            "n_discontinuity_rays": int(cuts.size),
            "angular_nodes": n_angles,
            "radial_nodes": int(u_nodes.size),
        },
        details=[
            {
                "push_mean": push[1],
                "push_var": push[2],
                "push_m4": push[4],
                "err_mean": err_mean,
                "err_var_rel": err_var,
                "err_m4_rel": err_m4,
            }
        ],
    )


# --- statistical invariance -----------------------------------------------------


def _transition_rows(
    target: Target,
    cfg: KernelConfig,
    before: np.ndarray,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> np.ndarray:
    """One transition of the kernel ``cfg.kind`` names from each row of
    ``before``: for iterative NUTS the rows of one
    :func:`kernels.nuts_step_iterative_rows` call, which draws the momenta and
    then each stage's uniforms in blocks from ``rng``; for the other kinds one
    transition per row, in order."""
    if cfg.kind == "nuts_iterative":
        return nuts_step_iterative_rows(target, cfg, before, rng, mutate=mutate)[0]
    step = make_kernel(target, cfg, mutate=mutate)
    return np.array([step(q, rng)[0] for q in before])


def statistical_invariance(
    target: Target,
    cfg: KernelConfig,
    n: int,
    seed: int = 0,
    alpha: float = 1e-3,
    mutate: str | None = None,
) -> CheckReport:
    """One-transition invariance test from exact Gaussian starts.

    Draws ``n`` exact samples, applies one transition of the kernel
    ``cfg.kind`` names to each, and runs paired z-tests on every first and
    second moment plus a two-sample KS test per coordinate, Bonferroni-
    corrected to overall level ``alpha``.  With fewer than 1000 samples the
    report is marked under-powered rather than passed or failed.  The
    documented negative control is ``mutate="always-swap"``.

    The transitions are taken by :func:`_transition_rows`.
    """
    if target.name not in ("standard_gaussian", "gaussian"):
        raise ValueError("statistical_invariance needs exact target sampling (Gaussian)")
    rng = np.random.default_rng(seed)
    d = target.dim
    z = rng.standard_normal((n, d))
    if target.name == "standard_gaussian":
        before = z
    else:
        # precision sigma = L L^T: exact samples are L^{-T} z
        sigma = _precision_of(target, d)
        lmat = np.linalg.cholesky(sigma)
        before = np.linalg.solve(lmat.T, z.T).T
    after = _transition_rows(target, cfg, before, rng, mutate)

    n_tests = d + d * (d + 1) // 2 + d
    each = alpha / n_tests
    z_crit = float(sps.norm.ppf(1.0 - each / 2.0))
    worst_z = 0.0
    details = []

    def paired_z(diff: np.ndarray, label: str) -> None:
        nonlocal worst_z
        sd = float(np.std(diff, ddof=1))
        zval = 0.0 if sd == 0.0 else float(np.mean(diff)) / (sd / math.sqrt(len(diff)))
        worst_z = max(worst_z, abs(zval))
        details.append({"test": label, "z": zval})

    for i in range(d):
        paired_z(after[:, i] - before[:, i], f"mean[{i}]")
    for i in range(d):
        for j in range(i, d):
            paired_z(
                after[:, i] * after[:, j] - before[:, i] * before[:, j], f"cov[{i},{j}]"
            )
    min_ks_p = 1.0
    for i in range(d):
        ks = sps.ks_2samp(before[:, i], after[:, i])
        min_ks_p = min(min_ks_p, float(ks.pvalue))
        details.append({"test": f"ks[{i}]", "pvalue": float(ks.pvalue)})

    underpowered = n < 1000
    passed = underpowered or (worst_z <= z_crit and min_ks_p >= each)
    return CheckReport(
        check="statistical_invariance",
        passed=passed,
        tolerance=z_crit,
        violation=worst_z,
        seed=seed,
        config={
            "n": n,
            "dim": d,
            "h": cfg.h,
            "k_m": cfg.k_m,
            "alpha": alpha,
            "tests": n_tests,
            "mutate": mutate,
        },
        details=details,
        underpowered=underpowered,
    )


def _precision_of(target: Target, d: int) -> np.ndarray:
    # recover sigma from the gradient (linear for Gaussian targets)
    eye = np.eye(d)
    cols = [target.gradient(eye[i]) for i in range(d)]
    return np.column_stack(cols)


# --- drift --------------------------------------------------------------------


def drift_estimate(
    target: Target,
    cfg: KernelConfig,
    a: float,
    radius: float,
    n: int,
    seed: int = 0,
) -> DriftEstimate:
    """Estimate the Lyapunov ratio ``E exp(a(|q'| - |q|))`` at ``|q| = radius``.

    The ``n`` transitions start from one ``q`` with fresh momenta, taken by
    :func:`_transition_rows` as in :func:`statistical_invariance`.  A ratio
    sample past the float range makes ``ratio``, ``se`` and ``ci_high``
    ``inf`` and ``ci_low`` ``-inf``.
    """
    if a < 0:
        raise ValueError("drift exponent must be nonnegative")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(target.dim)
    direction /= np.linalg.norm(direction)
    q = radius * direction
    after = _transition_rows(target, cfg, np.tile(q, (n, 1)), rng)
    try:
        ratios = np.array([math.exp(a * (float(np.linalg.norm(q_new)) - radius)) for q_new in after])
    except OverflowError:  # a sample past the float range
        ratios = np.array([math.inf])
    with np.errstate(over="ignore"):  # finite samples whose sum or squares overflow
        mean = float(np.mean(ratios))
        finite = mean < math.inf
        se = float(np.std(ratios, ddof=1)) / math.sqrt(n) if n > 1 and finite else math.inf
    zq = 2.5758293035489004  # 99% two-sided normal quantile
    ci_low = mean - zq * se if finite else -math.inf
    return DriftEstimate(
        a=a, radius=radius, n=n, ratio=mean, se=se, ci_low=ci_low, ci_high=mean + zq * se
    )


# --- tail conditions ------------------------------------------------------------


def tail_conditions(
    target: Target,
    cfg: KernelConfig,
    radius: float,
    gamma: float,
    n: int = 100,
    seed: int = 0,
) -> CheckReport:
    """Inward-drift and energy-decrease inequalities far out in the tails.

    At sampled ``(q0, p0)`` with ``|q0| = radius`` and ``|p0| <= radius^gamma``
    (the worst case, momentum aligned outward at the norm cap, is always
    included), asserts ``|q_j| - |q0| <= -1`` for every nonzero ``j`` up to
    ``+-2^K_m`` and ``H(x_j) - H(x_0) <= 0`` for ``j = +-1``.  The momentum
    flip symmetry of the ``j = -1`` case is asserted exactly.  A doubling
    scan reports the smallest radius at which both conditions held.
    """
    rng = np.random.default_rng(seed)
    params = cfg.params
    d = target.dim
    j_max = 1 << cfg.k_m
    p_cap = radius**gamma

    def sample_points(rad: float, cap: float, count: int) -> list[PhasePoint]:
        pts = []
        for i in range(count):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            q0 = rad * u
            if i == 0:
                p0 = cap * u  # worst case: full-norm outward
            elif i == 1:
                p0 = -cap * u
            else:
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                p0 = cap * rng.random() ** (1.0 / d) * v
            pts.append(PhasePoint(q0, p0))
        return pts

    def both_hold(rad: float, count: int) -> tuple[bool, float, float]:
        worst_drop = -math.inf
        worst_dh = -math.inf
        cap = rad**gamma
        for x0 in sample_points(rad, cap, count):
            h0 = hamiltonian(target, cfg.mass, x0)
            cache = OrbitCache(target, params, x0)
            cache.extend_to(-j_max, j_max)
            for j in range(-j_max, j_max + 1):
                if j == 0:
                    continue
                # a change that is not finite counts as +inf: max skips a nan
                drop = float(np.linalg.norm(cache.state(j).q)) - rad
                worst_drop = max(worst_drop, drop if math.isfinite(drop) else math.inf)
            for j in (-1, 1):
                dh = hamiltonian(target, cfg.mass, cache.state(j)) - h0
                worst_dh = max(worst_dh, dh if math.isfinite(dh) else math.inf)
        return (worst_drop <= -1.0 and worst_dh <= 0.0), worst_drop, worst_dh

    ok, worst_drop, worst_dh = both_hold(radius, n)

    # exact +-1 flip symmetry: H(Phi^{-1}(q, p)) equals H(Phi^{+1}(q, -p))
    flip_exact = True
    for x0 in sample_points(radius, p_cap, 10):
        xm = leapfrog_iter(target, params, x0, -1)
        xp = leapfrog_iter(target, params, PhasePoint(x0.q, -x0.p), 1)
        if hamiltonian(target, cfg.mass, xm) != hamiltonian(target, cfg.mass, xp):
            flip_exact = False

    # doubling scan for the onset radius (up to one doubling past the target)
    scan_radius = None
    rad = 1.0
    while rad <= 2.0 * radius:
        if both_hold(rad, min(n, 20))[0]:
            scan_radius = rad
            break
        rad *= 2.0

    return CheckReport(
        check="tail_conditions",
        passed=ok and flip_exact,
        tolerance=0.0,
        violation=max(worst_drop + 1.0, worst_dh, 0.0 if flip_exact else 1.0),
        seed=seed,
        config={"radius": radius, "gamma": gamma, "h": cfg.h, "k_m": cfg.k_m, "n": n},
        details=[
            {
                "worst_norm_change": worst_drop,
                "worst_energy_change": worst_dh,
                "flip_symmetry_exact": flip_exact,
                "scan_onset_radius": scan_radius,
            }
        ],
    )


# --- step size conditions --------------------------------------------------------

_S_CAP = 1e6  # the largest step bound tail_step_bound reports

def growth_poly(s: float) -> float:
    """The growth polynomial ``1 + s/2 + s^2/4`` entering the step bounds."""
    return 1.0 + 0.5 * s + 0.25 * s * s


def gradient_growth_poly(s: float, l1: float, m1: float) -> float:
    r = math.sqrt(l1)
    return m1 / r + 0.5 * m1 * s + 0.25 * r * m1 * s * s


def tail_contraction(s: float, l1: float, m1: float) -> float:
    """Tail-contraction functional whose sub-level set bounds the step size."""
    r = math.sqrt(l1)
    expo = r * s * growth_poly(r * s)
    if expo > 700.0:
        return math.inf
    e = math.expm1(expo)
    v2 = gradient_growth_poly(s, l1, m1)
    return 2.0 * r * v2 * e + 6.0 * s * s * (m1 * m1 + l1 * v2 * v2 * e * e)


def doubling_stability_value(l1: float, h: float, k_m: int) -> float:
    """LHS of the doubling-stability condition; must be below 1/4.

    ``inf`` where the power overflows a float.
    """
    x = h * math.sqrt(l1)
    try:
        return (1.0 + x * growth_poly(x)) ** (2.0**k_m) - 1.0
    except OverflowError:
        return math.inf


def trajectory_uniqueness_margin(l1: float, h: float, t: int) -> float:
    """``2(1 - cos(pi/T)) - L1 h^2``; positive iff the sharp condition holds."""
    return 2.0 * (1.0 - math.cos(math.pi / t)) - l1 * h * h


def tail_step_bound(l1: float, m1: float, a1: float) -> float:
    """Largest ``S`` with ``Theta(s) < A1`` on ``(0, S]``, by bisection.

    ``Theta`` is continuous, vanishes at 0 and is increasing, so the level
    crossing is unique; if none occurs below ``_S_CAP`` the cap is returned.
    """
    if not (tail_contraction(_S_CAP, l1, m1) > a1):
        return _S_CAP
    lo, hi = 0.0, 1.0
    while tail_contraction(hi, l1, m1) < a1:
        lo, hi = hi, min(hi * 2.0, _S_CAP)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail_contraction(mid, l1, m1) < a1:
            lo = mid
        else:
            hi = mid
    return lo


def stepsize_conditions(
    l1: float | None = None,
    h: float | None = None,
    k_m: int | None = None,
    t: int | None = None,
    m1: float | None = None,
    a1: float | None = None,
) -> dict:
    """Evaluate the three step-size validators for whichever constants exist.

    Returns a dict with keys ``doubling_stability``, ``trajectory_uniqueness``
    and ``tail_step_bound``; validators
    whose constants are missing are reported as such rather than guessed.
    """
    report: dict = {}
    if l1 is not None and h is not None and k_m is not None:
        val = doubling_stability_value(l1, h, k_m)
        report["doubling_stability"] = {"value": val, "bound": 0.25, "pass": val < 0.25}
    else:
        report["doubling_stability"] = {"missing": "l1, h, k_m"}
    if l1 is not None and h is not None and t is not None:
        margin = trajectory_uniqueness_margin(l1, h, t)
        report["trajectory_uniqueness"] = {
            "lhs": l1 * h * h,
            "rhs": 2.0 * (1.0 - math.cos(math.pi / t)),
            "pass": margin > 0.0,
        }
    else:
        report["trajectory_uniqueness"] = {"missing": "l1, h, t"}
    if l1 is not None and m1 is not None and a1 is not None:
        s_bar = tail_step_bound(l1, m1, a1)
        report["tail_step_bound"] = {"s_bar": s_bar, "capped": s_bar >= _S_CAP}
    else:
        report["tail_step_bound"] = {"missing": "l1, m1, a1"}
    return report


# --- U-turn degeneracy scan -------------------------------------------------------


def uturn_degeneracy_scan(
    target: Target,
    cfg: KernelConfig,
    q: np.ndarray,
    n: int,
    seed: int = 0,
) -> CheckReport:
    """Probe the zero set of the pairwise turn functionals at a fixed position.

    For each sampled momentum and every index pair ``T1 != T2`` in the orbit
    range, evaluates the U-turn criterion's functional
    ``F = v_{T1} . (q_{T1} - q_{T2})`` with velocity ``v = M^{-1} p`` and
    reports the fraction of exact zeros and of near-zeros, ``|F| <= 1e-12
    |v_{T1}| |q_{T1} - q_{T2}|``, which no choice of units or origin moves.
    This is a density heuristic for the non-degeneracy of the stopping
    geometry, not a proof; zero momenta are reported separately and
    excluded from the statistic.
    """
    rng = np.random.default_rng(seed)
    params = cfg.params
    j_max = (1 << cfg.k_m) - 1
    idx = list(range(-j_max, j_max + 1))
    total = 0
    zeros = 0
    near = 0
    skipped_zero_p = 0
    for _ in range(n):
        p = momentum_refresh(cfg.mass, rng)
        if float(np.linalg.norm(p)) == 0.0:
            skipped_zero_p += 1
            continue
        cache = OrbitCache(target, params, PhasePoint(np.asarray(q, float), p))
        cache.extend_to(-j_max, j_max)
        qs = np.stack([cache.state(j).q for j in idx])
        vs = cfg.mass.inv_mul(np.stack([cache.state(j).p for j in idx]))
        g = vs @ qs.T
        f = np.diag(g)[:, None] - g  # F[t1, t2] = v_{t1} . (q_{t1} - q_{t2})
        scale = np.linalg.norm(vs, axis=1)[:, None] * np.linalg.norm(qs[:, None] - qs, axis=2)
        mask = ~np.eye(len(idx), dtype=bool)
        total += int(mask.sum())
        zeros += int(np.sum((f == 0.0) & mask))
        near += int(np.sum((np.abs(f) <= 1e-12 * scale) & mask))
    return CheckReport(
        check="uturn_degeneracy_scan",
        passed=zeros == 0,
        tolerance=0.0,
        violation=float(zeros),
        seed=seed,
        config={"n": n, "k_m": cfg.k_m, "h": cfg.h},
        details=[
            {
                "pairs": total,
                "exact_zero_fraction": zeros / max(total, 1),
                "near_zero_fraction": near / max(total, 1),
                "zero_momenta_excluded": skipped_zero_p,
            }
        ],
    )


# --- long-run ergodicity surrogate -----------------------------------------------


def batch_means_se(values: np.ndarray) -> float:
    """Standard error of the chain mean by the batch-means method."""
    n, n_batches = len(values), 50
    if n < 2 * n_batches:
        return math.inf
    size = n // n_batches
    batches = values[: size * n_batches].reshape(n_batches, size).mean(axis=1)
    return float(np.std(batches, ddof=1)) / math.sqrt(n_batches)


def ergodicity_run(
    target: Target,
    cfg: KernelConfig,
    iters: int,
    seed: int = 0,
    q0: np.ndarray | None = None,
    ref_mean: np.ndarray | None = None,
    ref_second: np.ndarray | None = None,
    n_se: float = 5.0,
) -> CheckReport:
    """Single long chain from a far-out start, moments against references.

    Post burn-in (first fifth), per-coordinate means and second moments must
    fall within ``n_se`` batch-means standard errors of the reference values
    when given.  For multimodal 1-D targets the visit counts of both
    half-lines are reported (and checked by the caller).  Zero or tiny runs
    are reported as under-powered, not failed.
    """
    rng = np.random.default_rng(seed)
    d = target.dim
    q = np.zeros(d) if q0 is None else np.asarray(q0, dtype=float)
    step = make_kernel(target, cfg)
    chain = np.empty((iters, d))
    for i in range(iters):
        q, _ = step(q, rng)
        chain[i] = q

    underpowered = iters < 1000
    if underpowered:
        return CheckReport(
            check="ergodicity_run",
            passed=True,
            tolerance=n_se,
            violation=0.0,
            seed=seed,
            config={"iters": iters},
            underpowered=True,
        )

    burn = iters // 5
    post = chain[burn:]
    worst = 0.0
    details = []
    for i in range(d):
        if ref_mean is not None:
            se = batch_means_se(post[:, i])
            dev = abs(float(np.mean(post[:, i])) - float(ref_mean[i])) / se
            worst = max(worst, dev)
            details.append({"stat": f"mean[{i}]", "dev_se": dev})
        if ref_second is not None:
            se = batch_means_se(post[:, i] ** 2)
            dev = abs(float(np.mean(post[:, i] ** 2)) - float(ref_second[i])) / se
            worst = max(worst, dev)
            details.append({"stat": f"second[{i}]", "dev_se": dev})
    visits_neg = int(np.sum(chain[:, 0] < 0.0))
    visits_pos = int(np.sum(chain[:, 0] > 0.0))
    details.append({"visits_negative": visits_neg, "visits_positive": visits_pos})
    return CheckReport(
        check="ergodicity_run",
        passed=worst <= n_se,
        tolerance=n_se,
        violation=worst,
        seed=seed,
        config={"iters": iters, "h": cfg.h, "k_m": cfg.k_m, "dim": d},
        details=details,
    )


# --- chi-squared goodness of fit (shared by sampler-vs-pmf tests) ----------------


def index_counts(
    target: Target,
    cfg: KernelConfig,
    x0: PhasePoint,
    n: int,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> dict[int, int]:
    """Counts of ``j_f`` over ``n`` iterative NUTS transitions from ``x0``:
    the rows of one :func:`kernels.nuts_transition_iterative_rows` call on
    ``x0`` tiled ``n`` times."""
    tiled = PhasePoint(np.tile(x0.q, (n, 1)), np.tile(x0.p, (n, 1)))
    _, rows = nuts_transition_iterative_rows(target, cfg, tiled, rng, mutate=mutate)
    js, counts = np.unique(rows.j_f, return_counts=True)
    return dict(zip(js.tolist(), counts.tolist()))


def chi2_gof(counts: dict[int, int], probs: dict[int, float], n: int) -> float:
    """P-value of the chi-squared test of observed counts against exact probs.

    Bins with expected count below 5 are merged into the most probable bin,
    so that every tested cell is large: pooled on their own, a few rare bins
    expected to hold well under one draw read p far too small.  Observed
    indices outside the exact support make the test fail outright (p = 0).
    """
    for j in counts:
        if probs.get(j, 0.0) == 0.0:
            return 0.0
    mode = max(probs, key=probs.get)
    stat = 0.0
    merged_obs = 0.0
    merged_exp = 0.0
    dof = 0
    for j, pr in probs.items():
        exp = n * pr
        obs = counts.get(j, 0)
        if exp < 5.0 or j == mode:
            merged_obs += obs
            merged_exp += exp
            continue
        stat += (obs - exp) ** 2 / exp
        dof += 1
    if merged_exp > 0.0:
        stat += (merged_obs - merged_exp) ** 2 / merged_exp
        dof += 1
    dof = max(dof - 1, 1)
    return float(sps.chi2.sf(stat, dof))
