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
    nuts_step_recursive,
)
from .leapfrog import leapfrog_iter
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


def _gauss_anchor(dim: int, mass: MassMatrix, rng: np.random.Generator, scale=1.5) -> PhasePoint:
    q = scale * rng.standard_normal(dim)
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
        pmf0 = orbit_select_pmf(cache, cfg.k_m)
        table = {(iv.lo, iv.hi): fr for iv, fr in pmf0}
        for (lo, hi), fr in table.items():
            for j in range(-hi, -lo + 1):
                if j == 0:
                    continue
                cases += 1
                x_shift = leapfrog_iter(target, params, x0, -j)
                cache_s = OrbitCache(target, params, x_shift)
                pmf_s = orbit_select_pmf(cache_s, cfg.k_m)
                table_s = {(ivs.lo, ivs.hi): frs for ivs, frs in pmf_s}
                got = table_s.get((lo + j, hi + j), None)
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
        for iv, _ in orbit_select_pmf(cache, cfg.k_m):
            tree = WeightTree.from_orbit(cache, iv)
            # log flux[a, b] = log w(a) qhat(a, b), compared with flux[b, a] for a < b
            n = len(iv)
            flux = tree.leaves[:, None] + np.stack([tree.qhat_row_log(a) for a in range(n)])
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


def random_weight_trees(
    n: int, k_max: int, rng: np.random.Generator, scale: float = 2.0
) -> list[WeightTree]:
    trees = []
    for _ in range(n):
        k = int(rng.integers(1, k_max + 1))
        trees.append(WeightTree(scale * rng.standard_normal(1 << k)))
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


def stationarity_polar_exact(
    target: Target,
    cfg: KernelConfig,
    n_scan: int = 32768,
    u_max: float = 45.0,
    radial_panels: int = 60,
    gl_radial: int = 12,
    gl_angular: int = 12,
    tol_mean: float = 1e-8,
    tol_rel: float = 1e-6,
    seed: int | None = None,
) -> CheckReport:
    """Discontinuity-aware stationarity quadrature for 1-D Gaussian targets.

    The leapfrog flow of a Gaussian target is linear, so along each ray in
    the whitened ``(q0, p0)`` plane the U-turn pattern, and hence the orbit
    law, is constant: every discontinuity of the transition pushforward is a
    ray through the origin.  This oracle finds those rays (sign scan plus
    bisection over all pairwise turn functionals), integrates angularly with
    Gauss-Legendre panels between consecutive rays, and radially with
    Gauss-Legendre panels in ``u = r^2/2`` against ``e^{-u}``.  At an angle
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

    # closed-form one-step map, iterated: states are linear in (q0, p0)
    from .leapfrog import gaussian_maps

    mats = {}
    for j in idx:
        g = gaussian_maps(np.array([[sigma]]), cfg.mass, cfg.h, abs(int(j)))
        m2 = np.array([[g.a[0, 0], g.b[0, 0]], [g.at[0, 0], g.bt[0, 0]]])
        if j < 0:
            flip = np.diag([1.0, -1.0])
            m2 = flip @ m2 @ flip
        mats[int(j)] = m2

    def anchor(psi: float) -> PhasePoint:
        return PhasePoint(
            np.array([math.cos(psi) / math.sqrt(sigma)]),
            np.array([math.sin(psi) * sqrt_m]),
        )

    # pairwise turn functionals on the unit circle, vectorized over angles
    whiten = np.diag([1.0 / math.sqrt(sigma), sqrt_m])
    stack = np.stack([mats[int(j)] @ whiten for j in idx])  # (n_idx, 2, 2)

    # pair (ia[r], ib[r]), ia < ib, gives rows 2r (right) and 2r + 1 (left)
    ia, ib = np.triu_indices(len(idx), 1)

    def pair_values(psis: np.ndarray, lo=ia, hi=ib) -> np.ndarray:
        x0 = np.stack([np.cos(psis), np.sin(psis)])  # (2, n)
        states = np.einsum("jab,bn->jan", stack, x0)  # (n_idx, 2, n)
        qs, ps = states[:, 0, :], states[:, 1, :]
        dq = qs[hi] - qs[lo]
        out = np.empty((2 * len(lo), len(psis)))
        out[0::2] = ps[hi] * dq
        out[1::2] = ps[lo] * dq
        return out  # (n_pairs*2, n)

    def bisect(row: int, lo_psi: float, hi_psi: float) -> float:
        r = row // 2

        # psi % 2pi is exact on [0, 2pi) and closes the wrap-around segment
        def f(psi: float) -> float:
            vals = pair_values(np.array([psi % (2.0 * math.pi)]), ia[r : r + 1], ib[r : r + 1])
            return float(vals[row % 2, 0])

        f_lo = f(lo_psi)
        for _ in range(60):
            mid = 0.5 * (lo_psi + hi_psi)
            f_mid = f(mid)
            if (f_mid < 0) == (f_lo < 0):
                lo_psi, f_lo = mid, f_mid
            else:
                hi_psi = mid
        return 0.5 * (lo_psi + hi_psi)

    # locate discontinuity angles by sign scan + bisection
    grid = np.linspace(0.0, 2.0 * math.pi, n_scan, endpoint=False)
    roots: list[float] = []
    chunk = 8192
    prev_vals = pair_values(grid[:1])
    first_vals = prev_vals.copy()
    prev_psi = grid[0]
    for start in range(1, n_scan, chunk):
        psis = grid[start : start + chunk]
        vals = pair_values(psis)
        allv = np.concatenate([prev_vals, vals], axis=1)
        allp = np.concatenate([[prev_psi], psis])
        sign_change = np.signbit(allv[:, :-1]) != np.signbit(allv[:, 1:])
        rows, cols = np.nonzero(sign_change)
        for r, c in zip(rows, cols):
            roots.append(bisect(r, allp[c], allp[c + 1]))
        prev_vals = vals[:, -1:]
        prev_psi = psis[-1]
    # wrap-around segment
    sign_change = np.signbit(prev_vals[:, 0]) != np.signbit(first_vals[:, 0])
    for r in np.nonzero(sign_change)[0]:
        roots.append(bisect(r, prev_psi, 2.0 * math.pi))

    cuts = np.unique(np.asarray(sorted(roots)))
    if cuts.size:
        keep = np.concatenate([[True], np.diff(cuts) > 1e-12])
        cuts = cuts[keep]
    panels = np.concatenate([[0.0], cuts, [2.0 * math.pi]])

    # radial rule: Gauss-Legendre panels in u = r^2/2 against e^{-u}
    gl_x, gl_w = np.polynomial.legendre.leggauss(gl_radial)
    edges = np.linspace(0.0, u_max, radial_panels + 1)
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

    ang_x, ang_w = np.polynomial.legendre.leggauss(gl_angular)
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
            for iv, frac in orbit_select_pmf(cache, cfg.k_m):
                node_w = w_ang * float(frac)
                eta = np.array([-cache.logw(j) for j in iv])  # H at unit radius
                qs_unit = np.array([float(cache.state(j).q[0]) for j in iv])
                logw = -2.0 * np.outer(u_nodes, eta)
                rows = np.exp(WeightTree(logw).qhat_row_log(iv.iota(0)))
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
    step = make_kernel(target, cfg, mutate=mutate)
    after = np.empty_like(before)
    for i in range(n):
        after[i], _ = step(before[i], rng)

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
    """Estimate the Lyapunov ratio ``E exp(a(|q'| - |q|))`` at ``|q| = radius``."""
    if a < 0:
        raise ValueError("drift exponent must be nonnegative")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(target.dim)
    direction /= np.linalg.norm(direction)
    q = radius * direction
    step = make_kernel(target, cfg)
    ratios = np.empty(n)
    for i in range(n):
        q_new, _ = step(q, rng)
        ratios[i] = math.exp(a * (float(np.linalg.norm(q_new)) - radius))
    mean = float(np.mean(ratios))
    se = float(np.std(ratios, ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    zq = 2.5758293035489004  # 99% two-sided normal quantile
    return DriftEstimate(
        a=a, radius=radius, n=n, ratio=mean, se=se, ci_low=mean - zq * se, ci_high=mean + zq * se
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
                drop = float(np.linalg.norm(cache.state(j).q)) - rad
                worst_drop = max(worst_drop, drop)
            for j in (-1, 1):
                xj = cache.state(j)
                worst_dh = max(worst_dh, hamiltonian(target, cfg.mass, xj) - h0)
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


def tail_step_bound(l1: float, m1: float, a1: float, s_cap: float = 1e6) -> float:
    """Largest ``S`` with ``Theta(s) < A1`` on ``(0, S]``, by bisection.

    ``Theta`` is continuous, vanishes at 0 and is increasing, so the level
    crossing is unique; if none occurs below ``s_cap`` the cap is returned.
    """
    if not (tail_contraction(s_cap, l1, m1) > a1):
        return s_cap
    lo, hi = 0.0, min(1.0, s_cap)
    while tail_contraction(hi, l1, m1) < a1:
        lo, hi = hi, min(hi * 2.0, s_cap)
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
        report["tail_step_bound"] = {"s_bar": s_bar, "capped": s_bar >= 1e6}
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
    range, evaluates ``F = p_{T1} . (q_{T1} - q_{T2})`` and reports the
    fraction of exact zeros and near-zeros.  This is a density heuristic for
    the non-degeneracy of the stopping geometry, not a proof; zero momenta
    are reported separately and excluded from the statistic.
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
        ps = np.stack([cache.state(j).p for j in idx])
        g = ps @ qs.T
        f = np.diag(g)[:, None] - g  # F[t1, t2] = p_{t1} . (q_{t1} - q_{t2})
        scale = np.maximum(1.0, np.abs(np.diag(g))[:, None])
        mask = ~np.eye(len(idx), dtype=bool)
        total += int(mask.sum())
        zeros += int(np.sum((f == 0.0) & mask))
        near += int(np.sum((np.abs(f) < 1e-12 * scale) & mask))
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


def batch_means_se(values: np.ndarray, n_batches: int = 50) -> float:
    """Standard error of the chain mean by the batch-means method."""
    n = len(values)
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
