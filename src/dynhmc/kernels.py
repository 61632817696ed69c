"""Assembled Markov kernels: NUTS (iterative and recursive), HMC, MALA, rHMC.

All kernels share the same anatomy: refresh the momentum from ``N(0, M)``,
pick a set of leapfrog indices around the current point, pick one index from
that set so the induced weights ``exp(-H)`` stay invariant, and return the
position there (the momentum is discarded).  The NUTS kernels instantiate
orbit selection with the doubling/U-turn rule and index selection with biased
progressive sampling; HMC is the degenerate instance whose orbit is ``{0, T}``
and whose index selection is the Metropolis coin.

Per iterative NUTS step the randomness stream is fixed: ``d`` normals for
the momentum, then per doubling level attempted exactly one direction
uniform, one multinomial uniform and one swap uniform, whether or not the
level is accepted and however many of its states are computed.  This makes
every run reproducible from ``(seed, config)`` independent of internal
control flow.  The multinomial uniform is drawn at every level even where
it is not read: stage 0 adds a single state, which is its own pick, and a
later stage's pick from its new half is kept only when its swap accepts and
no later swap overwrites it, so the scalar sampler makes one multinomial
pick per transition, at the last later stage whose swap took.  The rows
sampler (:func:`nuts_step_iterative_rows`) moves C independent chains at
once and draws the same uniforms in blocks: one ``(C, d)`` block of
momentum normals, then per stage one ``(C_stage, 3)`` block with a row for
each chain that enters the stage, in chain order.  At ``C = 1`` this is
the scalar stream.  Its rows are the scalar sampler's bit for bit, the
logs, swap coins and running totals of a stage included; its rows from one
anchor tiled ``n`` times are the ``n`` draws that the law checks count.

``nuts_exact_pmf`` computes the one-step law at a fixed phase point exactly
(dyadic orbit probabilities times closed-form index rows); it is the oracle
against which both samplers are tested.

Every kernel steps through :func:`leapfrog.leapfrog_step_with_grad`, one call
per state, and weighs states through :mod:`orbit`, so all share its
divergence rule: non-finite states or energies, or a squared norm
``|q|^2 + |p|^2`` that overflows.  A divergent state has weight zero.  A
weighed state is :func:`orbit._weigh`'s plain tuple
``(q, p, vel, logw, diverged)``.  The recursive sampler steps and weighs
each state with :func:`orbit._advance` and holds its states and subtrees as
plain tuples too (their layouts are in :func:`_build_tree`): it builds no
object per state or per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .index_select import (
    WeightTree,
    accept_log_ratio,
    logaddexp,
    logsumexp,
    multinomial_pick,
)
# perfbench/tracing.py wraps leapfrog_step_with_grad under leapfrog, orbit and
# this module, and no_uturns under orbit and this module.  The rows sampler
# steps by this module's name, the recursive one through orbit._advance, so by
# orbit's; no_uturns stays importable from here
from .leapfrog import (  # noqa: F401
    LeapfrogParams,
    Step,
    _trajectory,
    leapfrog_step_with_grad,
)
from .orbit import (  # noqa: F401
    OrbitCache,
    _advance,
    _weigh,
    _weigh_rows,
    is_uturn,
    is_uturn_rows,
    no_uturns,
    orbit_select_pmf,
)
from .targets import MassMatrix, PhasePoint, Target, gradient_rows, momentum_refresh

KERNEL_KINDS = ("nuts_iterative", "nuts_recursive", "hmc", "rhmc")

# verification hook: "always-swap" skips the progressive swap coin, a
# deliberately broken kernel used as a negative control by the checks
MUTATIONS = (None, "always-swap")


@dataclass(frozen=True)
class KernelConfig:
    kind: str
    h: float
    mass: MassMatrix
    k_m: int = 10
    t: int = 1
    weights: np.ndarray | None = None  # rHMC mixture over T = 1 .. len(weights)

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"step size must be positive and finite, got {self.h}")
        if not 1 <= self.k_m <= 20:
            raise ValueError(f"k_m = {self.k_m} outside [1, 20]")
        if self.t < 1:
            raise ValueError(f"t = {self.t} must be >= 1")
        if self.kind == "rhmc":
            w = np.asarray(self.weights, dtype=float)
            # a nan passes both comparisons below, so finiteness is checked first
            if (w.ndim != 1 or w.size < 1 or not np.isfinite(w).all() or np.any(w < 0)
                    or abs(w.sum() - 1.0) > 1e-12):
                raise ValueError("rhmc weights must be finite, nonnegative and sum to 1")
            object.__setattr__(self, "weights", w)

    @cached_property
    def params(self) -> LeapfrogParams:
        """The step parameters, built and validated once per config."""
        return LeapfrogParams(self.h, self.mass)


@dataclass(frozen=True)
class TransitionInfo:
    """Per-transition diagnostics.  Carries no momentum state by design.

    ``i_f`` holds the boundary indices of the selected set: the full
    contiguous interval for NUTS, the two-point set ``{0, T}`` for HMC.
    """

    j_f: int
    i_f: tuple[int, int]
    k_f: int
    n_grad: int
    diverged: bool
    accepted: bool | None = None  # HMC only
    t: int | None = None  # HMC/rHMC number of leapfrog steps


@dataclass(frozen=True)
class ExactPMF:
    """Exact one-step transition law at a fixed phase point."""

    anchor: PhasePoint
    entries: list  # (j, probability, position) sorted by j

    def probs_dict(self) -> dict[int, float]:
        return {j: pr for j, pr, _ in self.entries}

    def total(self) -> float:
        return float(sum(pr for _, pr, _ in self.entries))

    def support(self) -> list[int]:
        return [j for j, pr, _ in self.entries if pr > 0]


def _swap(logw_new: float, logw_old: float, u: float, mutate: str | None) -> bool:
    """The progressive swap coin: does the new half's candidate replace the
    running one, with probability ``min(1, w_new / w_old)``?"""
    log_r = accept_log_ratio(logw_new, logw_old)
    if mutate == "always-swap":
        return logw_new > -math.inf
    return log_r > -math.inf and u < math.exp(log_r)


def _swap_rows(
    logw_new: np.ndarray, logw_old: np.ndarray, u: np.ndarray, mutate: str | None
) -> np.ndarray:
    """:func:`_swap` on each row of three arrays, bit for bit.

    The ratio is :func:`accept_log_ratio`'s as arrays: ``new - old`` kept
    where it is below 0 (Python's ``min(0.0, ·)``, a nan included), 0 where
    ``old`` is ``-inf``, and ``-inf`` where ``new`` is.  A ratio of 0 swaps
    when ``u < 1``; only the rows strictly between ``-inf`` and 0 call
    ``math.exp``, the exp the scalar coin uses.
    """
    if mutate == "always-swap":
        return logw_new > -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        diff = logw_new - logw_old
    log_r = np.where(diff < 0.0, diff, 0.0)
    log_r[logw_old == -math.inf] = 0.0
    log_r[logw_new == -math.inf] = -math.inf
    swap = (log_r == 0.0) & (u < 1.0)
    mid = np.flatnonzero((log_r > -math.inf) & (log_r < 0.0))
    swap[mid] = u[mid] < np.fromiter(map(math.exp, log_r[mid].tolist()), float, mid.size)
    return swap


def nuts_step_iterative(
    target: Target,
    cfg: KernelConfig,
    q: np.ndarray,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> tuple[np.ndarray, TransitionInfo]:
    """One NUTS transition via the explicit doubling loop.

    The index update runs interleaved with the doubling and only when the
    extended interval passes the U-turn checks, so a rejected final doubling
    never contributes to the selection.  ``diverged`` is set only when a
    divergent state is actually computed, i.e. reached before the first
    failing U-turn check; the recursive sampler flags the same way.
    """
    p = momentum_refresh(cfg.mass, rng)
    x0 = PhasePoint(np.asarray(q, dtype=float), p)
    return nuts_transition_iterative(target, cfg, x0, rng, mutate=mutate)


def nuts_transition_iterative(
    target: Target,
    cfg: KernelConfig,
    x0: PhasePoint,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> tuple[np.ndarray, TransitionInfo]:
    """The doubling loop at a fixed phase point (momentum already drawn).

    Runs the stage-``k + 1`` U-turn checks of :func:`no_uturns` in the order
    the recursive sampler meets them and computes no state past the first
    one that fails: first the current interval's endpoint pair (its smaller
    blocks passed at earlier stages), then, one leapfrog step at a time, each
    new state and the aligned blocks of the new half it completes (one
    checked :meth:`OrbitCache.extend_right` or ``extend_left`` call per
    stage).  So a divergence is flagged only if it is reached before a
    U-turn.  Each stage attempted draws three uniforms, however many states
    it computes.  Stage 0 adds one state, whose log-weight is the new half's
    log-sum and which is its own pick; a later stage computes its log-sum
    always.  A swap replaces the running pick, so only the last later stage
    whose swap took makes its multinomial pick, once the loop ends.  One
    ``np.errstate`` holds every stage's checked growth.
    """
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}")
    cache = OrbitCache(target, cfg.params, x0)
    if cache.diverged(0):
        return x0.q, TransitionInfo(0, (0, 0), 0, cache.n_grad, True)

    j = 0
    took = None  # the last later stage whose swap took: what its pick reads
    logw_tot = cache.logw(0)
    lo = hi = 0  # the accepted interval
    k_f = 0
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.k_m):
            u_dir = rng.random()
            u_mult = rng.random()
            u_swap = rng.random()
            if k and cache.pair_uturn(lo, hi):
                break
            n = 1 << k
            right = u_dir < 0.5
            if right:
                seg_lo = hi + 1
                seg_logw, diverged = cache.extend_right(n, check=True)
            else:
                seg_lo = lo - n
                seg_logw, diverged = cache.extend_left(n, check=True)
            if seg_logw is None:
                break
            if k:
                seg_logw = np.array(seg_logw)
                logw_new = logsumexp(seg_logw)
            else:  # one state: its own log-sum and its own pick
                logw_new = seg_logw[0]
            if _swap(logw_new, logw_tot, u_swap, mutate):
                if k:
                    took = seg_lo, seg_logw, u_mult, logw_new
                else:
                    j = seg_lo
            if right:
                hi += n
            else:
                lo = seg_lo
            logw_tot = logaddexp(logw_tot, logw_new)
            k_f = k + 1
        if took is not None:
            seg_lo, seg_logw, u_mult, logw_new = took
            j = seg_lo + multinomial_pick(seg_logw, u_mult, logw_new)

    return cache.state(j).q, TransitionInfo(
        j_f=j, i_f=(lo, hi), k_f=k_f, n_grad=cache.n_grad, diverged=diverged
    )


@dataclass(frozen=True)
class TransitionRows:
    """:class:`TransitionInfo` of many chains, one array entry per row.

    ``i_f`` has shape ``(C, 2)``; the other fields have shape ``(C,)``.
    """

    j_f: np.ndarray
    i_f: np.ndarray
    k_f: np.ndarray
    n_grad: np.ndarray
    diverged: np.ndarray


def nuts_step_iterative_rows(
    target: Target,
    cfg: KernelConfig,
    q: np.ndarray,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> tuple[np.ndarray, TransitionRows]:
    """:func:`nuts_step_iterative` from each row of the ``(C, d)`` array ``q``.

    The momenta are one ``(C, d)`` block of normals times the mass factor;
    at ``C = 1`` the stream is the scalar sampler's.
    """
    q = np.asarray(q, dtype=float)
    p = cfg.mass.chol_mul(rng.standard_normal(q.shape))
    return nuts_transition_iterative_rows(target, cfg, PhasePoint(q, p), rng, mutate=mutate)


def nuts_transition_iterative_rows(
    target: Target,
    cfg: KernelConfig,
    x0: PhasePoint,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> tuple[np.ndarray, TransitionRows]:
    """:func:`nuts_transition_iterative` from each row of ``(C, d)`` anchors.

    Each stage steps, weighs and checks the rows still growing as arrays; a
    row stops where the scalar sampler stops (divergent anchor, turned
    stage-start pair, divergent state, turned block of the new half) and
    takes no further part.  A stage draws one ``(C_stage, 3)`` block of
    ``[u_dir, u_mult, u_swap]`` for the rows that enter it, in row order.
    Given the same uniforms, each row's position and diagnostics equal the
    scalar sampler's bit for bit.  Each end of the accepted interval is held
    in its outward frame, the lo end as ``(q, -p)`` with velocity
    ``-M^{-1} p``: by ``Phi^{(-1)} = flip . Phi^{(1)} . flip`` every row
    grows with the step ``+h``, and each block check reads its first and
    last state in the order of growth.  The stage's tail is arrays with the
    scalar sampler's bits: the log of each log-sum is a per-row
    ``math.log``, the swap coin :func:`_swap_rows`, and the running total
    ``np.logaddexp``, which :func:`index_select.logaddexp` equals.
    """
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}")
    mass, step = cfg.mass, cfg.params.steps[True]
    grad_rows = partial(gradient_rows, target)
    q0 = np.ascontiguousarray(x0.q, dtype=float)
    p0 = np.ascontiguousarray(x0.p, dtype=float)
    c = len(q0)
    out = q0.copy()
    j_f = np.zeros(c, dtype=np.int64)
    i_f = np.zeros((c, 2), dtype=np.int64)  # the accepted interval [lo, hi]
    k_f = np.zeros(c, dtype=np.int64)
    n_grad = np.ones(c, dtype=np.int64)
    # one errstate for every state stepped and weighed, as in OrbitCache
    with np.errstate(over="ignore", invalid="ignore"):
        kick0 = step.half * grad_rows(q0)
        vel0, logw_tot, diverged = _weigh_rows(target, mass, q0, p0)
        # the state at each end of the accepted interval, index 0 lo and 1 hi,
        # in its outward frame, with its half-kick for the forward step
        end_q, end_p = np.stack([q0, q0]), np.stack([-p0, p0])
        end_v, end_k = np.stack([-vel0, vel0]), np.stack([kick0, kick0])
        rows = np.flatnonzero(~diverged)
        for k in range(cfg.k_m):
            if not rows.size:
                break
            u = rng.random((rows.size, 3))
            if k:  # the index-order pair: the lo end's velocity flipped back
                go = ~is_uturn_rows(end_q[0, rows], -end_v[0, rows], end_q[1, rows], end_v[1, rows])
                rows, u = rows[go], u[go]
                if not rows.size:
                    break
            n = 1 << k
            right = u[:, 0] < 0.5
            side = right.astype(np.intp)
            q, p, kick = end_q[side, rows], end_p[side, rows], end_k[side, rows]
            live = np.arange(rows.size)  # the stage's rows still growing
            n_grad[rows] += n  # less the states a row stops before
            new_q = np.empty((n, rows.size, q0.shape[1]))
            new_w = np.empty((rows.size, n))  # log-weights in the order computed
            starts: list = [None] * k  # level l: first state of the open block of size 2^(l+1)
            opens = k  # the first state opens every level
            for i in range(1, n + 1):
                q, p, kick = leapfrog_step_with_grad(grad_rows, mass.inv_mul, step, q, p, kick)
                vel, logw, stop = _weigh_rows(target, mass, q, p)
                new_q[i - 1, live] = q
                new_w[live, i - 1] = logw
                starts[:opens] = [(q, vel)] * opens
                # the blocks of size 2, ..., 2^opens end here, and the next state opens them
                opens = (i & -i).bit_length() - 1
                for sq, sv in starts[:opens]:
                    stop |= is_uturn_rows(sq, sv, q, vel)
                if stop.any():
                    diverged[rows[live[stop]]] = logw[stop] == -math.inf
                    n_grad[rows[live[stop]]] -= n - i
                    go = ~stop
                    live, q, p, kick, vel = live[go], q[go], p[go], kick[go], vel[go]
                    if not live.size:
                        break
                    starts = [(sq[go], sv[go]) for sq, sv in starts]
            if not live.size:
                break
            rows, right, side, u = rows[live], right[live], side[live], u[live]
            seg = new_w[live]
            seg[~right] = seg[~right, ::-1]  # index order
            if k:
                top = seg.max(axis=1)
                sums = np.exp(seg - top[:, None]).sum(axis=1)
                # math.log, as logsumexp takes it: np.log differs in the last bit
                logw_new = top + np.fromiter(map(math.log, sums.tolist()), float, sums.size)
            else:  # one state: its own log-sum and its own pick
                logw_new = seg[:, 0]
            old = logw_tot[rows]
            swap = np.flatnonzero(_swap_rows(logw_new, old, u[:, 2], mutate))
            pick = np.zeros(swap.size, dtype=np.int64)  # into the new half, in index order
            if k and swap.size:
                # multinomial_pick on each swapped row: the count of cumulative
                # weights at or below u_mult
                cum = np.exp(seg[swap] - logw_new[swap, None]).cumsum(axis=1)
                pick = np.minimum((cum <= u[swap, 1:2]).sum(axis=1), n - 1)
            took, fwd = rows[swap], right[swap]
            j_f[took] = np.where(fwd, i_f[took, 1] + 1, i_f[took, 0] - n) + pick
            out[took] = new_q[np.where(fwd, pick, n - 1 - pick), live[swap]]
            end_q[side, rows], end_p[side, rows] = q, p
            end_v[side, rows], end_k[side, rows] = vel, kick
            i_f[rows, side] += np.where(right, n, -n)
            logw_tot[rows] = np.logaddexp(old, logw_new)  # index_select.logaddexp's bits
            k_f[rows] = k + 1

    return out, TransitionRows(j_f, i_f, k_f, n_grad, diverged)


# --- recursive (depth-first) implementation ---------------------------------


def _build_tree(
    target: Target,
    mass: MassMatrix,
    steps: tuple[Step, Step],
    forward: bool,
    frm: tuple,
    depth: int,
    rng: np.random.Generator,
) -> tuple:
    """The subtree of ``2^depth`` states past ``frm``, grown ``forward`` or
    backward with ``steps[forward]``.

    A state is the plain tuple ``(q, p, vel, logw, diverged, kick, idx)``:
    :func:`orbit._advance`'s weighed state and half-kick, the kick signed
    for a step away from the anchor, and its orbit index.  A subtree is the
    tuple ``(lo, hi, end, sel, logw, stop, diverged, n)``: its boundary
    states, the state it ended on, its candidate, its log-weight, whether it
    stopped (a divergence or a U-turn), whether it diverged, and ``n``, the
    gradients it took.
    """
    if depth == 0:
        st = _advance(target, mass, steps[forward], frm[0], frm[1], frm[5])
        st += (frm[6] + 1 if forward else frm[6] - 1,)
        return st, st, st, st, st[3], st[4], st[4], 1
    t1 = _build_tree(target, mass, steps, forward, frm, depth - 1, rng)
    if t1[5]:
        return t1
    lo1, hi1, end1, sel1, logw1, _, div1, n1 = t1
    lo2, hi2, end2, sel2, logw2, stop2, div2, n2 = _build_tree(
        target, mass, steps, forward, end1, depth - 1, rng
    )
    lo, hi = (lo1, hi2) if forward else (lo2, hi1)
    logw = logaddexp(logw1, logw2)
    # progressive merge: take the new half's candidate with prob w2/(w1+w2)
    u = rng.random()
    sel = sel2 if logw > -math.inf and u < math.exp(logw2 - logw) else sel1
    stop = stop2 or is_uturn(lo[0], lo[2], hi[0], hi[2])
    return lo, hi, end2, sel, logw, stop, div1 or div2, n1 + n2


def nuts_step_recursive(
    target: Target,
    cfg: KernelConfig,
    q: np.ndarray,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> tuple[np.ndarray, TransitionInfo]:
    """One NUTS transition via the depth-first tree recursion.

    Memory is O(K_m * d): only the boundary states, trajectory end and running
    candidates of the open subtrees are retained, never a whole orbit table.
    Defines the same Markov transition as :func:`nuts_step_iterative`; the
    equivalence is tested against the exact pmf, not assumed.
    """
    p = momentum_refresh(cfg.mass, rng)
    x0 = PhasePoint(np.asarray(q, dtype=float), p)
    return nuts_transition_recursive(target, cfg, x0, rng, mutate=mutate)


def nuts_transition_recursive(
    target: Target,
    cfg: KernelConfig,
    x0: PhasePoint,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> tuple[np.ndarray, TransitionInfo]:
    """The tree recursion at a fixed phase point (momentum already drawn)."""
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}")
    mass, steps = cfg.mass, cfg.params.steps
    # one errstate for every state the recursion steps and weighs
    with np.errstate(over="ignore", invalid="ignore"):
        # the gradient before the potential, as in OrbitCache
        kick0 = steps[True].half * target.gradient(x0.q)
        entry0 = _weigh(target, mass, x0.q, x0.p)
        n_grad = 1  # the anchor's gradient
        if entry0[4]:
            return x0.q, TransitionInfo(0, (0, 0), 0, n_grad, True)

        # the states of _build_tree, each end's kick signed for a step outward
        lo, hi = entry0 + (-kick0, 0), entry0 + (kick0, 0)
        sel = hi
        logw_tot = entry0[3]
        k_f = 0
        diverged = False
        for k in range(cfg.k_m):
            v_k = rng.random() < 0.5
            t_lo, t_hi, _, t_sel, t_logw, t_stop, t_div, t_n = _build_tree(
                target, mass, steps, v_k, hi if v_k else lo, k, rng
            )
            n_grad += t_n
            if t_stop:
                diverged = diverged or t_div
                break
            if _swap(t_logw, logw_tot, rng.random(), mutate):
                sel = t_sel
            if v_k:
                hi = t_hi
            else:
                lo = t_lo
            logw_tot = logaddexp(logw_tot, t_logw)
            k_f = k + 1
            if is_uturn(lo[0], lo[2], hi[0], hi[2]):
                # the doubled interval as a whole has turned: the swap above
                # stands, but no further doubling happens
                break

    info = TransitionInfo(j_f=sel[6], i_f=(lo[6], hi[6]), k_f=k_f, n_grad=n_grad, diverged=diverged)
    return sel[0], info


def nuts_exact_pmf(target: Target, cfg: KernelConfig, x0: PhasePoint) -> ExactPMF:
    """Exact one-step NUTS index law at ``x0`` by full enumeration.

    Orbit probabilities are exact dyadic rationals; index probabilities come
    from the closed-form kernel rows, evaluated in the log domain.
    """
    if cfg.k_m > 8:
        raise ValueError(f"k_m = {cfg.k_m} exceeds the exact-enumeration budget (8)")
    x0 = PhasePoint(np.asarray(x0.q, dtype=float), np.asarray(x0.p, dtype=float))
    cache = OrbitCache(target, cfg.params, x0)
    if cache.diverged(0):
        return ExactPMF(anchor=x0, entries=[(0, 1.0, x0.q)])
    off = (1 << cfg.k_m) - 1  # index j at probs[j + off], j in [-off, off]
    probs = np.zeros(2 * off + 1)
    for iv, frac in orbit_select_pmf(cache, cfg.k_m):
        # leaf -lo is index 0
        row = WeightTree(cache.logw_range(iv.lo, iv.hi)).qhat_row_log(-iv.lo)
        probs[iv.lo + off:iv.hi + off + 1] += float(frac) * np.exp(row)
    entries = [(j - off, probs[j], cache.state(j - off).q) for j in np.flatnonzero(probs).tolist()]
    return ExactPMF(anchor=x0, entries=entries)


# --- HMC / MALA / randomized-T HMC ------------------------------------------


def hmc_step(
    target: Target,
    cfg: KernelConfig,
    q: np.ndarray,
    rng: np.random.Generator,
    t: int | None = None,
) -> tuple[np.ndarray, TransitionInfo]:
    """One HMC transition with ``T`` leapfrog steps (``T = 1`` is MALA)."""
    t = cfg.t if t is None else t
    mass, step = cfg.mass, cfg.params.steps[True]
    p = momentum_refresh(mass, rng)
    q0 = np.asarray(q, dtype=float)
    # one errstate for both ends and the trajectory between them
    with np.errstate(over="ignore", invalid="ignore"):
        # the gradient first, as in OrbitCache: a target may reuse its work in
        # the potential, and the trajectory starts from this gradient
        kick0 = step.half * target.gradient(q0)
        logw0 = _weigh(target, mass, q0, p)[3]
        q_t, p_t, n_grad = _trajectory(target.gradient, mass.inv_mul, step, q0, p, kick0, t)
        _, _, _, logw_t, diverged = _weigh(target, mass, q_t, p_t)
    # index selection on the two-point orbit {0, T}: the NUTS swap coin
    accepted = _swap(logw_t, logw0, rng.random(), None)
    if accepted:
        return q_t, TransitionInfo(t, (0, t), 0, n_grad, diverged, accepted=True, t=t)
    return q0, TransitionInfo(0, (0, t), 0, n_grad, diverged, accepted=False, t=t)


def rhmc_step(
    target: Target,
    cfg: KernelConfig,
    q: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, TransitionInfo]:
    """Randomized-T HMC: draw T from the mixture weights, then one HMC step."""
    cum = np.cumsum(cfg.weights)
    t = 1 + min(int(np.searchsorted(cum, rng.random(), side="right")), cfg.weights.size - 1)
    return hmc_step(target, cfg, q, rng, t=t)


def make_kernel(
    target: Target, cfg: KernelConfig, mutate: str | None = None
) -> Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, TransitionInfo]]:
    """Bind a config to its one-step transition callable.

    ``mutate`` must be one of :data:`MUTATIONS`, and HMC kinds take none: a
    mutation silently ignored would make a negative control vacuous.
    """
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}")
    if mutate is not None and cfg.kind in ("hmc", "rhmc"):
        raise ValueError(f"mutation {mutate!r} does not apply to {cfg.kind}")
    if cfg.kind == "nuts_iterative":
        return lambda q, rng: nuts_step_iterative(target, cfg, q, rng, mutate=mutate)
    if cfg.kind == "nuts_recursive":
        return lambda q, rng: nuts_step_recursive(target, cfg, q, rng, mutate=mutate)
    if cfg.kind == "hmc":
        return lambda q, rng: hmc_step(target, cfg, q, rng)
    return lambda q, rng: rhmc_step(target, cfg, q, rng)
