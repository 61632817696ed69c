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
later stage picks from its new half only when the swap accepts.

``nuts_exact_pmf`` computes the one-step law at a fixed phase point exactly
(dyadic orbit probabilities times closed-form index rows); it is the oracle
against which both samplers are tested.

Every kernel steps and weighs states through :mod:`orbit` and so shares its
divergence rule: non-finite states or energies, or a squared norm
``|q|^2 + |p|^2`` that overflows.  A divergent state has weight zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .index_select import (
    WeightTree,
    accept_log_ratio,
    logaddexp,
    logsumexp,
    multinomial_pick,
)
# leapfrog_step_with_grad and no_uturns stay importable from here:
# perfbench/tracing.py wraps them under this module as well as under orbit
from .leapfrog import (  # noqa: F401
    LeapfrogParams,
    leapfrog_forward,
    leapfrog_step_with_grad,
)
from .orbit import (  # noqa: F401
    OrbitCache,
    _Entry,
    _make_entry,
    _weigh,
    is_uturn,
    no_uturns,
    orbit_select_pmf,
    step_entry,
)
from .targets import MassMatrix, PhasePoint, Target, momentum_refresh

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
            if w.ndim != 1 or w.size < 1 or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
                raise ValueError("rhmc weights must be nonnegative and sum to 1")
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
    always and its multinomial pick only when the swap accepts.
    """
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}")
    cache = OrbitCache(target, cfg.params, x0)
    if cache.diverged(0):
        return x0.q, TransitionInfo(0, (0, 0), 0, cache.n_grad, True)

    j = 0
    logw_tot = cache.logw(0)
    lo = hi = 0  # the accepted interval
    k_f = 0
    diverged = False
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
            j = seg_lo + multinomial_pick(seg_logw, u_mult, logw_new) if k else seg_lo
        if right:
            hi += n
        else:
            lo = seg_lo
        logw_tot = logaddexp(logw_tot, logw_new)
        k_f = k + 1

    return cache.state(j).q, TransitionInfo(
        j_f=j, i_f=(lo, hi), k_f=k_f, n_grad=cache.n_grad, diverged=diverged
    )


# --- recursive (depth-first) implementation ---------------------------------


class _RecState:
    """A single phase-space state held by the recursive builder."""

    __slots__ = ("entry", "grad", "idx")

    def __init__(self, entry: _Entry, grad: np.ndarray, idx: int):
        self.entry, self.grad, self.idx = entry, grad, idx


class _RecTree:
    """A subtree of the recursion: its boundary states, the state it ended
    on, its candidate, its log-weight and ``n``, the gradients it took."""

    __slots__ = ("lo", "hi", "end", "sel", "logw", "stop", "diverged", "n")

    def __init__(self, lo, hi, end, sel, logw, stop, diverged, n):
        self.lo, self.hi, self.end, self.sel = lo, hi, end, sel
        self.logw, self.stop, self.diverged, self.n = logw, stop, diverged, n


def _build_tree(
    target: Target,
    params: LeapfrogParams,
    frm: _RecState,
    direction: int,
    depth: int,
    rng: np.random.Generator,
) -> _RecTree:
    if depth == 0:
        entry, grad = step_entry(target, params, frm.entry, frm.grad, direction > 0)
        st = _RecState(entry, grad, frm.idx + direction)
        return _RecTree(st, st, st, st, entry.logw, entry.diverged, entry.diverged, 1)
    t1 = _build_tree(target, params, frm, direction, depth - 1, rng)
    if t1.stop:
        return t1
    t2 = _build_tree(target, params, t1.end, direction, depth - 1, rng)
    if direction > 0:
        lo, hi = t1.lo, t2.hi
    else:
        lo, hi = t2.lo, t1.hi
    logw = logaddexp(t1.logw, t2.logw)
    # progressive merge: take the new half's candidate with prob w2/(w1+w2)
    u = rng.random()
    if logw > -math.inf and u < math.exp(t2.logw - logw):
        sel = t2.sel
    else:
        sel = t1.sel
    stop = t2.stop or is_uturn(lo.entry.q, lo.entry.vel, hi.entry.q, hi.entry.vel)
    return _RecTree(
        lo, hi, t2.end, sel, logw, stop, t1.diverged or t2.diverged, t1.n + t2.n
    )


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
    params = cfg.params
    # one errstate for every state the recursion steps and weighs
    with np.errstate(over="ignore", invalid="ignore"):
        grad0 = target.gradient(x0.q)  # before the potential, as in OrbitCache
        st0 = _RecState(_weigh(target, cfg.mass, x0.q, x0.p), grad0, 0)
        n_grad = 1  # the anchor's gradient
        if st0.entry.diverged:
            return x0.q, TransitionInfo(0, (0, 0), 0, n_grad, True)

        sel = st0
        lo = hi = st0
        logw_tot = st0.entry.logw
        k_f = 0
        diverged = False
        for k in range(cfg.k_m):
            v_k = 1 if rng.random() < 0.5 else 0
            frm = hi if v_k else lo
            node = _build_tree(target, params, frm, 1 if v_k else -1, k, rng)
            n_grad += node.n
            if node.stop:
                diverged = diverged or node.diverged
                break
            if _swap(node.logw, logw_tot, rng.random(), mutate):
                sel = node.sel
            if v_k:
                hi = node.hi
            else:
                lo = node.lo
            logw_tot = logaddexp(logw_tot, node.logw)
            k_f = k + 1
            if is_uturn(lo.entry.q, lo.entry.vel, hi.entry.q, hi.entry.vel):
                # the doubled interval as a whole has turned: the swap above
                # stands, but no further doubling happens
                break

    info = TransitionInfo(
        j_f=sel.idx, i_f=(lo.idx, hi.idx), k_f=k_f, n_grad=n_grad, diverged=diverged
    )
    return sel.entry.q, info


def nuts_recursive_index_batch(
    target: Target,
    cfg: KernelConfig,
    x0: PhasePoint,
    n: int,
    rng: np.random.Generator,
    mutate: str | None = None,
) -> np.ndarray:
    """``n`` draws of the recursive sampler's index at a fixed phase point.

    Vectorized twin of :func:`nuts_step_recursive` for conditional
    goodness-of-fit testing: at a fixed ``(q0, p0)`` the orbit geometry is
    deterministic, so the tree merges reduce to coin flips with fixed biases
    that can be applied to whole arrays of draws at once.  Same merge rules,
    same stopping rules, orders of magnitude faster than looping the scalar
    sampler.  ``mutate`` is one of :data:`MUTATIONS`, as for the samplers:
    ``always-swap`` takes the new half whenever its log-sum is finite.
    """
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}")
    cache = OrbitCache(target, cfg.params, x0)
    cache.extend_to(-(1 << cfg.k_m) + 1, (1 << cfg.k_m) - 1)

    def batch_tree(seg_lo: int, seg_hi: int, direction: int, depth: int, count: int):
        # returns (sel indices array, logw, stop flag); stop is deterministic
        if depth == 0:
            idx = seg_lo
            return (
                np.full(count, idx, dtype=np.int64),
                cache.logw(idx),
                cache.diverged(idx),
            )
        half = 1 << (depth - 1)
        if direction > 0:
            first = (seg_lo, seg_lo + half - 1)
            second = (seg_lo + half, seg_hi)
        else:
            first = (seg_hi - half + 1, seg_hi)
            second = (seg_lo, seg_hi - half)
        sel1, w1, stop1 = batch_tree(*first, direction, depth - 1, count)
        if stop1:
            return sel1, w1, True
        sel2, w2, stop2 = batch_tree(*second, direction, depth - 1, count)
        logw = logaddexp(w1, w2)
        u = rng.random(count)
        p2 = math.exp(w2 - logw) if logw > -math.inf else 0.0
        sel = np.where(u < p2, sel2, sel1)
        stop = stop2 or cache.pair_uturn(seg_lo, seg_hi)
        return sel, logw, stop

    sel = np.zeros(n, dtype=np.int64)
    if cache.diverged(0):
        return sel
    groups: dict[tuple[int, int], np.ndarray] = {(0, 0): np.arange(n)}
    for k in range(cfg.k_m):
        next_groups: dict[tuple[int, int], np.ndarray] = {}
        for (glo, ghi), ids in groups.items():
            right = rng.random(ids.size) < 0.5
            group_logw = logsumexp(cache.logw_range(glo, ghi))
            for v_k, sub in ((1, ids[right]), (0, ids[~right])):
                if sub.size == 0:
                    continue
                step = 1 << k
                seg = (ghi + 1, ghi + step) if v_k else (glo - step, glo - 1)
                node_sel, node_logw, node_stop = batch_tree(
                    *seg, 1 if v_k else -1, k, sub.size
                )
                if node_stop:
                    continue  # these draws are finished; sel already holds their state
                u_swap = rng.random(sub.size)
                # always-swap: ratio 1, so that every u_swap < 1 swaps
                swap_all = mutate == "always-swap" and node_logw > -math.inf
                log_r = 0.0 if swap_all else accept_log_ratio(node_logw, group_logw)
                if log_r > -math.inf:
                    swap = u_swap < math.exp(log_r)
                    sel[sub[swap]] = node_sel[swap]
                merged = (min(glo, seg[0]), max(ghi, seg[1]))
                if cache.pair_uturn(merged[0], merged[1]):
                    continue
                next_groups[merged] = sub
        groups = next_groups
        if not groups:
            break
    return sel


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
    probs: dict[int, float] = {}
    for iv, frac in orbit_select_pmf(cache, cfg.k_m):
        weight = float(frac)
        tree = WeightTree.from_orbit(cache, iv)
        row = np.exp(tree.qhat_row_log(iv.iota(0)))
        for leaf, pr in enumerate(row):
            if pr > 0.0:
                j = iv.iota_inv(leaf)
                probs[j] = probs.get(j, 0.0) + weight * pr
    entries = [(j, pr, cache.state(j).q) for j, pr in sorted(probs.items())]
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
    p = momentum_refresh(cfg.mass, rng)
    x0 = PhasePoint(np.asarray(q, dtype=float), p)
    # the gradient first, as in OrbitCache: a target may reuse its work in
    # the potential, and the trajectory starts from this gradient
    grad0 = target.gradient(x0.q)
    e0 = _make_entry(target, cfg.mass, x0)
    x_t, n_grad = leapfrog_forward(target, cfg.params, x0, t, grad0)
    e_t = _make_entry(target, cfg.mass, x_t)
    diverged = e_t.diverged
    # index selection on the two-point orbit {0, T}: the swap coin's ratio
    alpha = math.exp(accept_log_ratio(e_t.logw, e0.logw))
    accepted = bool(rng.random() < alpha)
    if accepted:
        return e_t.q, TransitionInfo(t, (0, t), 0, n_grad, diverged, accepted=True, t=t)
    return x0.q, TransitionInfo(0, (0, t), 0, n_grad, diverged, accepted=False, t=t)


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
