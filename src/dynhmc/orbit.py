"""Orbit construction, U-turn checks and the exact orbit-selection law.

The orbit around an anchor ``(q0, p0)`` is the family of leapfrog iterates
``Phi^{(j)}(q0, p0)``.  :class:`OrbitCache` extends it lazily one step at a
time from the current extremes and keeps the weighed states in one table in
index order.  A weighed state is the plain tuple
``(q, p, vel, logw, diverged)`` that :func:`_weigh` returns: the state, its
velocity ``M^{-1} p`` (the quantity entering U-turn inner products under a
non-identity mass matrix), its log-weight ``-H``, ``-inf`` if it diverged,
and that flag.

A doubling record of length K is an integer ``v`` in ``[0, 2^K)`` whose bit
k is the direction of the k-th doubling (1 = right, 0 = left).  It generates
the interval ``{v - 2^K + 1, ..., v}``, and its first k doublings are the
record ``v & (2^k - 1)``.  The U-turn set at stage K checks, for every block
size ``2^k`` with ``k in [1, K-1]``, the endpoints of every aligned block of
that size; the stage-1 check set is empty (the first doubling is always
accepted).  The stopping time ``S(v)`` is the first stage whose record lies in
the corresponding U-turn set.  As a recursion (Hoffman & Gelman 2014, Alg. 3):
a block is clean if both halves are and its endpoint pair does not turn, a
state if it did not diverge, so an extension passes iff the record's own pair
holds and the new half is clean.

The resulting orbit-selection law is purely combinatorial: conditionally on
the U-turn geometry, each final interval receives a dyadic rational mass, so
:func:`orbit_select_pmf` computes it exactly with ``Fraction`` arithmetic, in
one walk over the tree of records, stepping the orbit as far as it reaches.

This module owns, for every sampler, how a state is weighed
(:func:`_weigh`) and what a U-turn is (:func:`is_uturn`).  :func:`_advance`
takes one step and weighs its result, returning the weighed tuple with the
new half-kick appended; the recursive sampler grows its trees with it.
Every sampler takes its steps through
:func:`leapfrog.leapfrog_step_with_grad`, carrying the half-kick of the
state it steps from, with the step constants of
:attr:`leapfrog.LeapfrogParams.steps` signed by the direction except in the
rows sampler, which holds its backward ends as ``(q, -p)`` and steps
forward.  The rows sampler weighs and checks ``(C, d)`` arrays of states
with :func:`_weigh_rows` and :func:`is_uturn_rows`, equal row by row.  A
state is divergent, with weight zero, on non-finite states or energies, or a
squared norm ``|q|^2 + |p|^2`` that overflows.

Stepping and weighing overflow on a divergent state, and that is flagged,
not warned about.  The step, :func:`_weigh` and :func:`_advance` enter no
``np.errstate`` themselves: their caller holds ``np.errstate(over="ignore",
invalid="ignore")`` around all the states it computes.  :class:`OrbitCache`
enters it when it weighs its anchor and for each unchecked extension call,
so a bare cache is silent.  The iterative sampler holds one for its whole
transition, as the recursive sampler, the rows sampler and HMC do, and
enters no other: it builds its cache with :meth:`OrbitCache._held`, which
weighs the anchor in the caller's errstate, and grows it only by checked
extensions, the new half of a doubling stage, which enter none.
:func:`_make_entry` enters it to weigh a single state, for the command
line's check that a configured start is not divergent.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from fractions import Fraction
from itertools import islice

import numpy as np

from .leapfrog import LeapfrogParams, Step, leapfrog_step_with_grad
from .targets import MassMatrix, PhasePoint, Target, potential_rows


class CacheCoverageError(RuntimeError):
    """An operation needed orbit indices the cache has not computed."""


def _weigh(target: Target, mass: MassMatrix, q: np.ndarray, p: np.ndarray) -> tuple:
    """Weigh one state: ``(q, p, vel, logw, diverged)``, with the velocity
    ``M^{-1} p`` and ``logw = -H``, or ``-inf`` for a divergent state.

    Enters no ``np.errstate``; the caller holds it (see the module docstring).
    """
    pp = p.dot(p)
    # scalar finiteness probe: any nan/inf in (q, p) poisons the dot products
    if not math.isfinite(q.dot(q) + pp):
        return q, p, p, -math.inf, True
    if mass.is_identity:
        vel, kinetic = p, pp
    else:
        vel = mass.inv_mul(p)
        kinetic = p.dot(vel)
    logw = -float(target.potential(q)) - 0.5 * float(kinetic)
    if not math.isfinite(logw):
        return q, p, vel, -math.inf, True
    return q, p, vel, logw, False


def _advance(
    target: Target, mass: MassMatrix, step: Step, q: np.ndarray, p: np.ndarray, kick: np.ndarray
) -> tuple:
    """One step from ``(q, p)`` with its half-kick, weighed:
    ``(q1, p1, vel1, logw1, diverged1, kick1)``, :func:`_weigh`'s tuple with
    the new half-kick appended.  Enters no ``np.errstate``."""
    q, p, kick = leapfrog_step_with_grad(target.gradient, mass.inv_mul, step, q, p, kick)
    return _weigh(target, mass, q, p) + (kick,)


def _weigh_rows(
    target: Target, mass: MassMatrix, q: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_weigh` on each row of ``(C, d)`` arrays, bit for bit.

    Returns the velocities, the log-weights and the divergence flags.  As in
    :func:`_weigh`, a row whose finiteness probe fails reaches neither the
    mass matrix nor the target.  Enters no ``np.errstate``.
    """
    pp = np.vecdot(p, p)
    ok = np.isfinite(np.vecdot(q, q) + pp)
    if not ok.all():
        vel, logw = p.copy(), np.full(len(q), -math.inf)
        if ok.any():
            vel[ok], logw[ok], _ = _weigh_rows(target, mass, q[ok], p[ok])
        return vel, logw, logw == -math.inf
    if mass.is_identity:
        vel, kinetic = p, pp
    else:
        vel = mass.inv_mul(p)
        kinetic = np.vecdot(p, vel)
    logw = -potential_rows(target, q) - 0.5 * kinetic
    diverged = ~np.isfinite(logw)
    logw[diverged] = -math.inf
    return vel, logw, diverged


def _make_entry(target: Target, mass: MassMatrix, x: PhasePoint) -> tuple:
    """:func:`_weigh` for a single state, in its own ``np.errstate``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _weigh(target, mass, x.q, x.p)


def is_uturn(q_lo: np.ndarray, vel_lo: np.ndarray, q_hi: np.ndarray, vel_hi: np.ndarray) -> bool:
    """The U-turn criterion on the (left, right) pair of positions and velocities.

    ``v_r . (q_r - q_l) < 0`` or ``v_l . (q_r - q_l) < 0`` with velocity
    ``v = M^{-1} p = dq/dt``.  This is not the identity-mass criterion in
    whitened coordinates: with ``M = L L^T``, ``q' = L^T q`` and
    ``p' = L^{-1} p``, that criterion's ``p' . dq'`` equals ``p . dq``.  Both
    inequalities are strict, so a zero displacement is not a U-turn.
    """
    dq = q_hi - q_lo
    return bool(vel_hi.dot(dq) < 0.0 or vel_lo.dot(dq) < 0.0)


def is_uturn_rows(
    q_lo: np.ndarray, vel_lo: np.ndarray, q_hi: np.ndarray, vel_hi: np.ndarray
) -> np.ndarray:
    """:func:`is_uturn` on each row of ``(C, d)`` arrays, bit for bit."""
    dq = q_hi - q_lo
    return (np.vecdot(vel_hi, dq) < 0.0) | (np.vecdot(vel_lo, dq) < 0.0)


class OrbitCache:
    """Lazily extended table ``j -> (Phi^{(j)}(anchor), -H)``.

    The weighed states of the indices ``lo .. hi`` sit in one deque in index
    order, so index ``j`` is at ``j - lo``.  Entries are appended one leapfrog
    step at a time at either end (never recomputed from index 0), with the
    half-kick ``(h/2) grad U(q)`` at each end cached, ``h`` signed by the
    side, so a fresh step costs exactly one gradient evaluation.  Once a
    divergence occurs on one side, all further entries on that side are
    flagged diverged without stepping.  Mutable; confine to a single chain.
    """

    def __init__(self, target: Target, params: LeapfrogParams, anchor: PhasePoint):
        with np.errstate(over="ignore", invalid="ignore"):
            self._start(target, params, anchor)

    @classmethod
    def _held(cls, target: Target, params: LeapfrogParams, anchor: PhasePoint) -> OrbitCache:
        """The cache of ``anchor``, weighed in the caller's
        ``np.errstate(over="ignore", invalid="ignore")``."""
        cache = cls.__new__(cls)
        cache._start(target, params, anchor)
        return cache

    def _start(self, target: Target, params: LeapfrogParams, anchor: PhasePoint) -> None:
        self.target = target
        self.params = params
        self.mass = params.mass
        q0 = np.asarray(anchor.q, dtype=float)
        p0 = np.asarray(anchor.p, dtype=float)
        # the gradient first: a target may reuse its work in the potential
        kick0 = params.steps[True].half * target.gradient(q0)
        self._states = deque([_weigh(target, self.mass, q0, p0)])
        self.lo = self.hi = 0
        self._kick = [-kick0, kick0]  # at the leftmost, the rightmost state
        self.n_grad = 1
        self._pair_memo: dict[tuple[int, int], bool] = {}

    def _entry(self, j: int) -> tuple:
        if not self.lo <= j <= self.hi:
            raise CacheCoverageError(f"index {j} beyond cached range [{self.lo}, {self.hi}]")
        return self._states[j - self.lo]

    def state(self, j: int) -> PhasePoint:
        e = self._entry(j)
        return PhasePoint(e[0], e[1])

    def logw(self, j: int) -> float:
        return self._entry(j)[3]

    def diverged(self, j: int) -> bool:
        return self._entry(j)[4]

    def logw_range(self, lo: int, hi: int) -> np.ndarray:
        """The log-weights of the indices ``lo .. hi``, in index order."""
        if lo < self.lo or hi > self.hi:
            raise CacheCoverageError(f"[{lo}, {hi}] beyond cached range [{self.lo}, {self.hi}]")
        return np.array([e[3] for e in islice(self._states, lo - self.lo, hi - self.lo + 1)])

    def _grow(self, forward: bool, n: int, check: bool) -> tuple[list[float] | None, bool] | None:
        states = self._states
        if forward:
            top, push = states[-1], states.append
        else:
            top, push = states[0], states.appendleft
        target, mass = self.target, self.mass
        gradient, inv_mul, step = target.gradient, mass.inv_mul, self.params.steps[forward]
        kick = self._kick[forward]
        logw: list[float] = []  # the new states' log-weights, in the order computed
        i = n_grad = 0
        for i in range(1, n + 1):
            if not top[4]:
                q, p, kick = leapfrog_step_with_grad(gradient, inv_mul, step, top[0], top[1], kick)
                top = _weigh(target, mass, q, p)
                n_grad += 1
            push(top)
            if check:
                # the aligned blocks of the new half that end here, of size
                # 2, 4, ... dividing i; each starts size - 1 states inward
                turned = top[4]
                size = 2
                while not (turned or i % size):
                    lo, hi = (states[-size], top) if forward else (top, states[size - 1])
                    turned = is_uturn(lo[0], lo[2], hi[0], hi[2])
                    size <<= 1
                if turned:
                    break
                logw.append(top[3])
        if forward:
            self.hi += i
        else:
            self.lo -= i
        self._kick[forward] = kick
        self.n_grad += n_grad
        if not check:
            return None
        if len(logw) < n:  # stopped early
            return None, top[4]
        if not forward:
            logw.reverse()
        return logw, False

    def extend_right(self, n: int = 1, check: bool = False) -> tuple[list[float] | None, bool] | None:
        """Append ``n`` states on the right; see :meth:`extend_left`."""
        if check:  # the caller holds the errstate
            return self._grow(True, n, True)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._grow(True, n, False)

    def extend_left(self, n: int = 1, check: bool = False) -> tuple[list[float] | None, bool] | None:
        """Append ``n`` states on the left, stepping and weighing them in one
        ``np.errstate`` unless ``check`` is set.

        With ``check`` the growth is the new half of a doubling stage, checked
        as it comes: the i-th new state ends it if it diverged, or if it
        completes an aligned block of the new half (size 2, 4, ..., ``n``
        dividing i, so only at even i) whose endpoints turn.  Then returns
        ``(logw, diverged)``: a list of the new states' log-weights in index
        order, gathered as they are computed, or None if the growth ended
        early, and whether it ended at a divergent state.  Checked growth
        enters no ``np.errstate``: its caller holds
        ``np.errstate(over="ignore", invalid="ignore")``.
        """
        if check:  # the caller holds the errstate
            return self._grow(False, n, True)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._grow(False, n, False)

    def extend_to(self, lo: int, hi: int) -> None:
        if hi > self.hi:
            self.extend_right(hi - self.hi)
        if lo < self.lo:
            self.extend_left(self.lo - lo)

    def pair_uturn(self, i_lo: int, i_hi: int) -> bool:
        """U-turn indicator for the (left, right) index pair, memoized."""
        key = (i_lo, i_hi)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        lo, hi = self.lo, self.hi
        if not (lo <= i_lo <= hi and lo <= i_hi <= hi):
            raise CacheCoverageError(f"pair ({i_lo}, {i_hi}) beyond cached range [{lo}, {hi}]")
        left, right = self._states[i_lo - lo], self._states[i_hi - lo]
        res = left[4] or right[4] or is_uturn(left[0], left[2], right[0], right[2])
        self._pair_memo[key] = res
        return res


def _block_ok(cache: OrbitCache, lo: int, n: int) -> bool:
    """Whether the ``n = 2^k`` states from ``lo`` are a clean block: none diverged,
    and no aligned block inside, the whole one included, has endpoints that turn."""
    if n == 1:
        return not cache.diverged(lo)
    half = n >> 1
    return (_block_ok(cache, lo, half) and _block_ok(cache, lo + half, half)
            and not cache.pair_uturn(lo, lo + n - 1))


def no_uturns(lo: int, hi: int, cache: OrbitCache) -> bool:
    """Whether the doubled interval ``[lo, hi]`` avoids every U-turn check of its stage.

    ``[lo, hi]`` is a K-bit record's interval: ``2^K`` indices, K >= 1, and
    ``lo <= 0 <= hi``, else ``ValueError``.  Checks the endpoint pair of every
    aligned block of size ``2^k`` inside it, for ``k in [1, K-1]`` (none for
    K = 1).  Any divergence inside counts as a U-turn (the sampler then stops
    and keeps the previous interval).
    """
    n = hi - lo + 1
    if not (lo <= 0 <= hi and n > 1 and n & (n - 1) == 0):
        raise ValueError(f"[{lo}, {hi}] is not a doubled interval around 0")
    if lo < cache.lo or hi > cache.hi:
        raise CacheCoverageError(f"cache [{cache.lo}, {cache.hi}] does not cover [{lo}, {hi}]")
    n >>= 1
    return _block_ok(cache, lo, n) and _block_ok(cache, lo + n, n)


def orbit_select_pmf(cache: OrbitCache, k_m: int) -> list[tuple[tuple[int, int], Fraction]]:
    """Exact law of the final interval, by one depth-first walk over the records.

    A record offers half its mass to each of its two one-bit extensions (the
    next doubling's direction coin); an extension that passes
    :func:`no_uturns` takes it on, and the record keeps the halves of those
    that fail.  A record that got here passed its own checks, so its extension
    by a new half passes iff its endpoint pair holds and the new half is a
    clean block.  A record of length ``k_m`` keeps all of its mass.  Returns
    ``((lo, hi), probability)`` pairs with exact dyadic probabilities summing
    to 1, sorted by interval.  Extends the cache on demand, a new half at a time.
    """
    masses: defaultdict[tuple[int, int], Fraction] = defaultdict(Fraction)

    def walk(lo: int, hi: int, mass: Fraction) -> None:
        n = hi - lo + 1
        # the root's pair is the anchor twice, which fails only if it diverged
        if n < 1 << k_m and not cache.pair_uturn(lo, hi):
            half = mass / 2
            for a in (lo - n, hi + 1):
                cache.extend_to(a, a + n - 1)
                if _block_ok(cache, a, n):
                    walk(min(lo, a), max(hi, a + n - 1), half)
                    mass -= half
        if mass:
            masses[lo, hi] += mass

    walk(0, 0, Fraction(1))
    assert sum(masses.values()) == 1
    return sorted(masses.items())
