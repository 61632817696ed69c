"""Orbit construction, U-turn checks and the exact orbit-selection law.

The orbit around an anchor ``(q0, p0)`` is the family of leapfrog iterates
``Phi^{(j)}(q0, p0)``.  :class:`OrbitCache` extends it lazily one step at a
time from the current extremes and stores, per index, the state, its velocity
``M^{-1} p`` (the quantity entering U-turn inner products under a non-identity
mass matrix), and the log-weight ``-H``.

A doubling record ``v`` of length K generates the interval
``{-T_minus(v), ..., v}``.  The U-turn set at stage K checks, for every block
size ``2^k`` with ``k in [1, K-1]``, the endpoints of every aligned block of
that size; the stage-1 check set is empty (the first doubling is always
accepted).  The stopping time ``S(v)`` is the first stage whose record lies in
the corresponding U-turn set.

The resulting orbit-selection law is purely combinatorial: conditionally on
the U-turn geometry, each final interval receives a dyadic rational mass, so
:func:`orbit_select_pmf` computes it exactly with ``Fraction`` arithmetic, in
one walk over the tree of records.

This module owns, for every sampler, how a state is weighed
(:func:`_make_entry`) and what a U-turn is (:func:`is_uturn`); every
sampler takes its steps through :func:`leapfrog.leapfrog_step_with_grad`,
carrying the half-kick of the state it steps from.  The rows sampler weighs
and checks ``(C, d)`` arrays of states with :func:`_weigh_rows` and
:func:`is_uturn_rows`, equal row by row.  A state is divergent, with weight
zero, on non-finite states or energies, or a squared norm ``|q|^2 + |p|^2``
that overflows.

Stepping and weighing overflow on a divergent state, and that is flagged,
not warned about.  The step and :func:`_weigh` enter no ``np.errstate``
themselves: their caller holds ``np.errstate(over="ignore",
invalid="ignore")`` around all the states it computes.
:class:`OrbitCache` enters it once per extension call, so the iterative
sampler pays for it once per doubling stage; the recursive sampler enters
it once per transition, and :func:`_make_entry` to weigh a single state.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .binwords import BinWord, IndexInterval, low_trunc, t_minus
from .leapfrog import LeapfrogParams, leapfrog_step_with_grad
from .targets import MassMatrix, PhasePoint, Target, potential_rows


class CacheCoverageError(RuntimeError):
    """An operation needed orbit indices the cache has not computed."""


class _Entry(NamedTuple):
    q: np.ndarray
    p: np.ndarray
    vel: np.ndarray  # M^{-1} p
    logw: float
    diverged: bool


def _weigh(target: Target, mass: MassMatrix, q: np.ndarray, p: np.ndarray) -> _Entry:
    """Weigh one state: its velocity and ``-H``, or a divergent entry of weight zero.

    Enters no ``np.errstate``; the caller holds it (see the module docstring).
    """
    pp = p.dot(p)
    # scalar finiteness probe: any nan/inf in (q, p) poisons the dot products
    if not math.isfinite(q.dot(q) + pp):
        return _Entry(q, p, p, -math.inf, True)
    if mass.is_identity:
        vel, kinetic = p, pp
    else:
        vel = mass.inv_mul(p)
        kinetic = p.dot(vel)
    logw = -float(target.potential(q)) - 0.5 * float(kinetic)
    if not math.isfinite(logw):
        return _Entry(q, p, vel, -math.inf, True)
    return _Entry(q, p, vel, logw, False)


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


def _make_entry(target: Target, mass: MassMatrix, x: PhasePoint) -> _Entry:
    """:func:`_weigh` for a single state, in its own ``np.errstate``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _weigh(target, mass, x.q, x.p)


def is_uturn(q_lo: np.ndarray, vel_lo: np.ndarray, q_hi: np.ndarray, vel_hi: np.ndarray) -> bool:
    """The U-turn criterion on the (left, right) pair of positions and velocities.

    ``v_r . (q_r - q_l) < 0`` or ``v_l . (q_r - q_l) < 0`` with velocity
    ``v = M^{-1} p`` (the whitened-coordinate form of the identity-mass
    criterion).  Both inequalities are strict, so a zero displacement is not
    a U-turn.
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

    Entries are appended one leapfrog step at a time from the current extremes
    (never recomputed from index 0), with the half-kick ``(h/2) grad U(q)``
    at each extreme cached, ``h`` signed by the side, so a fresh step costs
    exactly one gradient evaluation.  Once a divergence
    occurs on one side, all further entries on that side are flagged diverged
    without stepping.  Mutable; confine to a single chain.
    """

    def __init__(self, target: Target, params: LeapfrogParams, anchor: PhasePoint):
        self.target = target
        self.params = params
        self.mass = params.mass
        q0 = np.asarray(anchor.q, dtype=float)
        p0 = np.asarray(anchor.p, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            # the gradient first: a target may reuse its work in the potential
            kick0 = (0.5 * params.h) * target.gradient(q0)
            self._anchor = _weigh(target, self.mass, q0, p0)
        self._right: list[_Entry] = []  # indices 1, 2, ...
        self._left: list[_Entry] = []  # indices -1, -2, ...
        self._kick = [-kick0, kick0]  # at the leftmost, the rightmost state
        self.n_grad = 1
        self._pair_memo: dict[tuple[int, int], bool] = {}

    @property
    def lo(self) -> int:
        return -len(self._left)

    @property
    def hi(self) -> int:
        return len(self._right)

    def _entry(self, j: int) -> _Entry:
        if j == 0:
            return self._anchor
        if j > 0:
            if j > len(self._right):
                raise CacheCoverageError(f"index {j} beyond cached range [{self.lo}, {self.hi}]")
            return self._right[j - 1]
        if -j > len(self._left):
            raise CacheCoverageError(f"index {j} beyond cached range [{self.lo}, {self.hi}]")
        return self._left[-j - 1]

    def state(self, j: int) -> PhasePoint:
        e = self._entry(j)
        return PhasePoint(e.q, e.p)

    def logw(self, j: int) -> float:
        return self._entry(j).logw

    def diverged(self, j: int) -> bool:
        return self._entry(j).diverged

    def logw_range(self, lo: int, hi: int) -> np.ndarray:
        return np.array([self.logw(j) for j in range(lo, hi + 1)])

    def any_diverged(self, lo: int, hi: int) -> bool:
        return any(self._entry(j).diverged for j in range(lo, hi + 1))

    def _extend(self, forward: bool, n: int, check: bool) -> tuple[list[float] | None, bool] | None:
        side = self._right if forward else self._left
        top = side[-1] if side else self._anchor
        target, mass, kick = self.target, self.mass, self._kick[forward]
        gradient, inv_mul = target.gradient, mass.inv_mul
        h = self.params.h if forward else -self.params.h
        n_grad = 0
        logw: list[float] = []  # the new states' log-weights, in the order computed
        stopped = False
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, n + 1):
                if not top.diverged:
                    q, p, kick = leapfrog_step_with_grad(gradient, inv_mul, h, top.q, top.p, kick)
                    top = _weigh(target, mass, q, p)
                    n_grad += 1
                side.append(top)
                if check:
                    # an odd i completes no block of the new half
                    if top.diverged or (not i & 1 and self._turned(side, i, forward)):
                        stopped = True
                        break
                    logw.append(top.logw)
        self._kick[forward] = kick
        self.n_grad += n_grad
        if not check:
            return None
        if stopped:
            return None, top.diverged
        if not forward:
            logw.reverse()
        return logw, False

    @staticmethod
    def _turned(side: list[_Entry], i: int, forward: bool) -> bool:
        """Whether the ``i``-th new state completes an aligned block of the new
        half (size 2, 4, ... dividing ``i``) whose endpoints turn."""
        end = side[-1]
        size = 2
        while not i % size:
            start = side[-size]
            lo, hi = (start, end) if forward else (end, start)
            if is_uturn(lo.q, lo.vel, hi.q, hi.vel):
                return True
            size <<= 1
        return False

    def extend_right(self, n: int = 1, check: bool = False) -> tuple[list[float] | None, bool] | None:
        """Append ``n`` states on the right; see :meth:`extend_left`."""
        return self._extend(True, n, check)

    def extend_left(self, n: int = 1, check: bool = False) -> tuple[list[float] | None, bool] | None:
        """Append ``n`` states on the left, stepping and weighing them in one
        ``np.errstate``.

        With ``check`` the growth is the new half of a doubling stage, checked
        as it comes: the i-th new state ends it if it diverged, or if it
        completes an aligned block of the new half (size 2, 4, ..., ``n``
        dividing i, so only at even i) whose endpoints turn.  Then returns
        ``(logw, diverged)``: a list of the new states' log-weights in index
        order, gathered as they are computed, or None if the growth ended
        early, and whether it ended at a divergent state.
        """
        return self._extend(False, n, check)

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
        left, right = self._entry(i_lo), self._entry(i_hi)
        res = left.diverged or right.diverged or is_uturn(left.q, left.vel, right.q, right.vel)
        self._pair_memo[key] = res
        return res


def no_uturns(v: BinWord, cache: OrbitCache) -> bool:
    """Whether the record ``v`` avoids every stage-K U-turn check.

    Checks the endpoint pair of every aligned block of size ``2^k`` inside the
    generated interval, for ``k in [1, K-1]``; for K = 1 the check set is
    empty and the result is True.  Any divergence inside the interval counts
    as a U-turn (the sampler then stops and keeps the previous interval).
    """
    k_len = v.k
    if k_len < 1:
        raise ValueError("no_uturns requires a nonempty record")
    lo = -t_minus(v)
    hi = v.value
    if lo < cache.lo or hi > cache.hi:
        raise CacheCoverageError(f"cache [{cache.lo}, {cache.hi}] does not cover [{lo}, {hi}]")
    if cache.any_diverged(lo, hi):
        return False
    for k in range(1, k_len):
        size = 1 << k
        for block in range(1 << (k_len - k)):
            if cache.pair_uturn(lo + block * size, lo + (block + 1) * size - 1):
                return False
    return True


def stopping_time(v: BinWord, cache: OrbitCache) -> float:
    """First stage ``k`` whose prefix record lies in the U-turn set, else inf."""
    for k in range(1, v.k + 1):
        if not no_uturns(low_trunc(v, k), cache):
            return k
    return math.inf


def orbit_select_pmf(cache: OrbitCache, k_m: int) -> list[tuple[IndexInterval, Fraction]]:
    """Exact law of the final interval, by one depth-first walk over the records.

    A record offers half its mass to each of its two one-bit extensions (the
    next doubling's direction coin); an extension that passes
    :func:`no_uturns` takes it on, and the record keeps the halves of those
    that fail.  A record of length ``k_m`` keeps all of its mass.  Returns
    ``(interval, probability)`` pairs with exact dyadic probabilities summing
    to 1; sorted by interval.  Requires cache coverage of
    ``[-2^K_m + 1, 2^K_m - 1]`` (extends on demand).
    """
    cache.extend_to(-(1 << k_m) + 1, (1 << k_m) - 1)
    masses: defaultdict[tuple[int, int], Fraction] = defaultdict(Fraction)

    def walk(k: int, value: int, mass: Fraction) -> None:
        if k < k_m:
            half = mass / 2
            for ext in (value, value | 1 << k):
                if no_uturns(BinWord(k + 1, ext), cache):
                    walk(k + 1, ext, half)
                    mass -= half
        if mass:
            # the record (k, value) generates {value - 2^k + 1, ..., value}
            masses[value + 1 - (1 << k), value] += mass

    walk(0, 0, Fraction(1))
    assert sum(masses.values()) == 1
    return [(IndexInterval(lo, hi), mass) for (lo, hi), mass in sorted(masses.items())]
