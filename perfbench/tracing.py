"""Span tracing of dynhmc from outside the package.

A :class:`Tracer` records one span (name, start, end, parent) per call into
the wrapped functions.  :func:`install` wraps them by replacing module
attributes and class methods of the imported ``dynhmc`` modules, in this
process only; :meth:`Tracer.restore` puts the originals back.  No file of the
package changes.  Spans are kept in typed arrays in memory and written out
once, by :meth:`Tracer.save`.

A span's self time is its duration minus the durations of its direct
children.  Where the same function is reachable under several module names
(``dynhmc.kernels.no_uturns`` and ``dynhmc.orbit.no_uturns``), one wrapper is
installed under all of them, so each call is recorded once.

Not wrapped: the recursive sampler's private helpers (``_build_tree``,
``_rec_step``, ``_states_uturn``), whose orbit and index-selection work is
therefore charged to the ``kernels`` span, and ``binwords``, whose calls are
too cheap to time and are charged to their callers' self time.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from contextlib import contextmanager

import numpy as np

# spans whose time counts as the kernels layer; nested ones (a step function
# calling a transition function) are counted once, at the outermost
KERNEL_SPAN = "kernels.transition"
TARGET_SPANS = ("targets.gradient", "targets.potential")
INDEX_LEVEL_SPANS = (
    "index_select.multinomial_pick",
    "index_select.logsumexp",
    "index_select.accept_log_ratio",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around each call."""
        nid = self._nid(name)
        clock = time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code, such as a phase."""
        idx = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def replace(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owners, attr: str, name: str) -> None:
        """Wrap ``attr`` of the first owner and install the wrapper on all of them."""
        owners = owners if isinstance(owners, tuple) else (owners,)
        wrapped = self.wrap(name, getattr(owners[0], attr))
        for owner in owners:
            self.replace(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(
            self.names,
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path) -> None:
        s = self.spans()
        np.savez(path, names=np.array(s.names), name=s.name, parent=s.parent, start=s.start, end=s.end)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every dynhmc layer the benchmark measures."""
    import dynhmc.cli as cli
    import dynhmc.index_select as index_select
    import dynhmc.kernels as kernels
    import dynhmc.leapfrog as leapfrog
    import dynhmc.orbit as orbit
    import dynhmc.targets as targets
    import dynhmc.verify as verify

    make_target = targets.builtin_target

    def traced_builtin_target(*args, **kwargs):
        t = make_target(*args, **kwargs)
        return dataclasses.replace(
            t,
            potential=tracer.wrap("targets.potential", t.potential),
            gradient=tracer.wrap("targets.gradient", t.gradient),
        )

    tracer.replace(targets, "builtin_target", traced_builtin_target)
    tracer.replace(cli, "builtin_target", traced_builtin_target)
    tracer.patch(kernels, "momentum_refresh", "targets.momentum_refresh")
    tracer.patch((leapfrog, orbit, kernels), "leapfrog_step_with_grad", "leapfrog.step")
    tracer.patch(orbit.OrbitCache, "extend_right", "orbit.extend")
    tracer.patch(orbit.OrbitCache, "extend_left", "orbit.extend")
    tracer.patch(orbit.OrbitCache, "pair_uturn", "orbit.pair_uturn")
    tracer.patch((orbit, kernels), "no_uturns", "orbit.no_uturns")
    tracer.patch((orbit, kernels, verify), "orbit_select_pmf", "orbit.orbit_select_pmf")
    tracer.patch(kernels, "multinomial_pick", "index_select.multinomial_pick")
    tracer.patch(kernels, "logsumexp", "index_select.logsumexp")
    tracer.patch(kernels, "accept_log_ratio", "index_select.accept_log_ratio")
    tracer.patch(index_select.WeightTree, "qhat_row_log", "index_select.qhat_row")
    for fn in ("nuts_step_iterative", "nuts_step_recursive"):
        tracer.patch((kernels, verify), fn, KERNEL_SPAN)
    for fn in ("hmc_step", "nuts_transition_iterative", "nuts_transition_recursive"):
        tracer.patch(kernels, fn, KERNEL_SPAN)
    tracer.patch((kernels, verify), "nuts_exact_pmf", "kernels.nuts_exact_pmf")
    tracer.patch(verify, "statistical_invariance", "verify.statistical_invariance")
    tracer.patch(verify, "ergodicity_run", "verify.ergodicity_run")
    tracer.patch(cli, "cmd_sample", "cli.sample")


@dataclasses.dataclass
class Spans:
    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self) -> None:
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self.self_time = self.dur - child
        # parents precede their children, so lifting one level per pass
        # reaches every span's outermost ancestor within the nesting depth
        root = np.arange(self.dur.size)
        while True:
            up = np.where(self.parent[root] >= 0, self.parent[root], root)
            if np.array_equal(up, root):
                break
            root = up
        self.root = root
        is_kernel = self.is_(KERNEL_SPAN)
        parent_kernel = np.zeros_like(is_kernel)
        parent_kernel[has_parent] = is_kernel[self.parent[has_parent]]
        self.top_kernel = is_kernel & ~parent_kernel
        inside = np.zeros_like(is_kernel)
        while True:
            nxt = np.zeros_like(inside)
            nxt[has_parent] = (is_kernel | inside)[self.parent[has_parent]]
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        self.in_kernel = inside

    def is_(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def under(self, phase: str) -> np.ndarray:
        """Mask of the spans below the benchmark's phase spans named ``phase``."""
        return self.is_(phase)[self.root]

    def count(self, mask: np.ndarray, *names: str) -> int:
        return int(np.count_nonzero(mask & self.is_(*names)))

    def total(self, mask: np.ndarray, *names: str) -> float:
        return float(self.dur[mask & self.is_(*names)].sum())

    def total_self(self, mask: np.ndarray, *names: str) -> float:
        return float(self.self_time[mask & self.is_(*names)].sum())

    def extend_states(self, mask: np.ndarray) -> int:
        """Orbit states appended by ``extend``: one leapfrog step each."""
        ext = self.is_("orbit.extend")
        step = mask & self.is_("leapfrog.step") & (self.parent >= 0)
        return int(np.count_nonzero(ext[self.parent[step]]))


@dataclasses.dataclass
class Tally:
    """What the program itself reports about one kernel kind's transitions."""

    transitions: int = 0
    grads: int = 0
    depth_sum: int = 0  # accepted doubling levels, the sum of k_f
    kept_states: int = 0  # sum of 2^k_f - 1
    computed_states: int = 0  # sum of n_grad - 1

    def add(self, n_grad: np.ndarray, k_f: np.ndarray) -> None:
        self.transitions += int(n_grad.size)
        self.grads += int(n_grad.sum())
        self.depth_sum += int(k_f.sum())
        self.kept_states += int(np.sum(2.0 ** k_f - 1.0))
        self.computed_states += int(np.sum(n_grad - 1.0))


def _per(num: float, den: float, what: str, scale: float = 1.0) -> float:
    if not den:
        raise RuntimeError(f"no {what} in the traced run")
    return num * scale / den


def kind_metrics(s: Spans, mask: np.ndarray, kind: str, tally: Tally) -> dict[str, float]:
    """Per-layer figures of one kernel kind, from the spans in ``mask``.

    Every workload reports the same names, each prefixed with the kind.
    ``tally`` holds the program's own counts for the same transitions.
    """
    n = tally.transitions
    n_grad = s.count(mask, "targets.gradient")
    n_pot = s.count(mask, "targets.potential")
    n_step = s.count(mask, "leapfrog.step")
    kernel_time = float(s.dur[mask & s.top_kernel].sum())
    target_time = float(s.dur[mask & s.in_kernel & s.is_(*TARGET_SPANS)].sum())
    out = {
        "targets.gradient.calls_per_transition": _per(n_grad, n, "transitions"),
        "targets.gradient.us_per_call": _per(s.total(mask, "targets.gradient"), n_grad,
                                             "gradient calls", 1e6),
        "targets.potential.calls_per_transition": _per(n_pot, n, "transitions"),
        "targets.potential.us_per_call": _per(s.total(mask, "targets.potential"), n_pot,
                                              "potential calls", 1e6),
        "leapfrog.step.self_us": _per(s.total_self(mask, "leapfrog.step"), n_step,
                                      "leapfrog steps", 1e6),
        "kernels.grads_per_transition": _per(tally.grads, n, "transitions"),
        "kernels.overhead_us_per_grad": _per(kernel_time - target_time, tally.grads,
                                             "gradients", 1e6),
        "kernels.grad_evals_per_s": _per(tally.grads, kernel_time, "kernel time"),
    }
    if kind != "hmc":
        out["index_select.level.us"] = _per(s.total(mask, *INDEX_LEVEL_SPANS), tally.depth_sum,
                                            "doubling levels", 1e6)
        out["kernels.useful_state_ratio"] = _per(tally.kept_states, tally.computed_states,
                                                 "computed states")
        out["kernels.mean_depth"] = _per(tally.depth_sum, n, "transitions")
    if kind == "nuts_iterative":
        n_pair = s.count(mask, "orbit.pair_uturn")
        out["orbit.extend.self_us_per_state"] = _per(
            s.total_self(mask, "orbit.extend"), s.extend_states(mask), "orbit states", 1e6)
        out["orbit.no_uturns.self_us_per_transition"] = _per(
            s.total_self(mask, "orbit.no_uturns"), n, "transitions", 1e6)
        out["orbit.pair_uturn.calls_per_transition"] = _per(n_pair, n, "transitions")
        out["orbit.pair_uturn.us_per_call"] = _per(s.total(mask, "orbit.pair_uturn"), n_pair,
                                                   "pair_uturn calls", 1e6)
    return {f"{kind}.{k}": v for k, v in out.items()}


def count_failures(s: Spans, mask: np.ndarray, kind: str, tally: Tally) -> list[str]:
    """The gradient calls counted from outside must equal the program's own count."""
    counted = s.count(mask, "targets.gradient")
    if counted == tally.grads:
        return []
    return [f"{kind}: {counted} gradient calls counted from outside, {tally.grads} reported "
            f"by the program"]


def run_metrics(s: Spans) -> dict[str, float]:
    """Per-layer figures over the whole run, not split by kind."""
    everything = np.ones(s.dur.size, dtype=bool)
    return {"targets.momentum_refresh.us_per_call": _per(
        s.total(everything, "targets.momentum_refresh"),
        s.count(everything, "targets.momentum_refresh"), "momentum refreshes", 1e6)}
