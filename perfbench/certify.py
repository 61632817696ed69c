"""The certify workload: the checks behind ``dynhmc verify``, at benchmark sizes.

One round runs six checks through the public functions of ``dynhmc.verify``
and ``dynhmc.kernels``; each is one operation, failed when it does not pass:

1. ``statistical_invariance`` with the ``invariance`` suite's config (standard
   Gaussian, d = 5, h = 1.0, k_m = 4) on exact Gaussian draws;
2. ``ergodicity_run`` with the ``ergodicity`` suite's config (d = 2, h = 0.5,
   k_m = 6, q0 = (50, 0)) against the known moments;
3. and 4. an exact-law chi-squared test of ``nuts_transition_iterative`` and
   of ``nuts_transition_recursive``, repeated from fixed phase points on
   d = 2 at k_m = 8, against the enumerated law of ``nuts_exact_pmf``;
5. the ``always-swap`` negative control: the same test of the mutated
   iterative sampler must reject.  At the step size of checks 3 and 4 the
   orbit weights are nearly equal, so the swap coin almost always swaps
   anyway and the mutation is invisible; at h = 1.8 the weights differ and
   the control rejects with p-values below 1e-20;
6. one-transition invariance of ``hmc_step`` on the standard Gaussian, d = 5,
   from exact draws: paired z-tests on every first and second moment, as
   ``statistical_invariance`` does for NUTS.

Every check runs at a family-wise level of ``checks.ALPHA``.  The anchors are
fixed so that every round does the same work; the seed drives the draws.  The
transitions of checks 3, 4 and 6 are timed per kernel kind, which gives the
workload's ``<kind>.transitions_per_s``.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext

import numpy as np
from dynhmc import kernels, targets, verify
from scipy import stats as sps

import checks
from clock import Timed
from tracing import Tally, count_failures, kind_metrics, run_metrics

KINDS = ("nuts_iterative", "nuts_recursive", "hmc")
OPS_PER_ROUND = 6

INVARIANCE = dict(dim=5, h=1.0, k_m=4, n=2500)
ERGODICITY = dict(dim=2, h=0.5, k_m=6, iters=2500, q0=(50.0, 0.0))
# h = 0.15 gives depth-5 trees at the first anchor and a mix of depths 4 and 5
# at the second
EXACT = dict(h=0.15, k_m=8, draws=300,
             anchors=(((1.0, -0.5), (0.3, 0.8)), ((1.5, 0.2), (0.1, -0.9))))
CONTROL = dict(h=1.8, k_m=6, draws=150,
               anchors=(((0.041, 1.632), (1.225, -0.51)), ((0.896, -2.217), (1.567, -0.096))))
HMC = dict(dim=5, h=0.25, t=16, n=2500)
# the CPU speed drifts within a second, and a probe on each side of a short
# block tracks it better than one on each side of a long block; 50 NUTS or
# 250 HMC transitions take 50-100 ms
CHUNK = dict(nuts_iterative=50, nuts_recursive=50, hmc=250)


class CertifyRun:
    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.failures: list[str] = []
        self.failed_ops = 0
        self.wrong: list[str] = []  # outputs that contradict an exact fact
        self.tallies = {k: Tally() for k in KINDS}
        # (raw, reference-speed) seconds in each kind's timed transitions
        self.kind_time = {k: [0.0, 0.0] for k in KINDS}
        self.round_times: list[float] = []  # per round, at the reference CPU speed
        self.raw_round_times: list[float] = []

    def _config(self, kind: str, dim: int, h: float, k_m: int = 10, t: int = 1):
        return kernels.KernelConfig(kind, h=h, mass=targets.MassMatrix.identity(dim), k_m=k_m, t=t)

    def _fail(self, msg: str) -> None:
        """A check that did not pass: one failed operation."""
        self.failures.append(msg)
        self.failed_ops += 1

    @contextmanager
    def _timed(self, kind: str | None = None):
        """Time a block into the round; a kind's block is also a traced phase."""
        phase = nullcontext() if self.tracer is None or kind is None else self.tracer.span(kind)
        with Timed() as timed:
            with phase:
                yield
        self._raw += timed.raw
        self._scaled += timed.scaled
        if kind is not None:
            self.kind_time[kind][0] += timed.raw
            self.kind_time[kind][1] += timed.scaled

    def run_round(self, rnd: int) -> None:
        seeds = np.random.SeedSequence([self.seed, 2, rnd]).generate_state(4)
        self._raw = self._scaled = 0.0

        dim = INVARIANCE["dim"]
        with self._timed():
            inv = verify.statistical_invariance(
                targets.builtin_target("standard_gaussian", dim),
                self._config("nuts_iterative", dim, INVARIANCE["h"], INVARIANCE["k_m"]),
                n=INVARIANCE["n"], seed=int(seeds[0]), alpha=checks.ALPHA,
            )
        if not inv.passed or inv.underpowered:
            self._fail(f"statistical_invariance: |z| {inv.violation:.2f} > {inv.tolerance:.2f}")

        dim = ERGODICITY["dim"]
        with self._timed():
            erg = verify.ergodicity_run(
                targets.builtin_target("standard_gaussian", dim),
                self._config("nuts_iterative", dim, ERGODICITY["h"], ERGODICITY["k_m"]),
                iters=ERGODICITY["iters"], seed=int(seeds[1]), q0=np.array(ERGODICITY["q0"]),
                ref_mean=np.zeros(dim), ref_second=np.ones(dim),
            )
        if not erg.passed or erg.underpowered:
            self._fail(f"ergodicity_run: {erg.violation:.2f} SE > {erg.tolerance}")

        self._exact_law(np.random.default_rng(seeds[2]))
        self._hmc_invariance(np.random.default_rng(seeds[3]))

        self.round_times.append(self._scaled)
        self.raw_round_times.append(self._raw)

    def _exact_law(self, rng: np.random.Generator) -> None:
        target = targets.builtin_target("standard_gaussian", 2)
        samplers = (("nuts_iterative", kernels.nuts_transition_iterative),
                    ("nuts_recursive", kernels.nuts_transition_recursive))
        worst = {name: 1.0 for name, _ in samplers}
        cfg = self._config("nuts_iterative", 2, EXACT["h"], EXACT["k_m"])
        for q, p in EXACT["anchors"]:
            x0 = targets.PhasePoint(np.array(q), np.array(p))
            with self._timed():
                pmf = kernels.nuts_exact_pmf(target, cfg, x0)
            if abs(pmf.total() - 1.0) > 1e-12:
                self.wrong.append(f"nuts_exact_pmf at {q}, {p} sums to {pmf.total()!r}")
            for name, transition in samplers:
                counts = self._draw(name, transition, target, cfg, x0, EXACT["draws"], rng)
                worst[name] = min(worst[name],
                                  verify.chi2_gof(counts, pmf.probs_dict(), EXACT["draws"]))
        n_tests = len(EXACT["anchors"]) * len(samplers)
        for name, p_value in worst.items():
            if p_value < checks.ALPHA / n_tests:
                self._fail(f"exact law of {name}: chi-squared p = {p_value:.3g}")

        cfg = self._config("nuts_iterative", 2, CONTROL["h"], CONTROL["k_m"])
        best = 0.0
        for q, p in CONTROL["anchors"]:
            x0 = targets.PhasePoint(np.array(q), np.array(p))
            with self._timed():
                pmf = kernels.nuts_exact_pmf(target, cfg, x0)
                counts: dict[int, int] = {}
                for _ in range(CONTROL["draws"]):
                    _, info = kernels.nuts_transition_iterative(target, cfg, x0, rng,
                                                               mutate="always-swap")
                    counts[info.j_f] = counts.get(info.j_f, 0) + 1
            best = max(best, verify.chi2_gof(counts, pmf.probs_dict(), CONTROL["draws"]))
        if best >= checks.ALPHA / len(CONTROL["anchors"]):
            self._fail(f"always-swap control not rejected: chi-squared p = {best:.3g}")

    def _draw(self, kind, transition, target, cfg, x0, n, rng) -> dict[int, int]:
        """``n`` timed transitions of ``kind`` from ``x0``; the counts of their j_f."""
        infos = []
        for start in range(0, n, CHUNK[kind]):
            with self._timed(kind):
                for _ in range(min(CHUNK[kind], n - start)):
                    infos.append(transition(target, cfg, x0, rng)[1])
        self._record(kind, infos)
        counts: dict[int, int] = {}
        for info in infos:
            counts[info.j_f] = counts.get(info.j_f, 0) + 1
        return counts

    def _record(self, kind: str, infos) -> None:
        self.tallies[kind].add(np.array([i.n_grad for i in infos], dtype=float),
                               np.array([i.k_f for i in infos], dtype=float))

    def _hmc_invariance(self, rng: np.random.Generator) -> None:
        d, n = HMC["dim"], HMC["n"]
        target = targets.builtin_target("standard_gaussian", d)
        cfg = self._config("hmc", d, HMC["h"], t=HMC["t"])
        before = rng.standard_normal((n, d))
        after = np.empty_like(before)
        infos = []
        for start in range(0, n, CHUNK["hmc"]):
            with self._timed("hmc"):
                for i in range(start, min(start + CHUNK["hmc"], n)):
                    after[i], info = kernels.hmc_step(target, cfg, before[i], rng)
                    infos.append(info)
        self._record("hmc", infos)
        rows, cols = np.triu_indices(d)
        diff = np.hstack([after - before,
                          after[:, rows] * after[:, cols] - before[:, rows] * before[:, cols]])
        z = diff.mean(axis=0) / (diff.std(axis=0, ddof=1) / np.sqrt(n))
        crit = float(sps.norm.ppf(1.0 - checks.ALPHA / (2.0 * diff.shape[1])))
        if np.max(np.abs(z)) > crit:
            self._fail(f"hmc invariance: |z| {np.max(np.abs(z)):.2f} > {crit:.2f}")

    def end_to_end(self) -> dict[str, float]:
        """The kinds' transitions over their time in the whole run, and the median round."""
        out = {f"{k}.transitions_per_s": self.tallies[k].transitions / self.kind_time[k][1]
               for k in KINDS}
        out["round_s"] = statistics.median(self.round_times)
        return out

    def raw(self) -> dict[str, float]:
        out = {f"{k}.transitions_per_s": self.tallies[k].transitions / self.kind_time[k][0]
               for k in KINDS}
        out["round_s"] = statistics.median(self.raw_round_times)
        return out

    def per_layer(self, spans, rounds: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer figures of a traced run, and the failures of the outside count."""
        out, failures = run_metrics(spans), []
        for kind in KINDS:
            mask = spans.under(kind)
            out.update(kind_metrics(spans, mask, kind, self.tallies[kind]))
            failures += count_failures(spans, mask, kind, self.tallies[kind])
        # figures of the certification layers alone, kept in the result file
        everything = np.ones(spans.dur.size, dtype=bool)
        for name, scale, key in (
            ("kernels.nuts_exact_pmf", 1e3, "kernels.nuts_exact_pmf.ms_per_call"),
            ("orbit.orbit_select_pmf", 1e3, "orbit.orbit_select_pmf.ms_per_call"),
            ("index_select.qhat_row", 1e6, "index_select.qhat_row.us_per_call"),
        ):
            out[key] = spans.total(everything, name) / spans.count(everything, name) * scale
        for name in ("verify.statistical_invariance", "verify.ergodicity_run"):
            out[f"{name}.s"] = spans.total(everything, name) / rounds
        return out, failures
