"""Sampling workloads: ``dynhmc sample`` run in-process, its CSV and summary read back.

Each round runs one ``dynhmc sample`` call per kernel kind, with a fresh
``--seed`` per (round, kind), so every round adds independent chains.  The
draws are checked against facts that do not come from the program: zero means
by the q -> -q symmetry of both targets, ``E|q|^2 / d = 1`` for the standard
Gaussian, and for the perturbed Gaussian the interval
``[tr((Sigma + a5 I)^-1), tr(Sigma^-1)]``, which holds for
``U(q) = q' Sigma q / 2 + a5 sum log cosh q_i`` because its Hessian lies
between ``Sigma`` and ``Sigma + a5 I``: the information inequality gives the
lower end and Brascamp-Lieb the upper.  Standard errors are batch means over
all chains, and the critical value is Student's t at a family-wise level of
``checks.ALPHA`` per run, Bonferroni over every test of the run.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from dynhmc.cli import main

import checks
from clock import Timed
from ess import ess_chains
from tracing import Tally, count_failures, kind_metrics, run_metrics

KINDS = ("nuts_iterative", "nuts_recursive", "hmc")


@dataclass(frozen=True)
class SamplingSpec:
    dim: int
    h: float
    k_m: int
    t: int  # HMC leapfrog steps
    chains: int  # per dynhmc sample call
    iters: tuple[int, int, int]  # per chain, for each of KINDS
    burn: int  # per chain, dropped before ESS and checks
    batch: int  # batch-means length
    dense: bool  # perturbed Gaussian with a dense precision, else standard Gaussian
    a5: float = 0.5
    probe: bool = True  # scale times to the reference CPU speed, see clock.py


SPECS = {
    # ROADMAP baseline: the gradient is q itself, so Python overhead dominates.
    # Calls of 0.03-0.1 s let the probes on either side track the CPU speed,
    # which drifts within a second: at 500 iterations per call the scaled
    # per-call rates varied by about 10% within a run, at 100 by 1-4%
    "gauss-d100": SamplingSpec(
        dim=100, h=0.25, k_m=8, t=16, chains=1, iters=(100, 100, 100), burn=20,
        batch=20, dense=False
    ),
    # target calls dominate (two 1000 x 1000 matvecs per orbit state).  Each
    # call costs about 4 s beyond its transitions, mostly in writing the
    # summary, so a run affords one call per kind, and its raw rate (see
    # clock.py) is the kind's rate.  The iterations give each kind about 10 s
    # of sampling
    "dense-d1000": SamplingSpec(
        dim=1000, h=0.2, k_m=8, t=16, chains=1, iters=(300, 450, 900), burn=10, batch=14,
        dense=True, probe=False,
    ),
}


@dataclass
class KindResult(Tally):
    diverged: int = 0
    rates: list = field(default_factory=list)  # per call, at the reference CPU speed
    raw_rates: list = field(default_factory=list)  # per call, as measured
    q1: list = field(default_factory=list)
    r2: list = field(default_factory=list)
    batch_q: list = field(default_factory=list)
    batch_r2: list = field(default_factory=list)


class SamplingRun:
    """Inputs, rounds and checks of one sampling workload at one seed."""

    def __init__(self, name: str, seed: int, out: Path):
        self.name = name
        self.spec = SPECS[name]
        self.seed = seed
        self.out = out
        self.results = {k: KindResult() for k in KINDS}
        self.round_times: list[float] = []  # per round, at the reference CPU speed
        self.raw_round_times: list[float] = []
        self.failures: list[str] = []
        self.configs = self._write_configs()

    def _write_configs(self) -> dict[str, Path]:
        s = self.spec
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0]))
        if s.dense:
            a = rng.standard_normal((s.dim, s.dim))
            sigma = a @ a.T / s.dim + np.eye(s.dim)
            sigma = 0.5 * (sigma + sigma.T)
            # q0 ~ N(0, Sigma^-1): at the mode the leapfrog energy error is so
            # negative that a chain started there never leaves it
            lower = np.linalg.cholesky(sigma)
            q0 = np.linalg.solve(lower.T, rng.standard_normal(s.dim))
            eig = np.linalg.eigvalsh(sigma)
            self.r2_interval = (float(np.sum(1.0 / (eig + s.a5))), float(np.sum(1.0 / eig)))
            target = {"kind": "perturbed_gaussian", "dim": s.dim, "a5": s.a5,
                      "sigma": sigma.ravel().tolist()}
            extra = {"q0": q0.tolist()}
        else:
            target = {"kind": "standard_gaussian", "dim": s.dim}
            extra = {}
        # the target section is serialised once and shared by the three files
        target_json = json.dumps(target)
        paths = {}
        for kind, iters in zip(KINDS, s.iters):
            kernel = {"kind": kind, "h": s.h, "k_m": s.k_m, "t": s.t}
            rest = json.dumps({"kernel": kernel, "chains": s.chains, "iters": iters, **extra})
            path = self.out / f"{self.name}-{kind}.json"
            path.write_text('{"target": ' + target_json + ", " + rest[1:])
            paths[kind] = path
        return paths

    def setup_command(self) -> list[str]:
        """A zero-iteration ``dynhmc sample`` with the same config."""
        return ["sample", "--config", str(self.configs["nuts_iterative"]), "--iters", "0",
                "--out", str(self.out / "setup.csv")]

    def remove_setup_output(self) -> None:
        for name in ("setup.csv", "setup.csv.summary.json"):
            (self.out / name).unlink()

    def remove_configs(self) -> None:
        """The configs hold Sigma in full on dense-d1000, 22 MB each."""
        for path in self.configs.values():
            path.unlink()

    def run_round(self, rnd: int, tracer=None) -> None:
        raw = scaled = 0.0
        for kind in KINDS:
            r, s = self._call(kind, rnd, tracer)
            raw, scaled = raw + r, scaled + s
        self.raw_round_times.append(raw)
        self.round_times.append(scaled)

    def _call(self, kind: str, rnd: int, tracer) -> tuple[float, float]:
        """One ``dynhmc sample`` call; its (raw, reference-speed) seconds."""
        call_seed = int(np.random.SeedSequence([self.seed, 1, rnd, KINDS.index(kind)])
                        .generate_state(1)[0])
        csv = self.out / f"{kind}-{rnd}.csv"
        argv = ["sample", "--config", str(self.configs[kind]), "--seed", str(call_seed),
                "--out", str(csv)]
        with Timed(self.spec.probe) as timed:
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.span(kind):
                    rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"dynhmc sample exited {rc} for {kind}")
        self._read(kind, csv, timed)
        return timed.raw, timed.scaled

    def _read(self, kind: str, csv: Path, timed: Timed) -> None:
        s, res = self.spec, self.results[kind]
        summary = read_summary(Path(str(csv) + ".summary.json"))
        with open(csv) as fh:
            header = fh.readline().strip()
        want = ",".join(["chain", "iter"] + [f"q{i + 1}" for i in range(s.dim)]
                        + ["jf", "kf", "ngrad", "diverged"])
        if header != want:
            raise RuntimeError(f"{csv.name}: unexpected CSV header")
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        csv.unlink()
        Path(str(csv) + ".summary.json").unlink()
        iters = s.iters[KINDS.index(kind)]
        n = s.chains * iters
        if rows.shape != (n, s.dim + 6):
            raise RuntimeError(f"{csv.name}: {rows.shape} rows, expected {(n, s.dim + 6)}")
        ngrad, kf, div = rows[:, -2], rows[:, -3], rows[:, -1]
        wall = float(summary["wall_time_s"])
        if not 0.0 < wall <= timed.raw:
            self.failures.append(f"{kind}: summary wall_time_s {wall} outside (0, {timed.raw}]")
        if summary["grad_evals"] != int(ngrad.sum()):
            self.failures.append(f"{kind}: summary grad_evals differs from the CSV ngrad sum")
        if summary["divergences"] != int(div.sum()):
            self.failures.append(f"{kind}: summary divergences differ from the CSV")
        res.add(ngrad, kf)
        res.diverged += int(div.sum())
        res.raw_rates.append(n / wall)
        res.rates.append(n / timed.scale(wall))
        for c in range(s.chains):
            chain = rows[rows[:, 0] == c]
            if not np.array_equal(chain[:, 1], np.arange(iters)):
                raise RuntimeError(f"{csv.name}: chain {c} rows out of order")
            post = chain[s.burn:, 2:2 + s.dim]
            r2 = np.einsum("ij,ij->i", post, post)
            res.q1.append(post[:, 0].copy())
            res.r2.append(r2)
            nb = len(post) // s.batch
            res.batch_q.append(post[: nb * s.batch].reshape(nb, s.batch, s.dim).mean(axis=1))
            res.batch_r2.append(r2[: nb * s.batch].reshape(nb, s.batch).mean(axis=1))

    def ess(self, kind: str) -> float:
        res = self.results[kind]
        return min(ess_chains(res.q1), ess_chains(res.r2))

    def check(self) -> list[str]:
        """Failures of the output checks; empty when every check passes."""
        s = self.spec
        failures = list(self.failures)
        n_tests = len(KINDS) * (s.dim + 1) + (1 if s.dense else 0)
        moments = {}
        for kind in KINDS:
            res = self.results[kind]
            bq = np.concatenate(res.batch_q)
            br2 = np.concatenate(res.batch_r2)
            crit = checks.critical_t(n_tests, len(bq))
            mean, se = checks.batch_mean_se(bq)
            worst = int(np.argmax(np.abs(mean / se)))
            # fixed-length HMC on the dense target resonates: T h sqrt(lambda)
            # = 2 pi at lambda = 3.85, inside the spectrum [1, 5], so those
            # modes barely move within a run, and no standard error from the
            # run is valid for the means; its E|q|^2 is still checked
            resonant = s.dense and kind == "hmc"
            if not resonant and abs(mean[worst] / se[worst]) > crit:
                failures.append(f"{kind}: mean of q{worst + 1} is {mean[worst]:.4g}, "
                                f"{abs(mean[worst] / se[worst]):.2f} SE from 0 (limit {crit:.2f})")
            m2, se2 = checks.batch_mean_se(br2)
            moments[kind] = (float(m2), float(se2), len(br2))
            if s.dense:
                lo, hi = self.r2_interval
                dev = max(lo - m2, m2 - hi, 0.0) / se2
                if dev > crit:
                    failures.append(f"{kind}: E|q|^2 = {m2:.2f} is {dev:.2f} SE outside "
                                    f"[{lo:.1f}, {hi:.1f}] (limit {crit:.2f})")
            elif abs(m2 / s.dim - 1.0) / (se2 / s.dim) > crit:
                failures.append(f"{kind}: E|q|^2/d = {m2 / s.dim:.4f}, more than {crit:.2f} SE "
                                f"from 1")
        if s.dense:
            (m_a, se_a, n_a), (m_b, se_b, n_b) = moments["nuts_iterative"], moments["nuts_recursive"]
            crit = checks.critical_t(n_tests, min(n_a, n_b))
            z = abs(m_a - m_b) / np.hypot(se_a, se_b)
            if z > crit:
                failures.append(f"NUTS kinds disagree on E|q|^2: {m_a:.2f} vs {m_b:.2f} "
                                f"({z:.2f} SE, limit {crit:.2f})")
        return failures

    def raw(self) -> dict[str, float]:
        out = {f"{k}.transitions_per_s": statistics.median(r.raw_rates)
               for k, r in self.results.items()}
        out["round_s"] = statistics.median(self.raw_round_times)
        return out

    def end_to_end(self) -> dict[str, float]:
        """Rates per kind and the round time.  The rate is the median over calls
        of each call's own rate at the reference CPU speed, which a burst of a
        faster or slower CPU in one call does not move."""
        out = {f"{k}.transitions_per_s": statistics.median(r.rates)
               for k, r in self.results.items()}
        out["round_s"] = statistics.median(self.round_times)
        return out

    def ess_figures(self) -> dict[str, float]:
        """ESS per second (ESS per transition times the rate) and per gradient.

        Kept in the result file only: the certify workload has no chains, and
        on dense-d1000 the ESS of a run's few hundred draws per kind moved by
        about 25% between seeds.
        """
        out = {}
        for kind in KINDS:
            res, e = self.results[kind], self.ess(kind)
            out[f"{kind}.ess_per_s"] = e / res.transitions * statistics.median(res.rates)
            out[f"{kind}.ess_per_grad"] = e / res.grads
        return out

    def per_layer(self, spans) -> tuple[dict[str, float], list[str]]:
        """Per-layer figures of a traced run, and the failures of the outside count."""
        out, failures = run_metrics(spans), []
        for kind in KINDS:
            res = self.results[kind]
            mask = spans.under(kind)
            out.update(kind_metrics(spans, mask, kind, res))
            failures += count_failures(spans, mask, kind, res)
            # the CLI layer, kept in the result file: certify does not use it
            out[f"{kind}.cli.sample.overhead_us_per_transition"] = (
                cli_overhead(spans, mask) / res.transitions * 1e6
            )
        return out, failures


def cli_overhead(spans, mask) -> float:
    """Time of ``dynhmc sample`` from its first transition on, minus the kernel calls."""
    total = 0.0
    for c in np.flatnonzero(mask & spans.is_("cli.sample")):
        kern = spans.top_kernel & (spans.parent == c)
        if not kern.any():
            continue
        first = float(spans.start[kern].min())
        total += float(spans.end[c]) - first - float(spans.dur[kern].sum())
    return total


def read_summary(path: Path) -> dict:
    """The summary's run figures, without parsing its echo of the config.

    At d = 1000 the echoed precision matrix makes the file about 30 MB; the
    figures are the top-level keys that follow it.
    """
    text = path.read_text()
    start = text.find('\n  "depth_histogram": ')
    if start < 0:
        raise RuntimeError(f"{path.name}: no depth_histogram key")
    return json.loads("{" + text[start:])
