"""The traced benchmark wraps dynhmc's functions by name from outside the
package (``perfbench/tracing.py``).  A name it patches that the package no
longer has, a wrapped path that loses gradient calls, or a step taken
around the patched names fails here rather than only in a traced benchmark
run."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

import dynhmc.cli as cli
import dynhmc.index_select as index_select
import dynhmc.kernels as kernels
import dynhmc.leapfrog as leapfrog
import dynhmc.orbit as orbit
import dynhmc.targets as targets
import dynhmc.verify as verify

OWNERS = (cli, index_select, kernels, leapfrog, orbit, targets, verify,
          orbit.OrbitCache, index_select.WeightTree)
KINDS = (
    ("nuts_iterative", {"k_m": 4}),
    ("nuts_recursive", {"k_m": 4}),
    ("hmc", {"t": 5}),
    ("rhmc", {"weights": np.array([0.5, 0.5])}),
)
ROOT = Path(__file__).resolve().parents[1]
BENCH_KINDS = ("nuts_iterative", "nuts_recursive", "hmc")  # the kinds the benchmark reports


def _load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_install_counts_every_gradient_and_restore_undoes_it():
    tracing = _load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        target = targets.builtin_target("standard_gaussian", 2)
        tallies = {}
        for kind, extra in KINDS:
            cfg = kernels.KernelConfig(kind, h=0.4, mass=targets.MassMatrix.identity(2), **extra)
            kernel = kernels.make_kernel(target, cfg)
            rng = np.random.default_rng(0)
            q = np.zeros(2)
            tally = tallies[kind] = tracing.Tally()
            with tracer.span(kind):
                for _ in range(20):
                    q, info = kernel(q, rng)
                    tally.add(np.array([info.n_grad]), np.array([info.k_f]))
        spans = tracer.spans()
        declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        for kind, tally in tallies.items():
            mask = spans.under(kind)
            assert spans.count(mask, "kernels.transition") >= 20
            assert tracing.count_failures(spans, mask, kind, tally) == []
            # one step per gradient past the anchor's; a step taken around
            # the patched names is missing here
            assert spans.count(mask, "leapfrog.step") == tally.computed_states > 0
            if kind in BENCH_KINDS:
                figures = tracing.kind_metrics(spans, mask, kind, tally)
                assert set(figures) == {name for name in declared if name.startswith(kind + ".")}
                assert all(math.isfinite(v) for v in figures.values())
    finally:
        tracer.restore()
    for owner, snapshot in zip(OWNERS, before):
        now = vars(owner)
        assert all(now[name] is value for name, value in snapshot.items())
