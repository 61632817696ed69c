"""Command-line front end: sampling runs, pmf queries, verification, benchmarks.

Subcommands: ``sample | verify | pmf | conditions | trajectory | bench``.
Configuration is a plain JSON document; command-line flags override file
keys, and the ``NUTS_SEED`` environment variable overrides the config seed
(but not an explicit ``--seed``).  The seed defaults to a fixed constant,
never the clock: reproducibility over convenience.  Exit codes: 0 ok, 1
verification failure, 2 usage/config error, 3 I/O error.  ``trajectory``
solves the two-point leapfrog boundary value problem and exits 0 ok, 1 when
the fixed-point iteration does not converge, 2 when the step-size condition
``L1 h^2 < 2 (1 - cos(pi/T))`` is violated or the input is bad.

``sample`` opens its CSV destination (``--out`` or stdout) once the config
is validated and writes each row as soon as it is made, so its memory does
not grow with chains x iters: an ``--out`` that cannot be opened exits 3
before the first transition, a run stopped part-way leaves the rows written
so far, and ``wall_time_s`` covers formatting and writing the rows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .kernels import KernelConfig, make_kernel, nuts_exact_pmf
from .orbit import _make_entry
from .targets import MassMatrix, PhasePoint, Target, builtin_target, momentum_refresh

DEFAULT_SEED = 20230710
EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
# bytes: rows are written inside sample's timed loop, one write call per
# buffer filled, where the default buffer holds 8 KiB
CSV_BUFFER = 1 << 20

SUITES = (
    "symmetry",
    "balance",
    "accessibility",
    "invariance",
    "equivalence",
    "drift",
    "tails",
    "conditions",
    "degeneracy",
    "ergodicity",
    "all",
)

# the keys each config section takes, by its path; any other key is a config
# error, so a misspelt key cannot leave its default silently in force
CONFIG_KEYS = {
    (): ("target", "kernel", "chains", "iters", "seed", "out", "q0", "conditions"),
    ("target",): ("kind", "dim", "sigma", "a5"),
    ("kernel",): ("kind", "h", "k_m", "t", "mass", "weights"),
    ("kernel", "mass"): ("kind", "diag", "matrix"),
    ("conditions",): ("l1", "h", "k_m", "t", "m1", "a1", "require"),
}


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(config).__name__}")
    for key in ("target", "kernel"):
        if not isinstance(config.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object")
    for path, known in CONFIG_KEYS.items():
        spec = config
        for key in path:
            spec = spec.get(key) if isinstance(spec, dict) else None
        # a section that is no object is reported where it is read
        for key in spec if isinstance(spec, dict) else ():
            if key not in known:
                raise ConfigError(f"unknown config key {'.'.join((*path, key))}; "
                                  f"{'.'.join(path) or 'the top level'} takes {', '.join(known)}")
    return config


def _float_array(value, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a finite float array of ``shape``; the error names ``key``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must hold numbers: {exc}") from exc
    if arr.size != math.prod(shape):
        raise ConfigError(f"{key} has {arr.size} entries, expected {math.prod(shape)}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key} must be finite")
    return arr.reshape(shape)


def _convert(value, key: str, convert=float):
    """``convert(value)``; a value it rejects is a config error naming ``key``.

    An integer key does not truncate: a number with a fractional part is
    rejected.
    """
    if convert is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} has an invalid value {value!r}: {exc}") from exc


def _flag_array(text: str, flag: str, dim: int) -> np.ndarray:
    """A comma-separated flag value as a finite float vector of length ``dim``."""
    return _float_array(text.split(","), flag, (dim,))


def _check_finite_energy(target: Target, mass: MassMatrix, key: str, q: np.ndarray,
                         p: np.ndarray | None = None) -> None:
    """A config error naming ``key`` if the phase point ``(q, p)``, ``p = 0``
    by default, is divergent by the samplers' own rule (``orbit._make_entry``)."""
    p = np.zeros_like(q) if p is None else p
    if _make_entry(target, mass, PhasePoint(q, p))[4]:  # the divergence flag
        raise ConfigError(f"{key}: the energy there is not finite, a divergent state")


def _resolve_seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        key, seed = "--seed", args.seed
    elif os.environ.get("NUTS_SEED") is not None:
        key = "NUTS_SEED"
        seed = _convert(os.environ["NUTS_SEED"], key, int)
    elif "seed" in config:
        key, seed = "seed", _convert(config["seed"], "seed", int)
    else:
        return DEFAULT_SEED
    if seed < 0:
        raise ConfigError(f"{key} must be a nonnegative integer, got {seed}")
    return seed


def _matrix_echo(arr: np.ndarray) -> dict:
    """How the summary echoes a d x d matrix: its shape and the SHA-256 of its
    C-order little-endian float64 bytes."""
    digest = hashlib.sha256(np.asarray(arr, dtype="<f8").tobytes()).hexdigest()
    return {"shape": list(arr.shape), "sha256": digest}


def _replaced(config: dict, path: tuple[str, ...], value) -> dict:
    """``config`` with the entry at ``path`` replaced; nothing else is copied."""
    head, *rest = path
    return {**config, head: _replaced(config[head], rest, value) if rest else value}


def _build_mass(spec: dict | None, dim: int, echoes: dict | None = None) -> MassMatrix:
    if spec is not None and not isinstance(spec, dict):
        raise ConfigError("kernel.mass must be a JSON object")
    if not spec or spec.get("kind", "identity") == "identity":
        return MassMatrix.identity(dim)
    kind = spec["kind"]
    if kind == "diagonal":
        if "diag" not in spec:
            raise ConfigError("mass.kind=diagonal requires key mass.diag")
        try:
            return MassMatrix.diagonal(_float_array(spec["diag"], "kernel.mass.diag", (dim,)))
        except ValueError as exc:
            raise ConfigError(f"kernel.mass.diag: {exc}") from exc
    if kind == "dense":
        if "matrix" not in spec:
            raise ConfigError("mass.kind=dense requires key mass.matrix")
        mat = _float_array(spec["matrix"], "kernel.mass.matrix", (dim, dim))
        if echoes is not None:
            echoes["kernel", "mass", "matrix"] = _matrix_echo(mat)
        try:
            return MassMatrix.dense(mat)
        except ValueError as exc:
            raise ConfigError(f"kernel.mass.matrix: {exc}") from exc
    raise ConfigError(f"unknown mass.kind {kind!r}")


def _target_dim(config: dict) -> int:
    dim = _convert(config.get("target", {}).get("dim", 1), "target.dim", int)
    if dim < 1:
        raise ConfigError(f"target.dim must be >= 1, got {dim}")
    return dim


def _build_target(config: dict, echoes: dict | None = None, mass: MassMatrix | None = None) -> Target:
    """The configured target, its ``lipschitz_l1`` taken under ``mass``.
    ``echoes``, if given, receives the summary echo of ``target.sigma`` under
    its config path, as ``_build_mass`` does for a dense mass matrix."""
    spec = config.get("target", {})
    kind = spec.get("kind", "standard_gaussian")
    dim = _target_dim(config)
    sigma = spec.get("sigma")
    if sigma is not None:
        sigma = _float_array(sigma, "target.sigma", (dim, dim))
        if echoes is not None:
            echoes["target", "sigma"] = _matrix_echo(sigma)
    a5 = _convert(spec.get("a5", 0.5), "target.a5")
    try:
        return builtin_target(kind, dim=dim, sigma=sigma, a5=a5, mass=mass)
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from exc


def _build_kernel_config(config: dict, dim: int, echoes: dict | None = None) -> KernelConfig:
    spec = config.get("kernel", {})
    h = _convert(spec.get("h", 0.5), "kernel.h")
    if not (h > 0 and math.isfinite(h)):
        raise ConfigError(f"kernel.h must be positive and finite, got {h}")
    mass = _build_mass(spec.get("mass"), dim, echoes)
    weights = spec.get("weights")
    if weights is not None:
        weights = _convert(weights, "kernel.weights", lambda w: np.asarray(w, dtype=float))
    try:
        return KernelConfig(
            kind=spec.get("kind", "nuts_iterative"),
            h=h,
            mass=mass,
            k_m=_convert(spec.get("k_m", 10), "kernel.k_m", int),
            t=_convert(spec.get("t", 1), "kernel.t", int),
            weights=weights,
        )
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc


def _row_format(d: int) -> str:
    """``%``-template of ``d`` comma-separated values, each as ``f"{v:.17g}"``."""
    return ",".join(["%.17g"] * d)


def _run_length(config: dict, flag: int | None, key: str, default: int, least: int) -> int:
    """The config's ``key``, or ``flag`` where it is given; the config's value
    is checked even where the flag overrides it, each error naming its source."""
    value = _convert(config.get(key, default), key, int)
    for source, v in ((key, value), (f"--{key}", flag)):
        if v is not None and v < least:
            raise ConfigError(f"{source} must be >= {least}, got {v}")
    return value if flag is None else flag


def cmd_sample(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    echoes: dict[tuple[str, ...], dict] = {}
    target = _build_target(config, echoes)
    cfg = _build_kernel_config(config, target.dim, echoes)
    chains = _run_length(config, args.chains, "chains", 1, 1)
    iters = _run_length(config, args.iters, "iters", 1000, 0)
    out_path = args.out or config.get("out")
    d = target.dim
    q0 = np.zeros(d) if config.get("q0") is None else _float_array(config["q0"], "q0", (d,))
    _check_finite_energy(target, cfg.mass, "q0", q0)
    # d x d matrices by shape and digest: in full, a 1000 x 1000 one is 30 MB;
    # the parsed config is dropped so that its d^2 Python floats are not held
    # for the run
    config_echo = {**config, "chains": chains, "iters": iters}
    for path, echo in echoes.items():
        config_echo = _replaced(config_echo, path, echo)
    del config

    row_format = "%d,%d," + _row_format(d) + ",%d,%d,%d,%d\n"
    kernel = make_kernel(target, cfg)
    depth_hist: dict[int, int] = {}
    n_div = 0
    n_grad = 0
    n_accept = 0
    n_accept_total = 0
    moments = np.zeros(d)
    moments2 = np.zeros(d)
    try:
        with (open(out_path, "w", buffering=CSV_BUFFER) if out_path
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.write(",".join(["chain", "iter", *(f"q{i + 1}" for i in range(d)),
                               "jf", "kf", "ngrad", "diverged"]) + "\n")
            t0 = time.perf_counter()
            for chain in range(chains):
                rng = np.random.default_rng(np.random.SeedSequence([seed, chain]))
                q = q0
                for it in range(iters):
                    q, info = kernel(q, rng)
                    depth_hist[info.k_f] = depth_hist.get(info.k_f, 0) + 1
                    n_div += int(info.diverged)
                    n_grad += info.n_grad
                    if info.accepted is not None:
                        n_accept_total += 1
                        n_accept += int(info.accepted)
                    moments += q
                    moments2 += q * q
                    fh.write(row_format % (chain, it, *q.tolist(),
                                           info.j_f, info.k_f, info.n_grad, info.diverged))
            wall = time.perf_counter() - t0
        total = max(chains * iters, 1)
        summary = {
            "version": __version__,
            "seed": seed,
            "config": config_echo,
            "depth_histogram": {str(k): v for k, v in sorted(depth_hist.items())},
            "divergences": n_div,
            "acceptance_rate": (n_accept / n_accept_total) if n_accept_total else None,
            "moment_estimates": {
                "mean": (moments / total).tolist(),
                "second": (moments2 / total).tolist(),
            },
            "wall_time_s": wall,
            "grad_evals": n_grad,
            "grad_evals_per_s": n_grad / wall if wall > 0 else None,
        }
        if out_path:
            with open(out_path + ".summary.json", "w") as fh:
                json.dump(summary, fh, indent=2)
        else:
            json.dump(summary, sys.stderr, indent=2)
            sys.stderr.write("\n")
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _run_suite(name: str, seed: int, mutate: str | None) -> list[verify_mod.CheckReport]:
    # imported here, where they are used: verify loads scipy.stats
    from . import verify as verify_mod
    from .verify import stepsize_conditions

    rng = np.random.default_rng(seed)
    reports = []
    if name == "symmetry":
        for dim in (1, 2):
            target = builtin_target("standard_gaussian", dim)
            mass = MassMatrix.identity(dim)
            cfg = KernelConfig("nuts_iterative", h=1.0, mass=mass, k_m=3)
            anchors = [verify_mod._gauss_anchor(dim, mass, rng) for _ in range(10)]
            reports.append(verify_mod.check_ph_symmetry(target, cfg, anchors, seed=seed))
    elif name == "balance":
        target = builtin_target("standard_gaussian", 2)
        mass = MassMatrix.identity(2)
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=mass, k_m=5)
        anchors = [verify_mod._gauss_anchor(2, mass, rng) for _ in range(50)]
        reports.append(verify_mod.check_detailed_balance(target, cfg, anchors, seed=seed))
    elif name == "accessibility":
        trees = verify_mod.random_weight_trees(100, 5, rng)
        reports.append(verify_mod.check_accessibility(trees, seed=seed))
    elif name == "invariance":
        target = builtin_target("standard_gaussian", 1)
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=MassMatrix.identity(1), k_m=3)
        reports.append(verify_mod.stationarity_polar_exact(target, cfg, seed=seed))
        # step size chosen large enough that the always-swap mutation is
        # statistically visible at this sample size (negative-control power)
        target5 = builtin_target("standard_gaussian", 5)
        cfg5 = KernelConfig("nuts_iterative", h=1.0, mass=MassMatrix.identity(5), k_m=4)
        reports.append(
            verify_mod.statistical_invariance(target5, cfg5, n=20_000, seed=seed, mutate=mutate)
        )
    elif name == "equivalence":
        target = builtin_target("standard_gaussian", 2)
        mass = MassMatrix.identity(2)
        worst_p = 1.0
        n = 20_000
        k_ms, anchors = (1, 2, 3), 6
        # Bonferroni over the chi-square tests, as in the invariance check
        alpha, tests = 1e-3, len(k_ms) * anchors
        for k_m in k_ms:
            cfg = KernelConfig("nuts_iterative", h=0.8, mass=mass, k_m=k_m)
            for _ in range(anchors):
                x0 = verify_mod._gauss_anchor(2, mass, rng)
                pmf = nuts_exact_pmf(target, cfg, x0)
                # the negative control samples the same rows sampler, its swap coin broken
                counts = verify_mod.index_counts(target, cfg, x0, n, rng, mutate=mutate)
                worst_p = min(worst_p, verify_mod.chi2_gof(counts, pmf.probs_dict(), n))
        # reported as -log10 of the p-value and of its level, so that, as in
        # every other check, it passes when violation <= tolerance
        reports.append(
            verify_mod.CheckReport(
                check="exact_law",
                passed=worst_p >= alpha / tests,
                tolerance=-math.log10(alpha / tests),
                violation=-math.log10(worst_p) if worst_p > 0 else math.inf,
                seed=seed,
                config={"draws": n, "alpha": alpha, "tests": tests, "mutate": mutate},
                details=[{"min_chi2_pvalue": worst_p}],
            )
        )
    elif name == "drift":
        target = builtin_target("standard_gaussian", 2)
        cfg = KernelConfig("nuts_iterative", h=0.2, mass=MassMatrix.identity(2), k_m=4)
        est = verify_mod.drift_estimate(target, cfg, a=1.0, radius=20.0, n=2000, seed=seed)
        reports.append(
            verify_mod.CheckReport(
                check="drift",
                passed=est.ci_high < 1.0,
                tolerance=1.0,
                violation=est.ci_high,
                seed=seed,
                config={"a": est.a, "radius": est.radius, "n": est.n},
                details=[{"ratio": est.ratio, "ci": [est.ci_low, est.ci_high]}],
            )
        )
    elif name == "tails":
        target = builtin_target("standard_gaussian", 2)
        s_bar = verify_mod.tail_step_bound(1.0, 1.0, 1.0)
        cfg = KernelConfig("nuts_iterative", h=s_bar, mass=MassMatrix.identity(2), k_m=1)
        reports.append(
            verify_mod.tail_conditions(target, cfg, radius=1e3, gamma=2.0 / 3.0, n=50, seed=seed)
        )
    elif name == "conditions":
        worked = [
            ("doubling_stability", stepsize_conditions(l1=1.0, h=0.1, k_m=1)["doubling_stability"]["pass"], True),
            ("doubling_stability", stepsize_conditions(l1=1.0, h=0.2, k_m=1)["doubling_stability"]["pass"], False),
            ("trajectory_uniqueness", stepsize_conditions(l1=1.0, h=1.0, t=2)["trajectory_uniqueness"]["pass"], True),
            ("trajectory_uniqueness", stepsize_conditions(l1=1.0, h=1.5, t=2)["trajectory_uniqueness"]["pass"], False),
        ]
        ok = all(got == want for _, got, want in worked)
        reports.append(
            verify_mod.CheckReport(
                check="stepsize_conditions",
                passed=ok,
                tolerance=0.0,
                violation=0.0 if ok else 1.0,
                seed=seed,
                details=[{"case": c, "got": g, "want": w} for c, g, w in worked],
            )
        )
    elif name == "degeneracy":
        target = builtin_target("standard_gaussian", 2)
        cfg = KernelConfig("nuts_iterative", h=0.7, mass=MassMatrix.identity(2), k_m=2)
        reports.append(
            verify_mod.uturn_degeneracy_scan(target, cfg, np.array([1.0, -0.5]), n=500, seed=seed)
        )
    elif name == "ergodicity":
        target = builtin_target("standard_gaussian", 2)
        cfg = KernelConfig("nuts_iterative", h=0.5, mass=MassMatrix.identity(2), k_m=6)
        reports.append(
            verify_mod.ergodicity_run(
                target,
                cfg,
                iters=20_000,
                seed=seed,
                q0=np.array([50.0, 0.0]),
                ref_mean=np.zeros(2),
                ref_second=np.ones(2),
            )
        )
    else:
        raise ConfigError(f"unknown suite {name!r}")
    return reports


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    suite = args.suite or "all"
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}", file=sys.stderr)
        return EXIT_CONFIG
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    reports = []
    for name in names:
        reports.extend(_run_suite(name, seed, args.mutate))
    payload = {
        "version": __version__,
        "seed": seed,
        "suite": suite,
        "all_pass": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
    }
    text = json.dumps(payload, indent=2, default=str)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check} violation={r.violation:.3g}", file=sys.stderr)
    return EXIT_OK if payload["all_pass"] else EXIT_VERIFY_FAIL


def cmd_pmf(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    target = _build_target(config)
    cfg = _build_kernel_config(config, target.dim)
    if cfg.k_m > 8:
        print(f"k_m = {cfg.k_m} exceeds the exact-enumeration budget (8)", file=sys.stderr)
        return EXIT_CONFIG
    q = _flag_array(args.q, "--q", target.dim)
    _check_finite_energy(target, cfg.mass, "--q", q)
    if args.p:
        p = _flag_array(args.p, "--p", target.dim)
    else:
        p = momentum_refresh(cfg.mass, np.random.default_rng(seed))
    _check_finite_energy(target, cfg.mass, "--p", q, p)
    pmf = nuts_exact_pmf(target, cfg, PhasePoint(q, p))
    total = pmf.total()
    payload = {
        "q": q.tolist(),
        "p": p.tolist(),
        "h": cfg.h,
        "k_m": cfg.k_m,
        "entries": [
            {"j": j, "prob": pr, "position": pos.tolist()} for j, pr, pos in pmf.entries
        ],
        "sum": total,
    }
    print(json.dumps(payload, indent=2))
    if abs(total - 1.0) > 1e-12:
        print(f"pmf sum {total} deviates from 1 by more than 1e-12", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_conditions(args) -> int:
    from .verify import stepsize_conditions

    config = _load_config(args.config)
    spec = config.get("conditions", {})
    if not isinstance(spec, dict):
        raise ConfigError("conditions must be a JSON object")

    def get(key, convert=float):
        if key not in spec:
            return None
        value = _convert(spec[key], f"conditions.{key}", convert)
        # compared as a float, so an integer beyond the float range is rejected
        if not 0 < _convert(value, f"conditions.{key}") < math.inf:
            raise ConfigError(f"conditions.{key} must be positive and finite, got {value}")
        return value

    report = stepsize_conditions(
        l1=get("l1"), h=get("h"), k_m=get("k_m", int), t=get("t", int), m1=get("m1"), a1=get("a1")
    )
    requested = spec.get("require", list(report))
    if not isinstance(requested, list) or not all(
        isinstance(k, str) and k in report for k in requested
    ):
        raise ConfigError(
            f"conditions.require must list names among {', '.join(report)}, got {requested!r}"
        )
    missing = [k for k in requested if "missing" in report[k]]
    print(json.dumps(report, indent=2))
    if missing:
        print(f"missing constants for: {', '.join(missing)}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_trajectory(args) -> int:
    from .leapfrog import ContractionViolated, NoConvergence, trajectory_solve

    config = _load_config(args.config)
    cfg = _build_kernel_config(config, _target_dim(config))
    # the contraction condition needs L1 under the configured mass
    target = _build_target(config, mass=cfg.mass)
    q0 = _flag_array(args.q0, "--q0", target.dim)
    q_t = _flag_array(args.qT, "--qT", target.dim)
    _check_finite_energy(target, cfg.mass, "--q0", q0)
    _check_finite_energy(target, cfg.mass, "--qT", q_t)
    if args.steps < 1:
        print(f"--steps must be >= 1, got {args.steps}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sol = trajectory_solve(target, cfg.params, q0, q_t, args.steps)
    except ContractionViolated as exc:
        print(f"step-size condition violated: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    print(
        json.dumps(
            {
                "p0": sol.p0.tolist(),
                "positions": sol.positions.tolist(),
                "momenta": sol.momenta.tolist(),
                "iterations": sol.iterations,
                "residual": sol.residual,
                "contraction_observed": sol.contraction_observed,
                "roundtrip_error": sol.roundtrip_error,
            },
            indent=2,
        )
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    dim = args.dim
    steps = args.steps
    if dim < 1 or steps < 1:
        raise ConfigError(f"--dim and --steps must be >= 1, got {dim} and {steps}")
    seed = _resolve_seed(args, {})
    target = builtin_target("standard_gaussian", dim)
    mass = MassMatrix.identity(dim)
    lines = [f"benchmark: standard Gaussian d={dim}, {steps} transitions per kernel"]
    for kind, extra in (
        ("nuts_iterative", {"k_m": 8}),
        ("nuts_recursive", {"k_m": 8}),
        ("hmc", {"t": 16}),
    ):
        cfg = KernelConfig(kind, h=0.25, mass=mass, **extra)
        kernel = make_kernel(target, cfg)
        rng = np.random.default_rng(seed)
        q = np.zeros(dim)
        grads = 0
        t0 = time.perf_counter()
        for _ in range(steps):
            q, info = kernel(q, rng)
            grads += info.n_grad
        wall = time.perf_counter() - t0
        lines.append(
            f"  {kind:16s} {steps / wall:10.1f} transitions/s {grads / wall:12.1f} grad-evals/s"
        )
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynhmc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dynhmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="run sampling chains, write CSV + summary JSON")
    p_sample.add_argument("--config", help="JSON config file")
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_sample.add_argument("--chains", type=int)
    p_sample.add_argument("--iters", type=int)
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--config", help="JSON config file")
    p_verify.add_argument("--suite", help=f"one of: {', '.join(SUITES)}")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out", help="JSON report path (stdout if omitted)")
    p_verify.add_argument(
        "--mutate",
        choices=["always-swap"],
        help="debug: run mutation-sensitive checks with a broken kernel (negative control)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_pmf = sub.add_parser("pmf", help="exact one-step transition pmf at a phase point")
    p_pmf.add_argument("--config", help="JSON config file")
    p_pmf.add_argument("--q", required=True, help="comma-separated position")
    p_pmf.add_argument("--p", help="comma-separated momentum (drawn from N(0,M) if omitted)")
    p_pmf.add_argument("--seed", type=int)
    p_pmf.set_defaults(func=cmd_pmf)

    p_cond = sub.add_parser("conditions", help="evaluate step-size condition validators")
    p_cond.add_argument("--config", help="JSON config file with a 'conditions' section")
    p_cond.set_defaults(func=cmd_conditions)

    p_traj = sub.add_parser(
        "trajectory", help="solve the two-point leapfrog boundary value problem"
    )
    p_traj.add_argument("--config", help="JSON config file (target + kernel.h/mass)")
    p_traj.add_argument("--q0", required=True, help="comma-separated start position")
    p_traj.add_argument("--qT", required=True, help="comma-separated end position")
    p_traj.add_argument("--steps", type=int, required=True, help="number of leapfrog steps T")
    p_traj.set_defaults(func=cmd_trajectory)

    p_bench = sub.add_parser("bench", help="throughput benchmark of the kernels")
    p_bench.add_argument("--dim", type=int, default=100)
    p_bench.add_argument("--steps", type=int, default=1000)
    p_bench.add_argument("--seed", type=int)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
