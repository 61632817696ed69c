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

The config rules live in one table, ``SCHEMA``: each key's type, range and
default.  ``_load_config`` checks a whole config against it before a command
runs, each error naming the dotted key; the library constructors keep their
own checks, and ``_built`` maps their ``ValueError`` to the key.  A flag or
variable standing in for a key is checked against the key's entry.

``sample`` opens its CSV destination (``--out`` or stdout) once the config
is validated and formats and writes its rows a block of about 2 500 values
at a time, so its memory does not grow with chains x iters: an ``--out``
that cannot be opened exits 3 before the first transition, a run stopped
part-way still writes every row it made, and ``wall_time_s`` covers
formatting and writing the rows.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .kernels import K_M_MAX, KERNEL_KINDS, T_MAX, KernelConfig, make_kernel, nuts_exact_pmf
from .orbit import _make_entry
from .targets import (MASS_KINDS, TARGET_KINDS, MassMatrix, PhasePoint, Target, builtin_target,
                      momentum_refresh)

DEFAULT_SEED = 20230710
EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
# bytes: rows are written inside sample's timed loop, one write call per
# buffer filled, where the default buffer holds 8 KiB
CSV_BUFFER = 1 << 20
# values in a block of CSV rows, which sample formats and writes at once: the
# formatter's temporaries, at most 40 bytes a value, then stay under glibc's
# default 128 KiB mmap threshold, so the allocator reuses them
BLOCK_VALUES = 2500

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


# a config key's type, range and default; see SCHEMA
Key = collections.namedtuple("Key", "type range default", defaults=((), None))
INF = math.inf
# the validators of ``dynhmc conditions``, as ``verify.stepsize_conditions``
# reports them
CONDITIONS = ("doubling_stability", "trajectory_uniqueness", "tail_step_bound")
# Every config key by its dotted path, sections before their keys and
# target.dim before the arrays sized by it.  An "int" lies in [lo, hi], a
# "float" in the open (lo, hi); a "choice" is one of its names, "names" lists
# some.  An "array" holds as many finite JSON numbers as its shape, "d" being
# target.dim, nested or flat in row-major order; shape None takes any length
# and leaves the entries to KernelConfig.  null is the default of an
# "object", "array" or "path" key.  An object takes only the keys under it.
SCHEMA = {
    "target": Key("object", (), {}),
    "target.kind": Key("choice", TARGET_KINDS, "standard_gaussian"),
    "target.dim": Key("int", (1, INF), 1),
    "target.sigma": Key("array", ("d", "d")),
    "target.a5": Key("float", (-INF, INF), 0.5),
    "kernel": Key("object", (), {}),
    "kernel.kind": Key("choice", KERNEL_KINDS, "nuts_iterative"),
    "kernel.h": Key("float", (0, INF), 0.5),
    "kernel.k_m": Key("int", (1, K_M_MAX), 10),
    "kernel.t": Key("int", (1, T_MAX), 1),
    "kernel.mass": Key("object", (), {}),
    "kernel.mass.kind": Key("choice", MASS_KINDS, "identity"),
    "kernel.mass.diag": Key("array", ("d",)),
    "kernel.mass.matrix": Key("array", ("d", "d")),
    "kernel.weights": Key("array", None),
    "chains": Key("int", (1, INF), 1),
    "iters": Key("int", (0, INF), 1000),
    "seed": Key("int", (0, INF), DEFAULT_SEED),
    "out": Key("path"),
    "q0": Key("array", ("d",)),
    "conditions": Key("object", (), {}),
    "conditions.l1": Key("float", (0, INF)),
    "conditions.h": Key("float", (0, INF)),
    "conditions.k_m": Key("int", (1, K_M_MAX)),
    "conditions.t": Key("int", (1, T_MAX)),
    "conditions.m1": Key("float", (0, INF)),
    "conditions.a1": Key("float", (0, INF)),
    "conditions.require": Key("names", CONDITIONS, CONDITIONS),
}


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    """Every ``SCHEMA`` key of the config file at ``path`` by its dotted path:
    the file's value checked against the table, or the key's default where
    the file omits it; the parsed file itself under "".  A key that the
    table does not list is an error: misspelt, it would leave its default
    silently in force."""
    config = {}
    try:
        if path is not None:
            with open(path) as fh:
                config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {type(config).__name__}")
    values = {"": config}
    for key in ("", *SCHEMA):
        section, _, name = key.rpartition(".")
        if key:
            given = values[section]
            values[key] = (_read(key, given[name], values.get("target.dim")) if name in given
                           else SCHEMA[key].default)
        if not key or SCHEMA[key].type == "object":
            known = [k.rpartition(".")[2] for k in SCHEMA if k.rpartition(".")[0] == key]
            for name in values[key]:
                if name not in known:
                    raise ConfigError(f"unknown config key {key + '.' if key else ''}{name}; "
                                      f"{key or 'the top level'} takes {', '.join(known)}")
        if key == "target.dim":
            _check_allocatable(values[key], key)
    return values


def _check_allocatable(dim: int, name: str) -> None:
    """A config error naming ``name`` unless a d-vector, which every command
    allocates, fits in memory."""
    try:
        np.empty(dim)
    except (MemoryError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} {dim} is too large: {exc}") from exc


def _read(key: str, value, dim: int | None = None, name: str | None = None):
    """``value`` for config key ``key``, checked against its ``SCHEMA`` entry,
    an array sized by ``dim``; errors call it ``name``, by default ``key``."""
    (kind, bounds, default), name = SCHEMA[key], name or key
    if value is None and kind in ("object", "array", "path"):
        return default
    if kind == "array":
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a JSON array, got {json.dumps(value)}")
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name} must hold numbers: {exc}") from exc
        _numbers(name, value, arr.ndim)
        if bounds is None:
            return arr
        shape = tuple(dim if n == "d" else n for n in bounds)
        if arr.size != math.prod(shape):
            raise ConfigError(f"{name} has {arr.size} entries, expected {math.prod(shape)}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{name} must be finite")
        return arr.reshape(shape)
    if kind in ("int", "float"):
        _numbers(name, value, 0)
        lo, hi = bounds
        if kind == "int":
            if isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            value = int(value)
            if not lo <= value <= hi:
                raise ConfigError(f"{name} must be an integer in [{lo}, {hi}"
                                  f"{')' if hi == INF else ']'}, got {value}")
            return value
        try:
            value = float(value)
        except OverflowError as exc:
            raise ConfigError(f"{name} is beyond the float range: {exc}") from exc
        if not lo < value < hi:
            raise ConfigError(f"{name} must be a number in ({lo:g}, {hi:g}), got {value}")
        return value
    names = value if kind == "names" else [value]
    if kind == "object":
        valid, want = isinstance(value, dict), "a JSON object"
    elif kind == "path":
        valid, want = isinstance(value, str), "a path string"
    else:
        valid = isinstance(names, list) and all(isinstance(v, str) and v in bounds for v in names)
        want = ("one of " if kind == "choice" else "a list of names among ") + ", ".join(bounds)
    if not valid:
        raise ConfigError(f"{name} must be {want}, got {json.dumps(value)}")
    return value


def _numbers(name: str, value, depth: int) -> None:
    """A config error naming ``name`` unless ``value``, a number at ``depth``
    0 or lists nested ``depth`` deep, holds only JSON numbers: no JSON true
    or false, though Python's bool is an int, and no string that ``float``
    would read.  One pass over the entries in C, making no object per entry."""
    def entries():
        items = value if depth else (value,)
        for _ in range(depth - 1):
            items = itertools.chain.from_iterable(items)
        return items

    if not set(map(type, entries())) <= {int, float}:
        bad = next(x for x in entries() if type(x) not in (int, float))
        raise ConfigError(f"{name} must {'hold only numbers' if depth else 'be a number'}, "
                          f"got {json.dumps(bad)}")


def _flag_array(text: str, flag: str, dim: int) -> np.ndarray:
    """A comma-separated flag value, a point in d dimensions checked as ``q0`` is."""
    try:
        value = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} must hold numbers: {exc}") from exc
    return _read("q0", value, dim, name=flag)


def _built(key: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a library constructor whose ``ValueError``
    becomes a config error naming ``key``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _check_finite_energy(target: Target, mass: MassMatrix, key: str, q: np.ndarray,
                         p: np.ndarray | None = None) -> None:
    """A config error naming ``key`` if the phase point ``(q, p)``, ``p = 0``
    by default, is divergent by the samplers' own rule (``orbit._make_entry``)."""
    p = np.zeros_like(q) if p is None else p
    if _make_entry(target, mass, PhasePoint(q, p))[4]:  # the divergence flag
        raise ConfigError(f"{key}: the energy there is not finite, a divergent state")


def _resolve_seed(args, config_seed: int) -> int:
    """``--seed``, else ``NUTS_SEED``, else the config's seed, each checked
    against the seed's ``SCHEMA`` entry."""
    if getattr(args, "seed", None) is not None:
        return _read("seed", args.seed, name="--seed")
    text = os.environ.get("NUTS_SEED")
    if text is None:
        return config_seed
    try:
        seed = int(text)
    except ValueError as exc:
        raise ConfigError(f"NUTS_SEED must be an integer, got {text!r}") from exc
    return _read("seed", seed, name="NUTS_SEED")


def _matrix_echo(arr: np.ndarray) -> dict:
    """How the summary echoes a d x d matrix: its shape and the SHA-256 of its
    C-order little-endian float64 bytes."""
    digest = hashlib.sha256(np.asarray(arr, dtype="<f8").tobytes()).hexdigest()
    return {"shape": list(arr.shape), "sha256": digest}


def _replaced(config: dict, path: list[str], value) -> dict:
    """``config`` with the entry at ``path`` replaced; nothing else is copied."""
    head, *rest = path
    return {**config, head: _replaced(config[head], rest, value) if rest else value}


def _build_mass(values: dict) -> MassMatrix:
    kind = values["kernel.mass.kind"]
    if kind == "identity":
        return MassMatrix.identity(values["target.dim"])
    key = "kernel.mass.diag" if kind == "diagonal" else "kernel.mass.matrix"
    if values[key] is None:
        raise ConfigError(f"kernel.mass.kind {kind} requires key {key}")
    return _built(key, MassMatrix.diagonal if kind == "diagonal" else MassMatrix.dense,
                  values[key])


def _build_target(values: dict, mass: MassMatrix | None = None) -> Target:
    """The configured target, its ``lipschitz_l1`` taken under ``mass``."""
    kind = values["target.kind"]
    # a double well can fail only on its dimension, the Gaussians on sigma
    return _built("target.dim" if kind == "double_well" else "target.sigma", builtin_target,
                  kind, dim=values["target.dim"], sigma=values["target.sigma"],
                  a5=values["target.a5"], mass=mass)


def _build_kernel_config(values: dict) -> KernelConfig:
    # the table has checked every other field, so KernelConfig's own checks
    # can fail only on the rhmc weights
    return _built("kernel: kernel.weights", KernelConfig, values["kernel.kind"],
                  h=values["kernel.h"], mass=_build_mass(values), k_m=values["kernel.k_m"],
                  t=values["kernel.t"], weights=values["kernel.weights"])


def _row_format(d: int) -> str:
    """``%``-template of ``d`` comma-separated values, each as ``f"{v:.17g}"``."""
    return ",".join(["%.17g"] * d)


_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_POW10 = np.array([10.0**k for k in range(23)])  # exact: 5^22 < 2^53
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# each 4-digit chunk's ASCII digits, as the uint32 whose bytes they are
_CHUNK = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"),
                  axis=-1).view(np.uint32).ravel()
# the zeros that end each chunk, 4 for 0000
_CHUNK_ZEROS = np.zeros(10_000, np.int64)
for _k in range(1, 5):
    _CHUNK_ZEROS[::10**_k] += 1
# one value's 40 bytes: separator, sign, "0." of a value below 1, then the 20
# digits of T = N * 10^r as five 4-digit words, with a point after each of the
# first four; _KEEP picks the bytes that print
_FIELD = np.frombuffer(b",-0.0000.   0000.   0000.   0000.   0000", np.uint32)
_ROW_START = np.frombuffer(b"\n-0.", np.uint32)[0]


def _keep_table() -> np.ndarray:
    """The bytes of a field that print, by ``(x < 0, E + 4, fraction digits)``."""
    neg, e4, frac, col = np.ogrid[:2, :20, :21, :40]
    q, r = e4 // 4, e4 % 4
    digit = (col - 4) // 8 * 4 + (col - 4) % 8  # of T, where (col - 4) % 8 < 4
    # T's 17 + r digits start at its digit 3 - r; below 1, all 20 are fraction
    shown = ((col >= 4) & ((col - 4) % 8 < 4) & (digit >= np.where(q, 3 - r, 0))
             & (digit < 4 * q + frac))
    point = (frac > 0) & (col == np.where(q, 8 * q, 3))
    keep = shown | point | (q == 0) & (col == 2) | (neg == 1) & (col == 1) | (col == 0)
    return keep.reshape(-1, 40)


_KEEP = _keep_table()


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's two-product of ``a`` and ``10^k``: ``hi + lo`` is ``a * 10^k`` exactly."""
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    sh, sl = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    return hi, ((ah * sh - hi) + ah * sl + al * sh) + al * sl


def _format_rows(values: np.ndarray) -> list[str | None]:
    """Each row of ``values`` as ``_row_format`` prints it, or None for a row
    holding a value outside 1e-4 <= |x| < 1e16, where ``%.17g`` may print an
    exponent.

    Exactness: with E = floor(log10 |x|) in [-4, 15], 10^(16 - E) is a
    double (16 - E <= 20 <= 22), so Dekker's two-product gives the exact
    pair hi + lo = |x| 10^(16 - E).  log10 may miss E by one near a power of
    ten; testing the pair, not hi alone, against 1e16 and 1e17 finds that
    exactly.  With the pair in [1e16, 1e17), hi >= 2^53 is an even integer
    and |lo| <= ulp(hi) / 2, so N = hi + rint(lo), summed in int64, is the
    pair rounded to an integer with ties to even: the 17 significant digits
    that Python's correctly rounded dtoa prints.  N = 10^17 carries into
    E + 1.  The digits come from a table of 4-digit chunks, set in fixed
    fields whose leading zeros, trailing fraction zeros and bare point are
    dropped as the block is compacted to bytes in one pass.
    """
    rows, d = values.shape
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, 16 - e)
    for _ in range(3):  # log10 misses E by at most one: one pass settles it
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        moved = np.flatnonzero(low | high)
        if moved.size == 0:
            break
        e[moved] += np.where(high[moved], 1, -1)
        hi[moved], lo[moved] = _times_pow10(a[moved], 16 - e[moved])
    sig = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = sig == 10**17
    sig[carry] = 10**16
    e += carry + 4
    # 10^20 |x| = T * 10^(4q), T = N * 10^r, E + 4 = 4q + r; T as its five
    # 4-digit chunks, the lowest first
    t = np.empty((5, x.size), np.int64)
    shift = np.array([1, 10, 100, 1000])[e & 3]
    upper, lower = np.divmod(sig, 10**8)
    c, t[0] = np.divmod(lower * shift, 10**4)
    c, t[1] = np.divmod(c, 10**4)
    c, t[2] = np.divmod(upper * shift + c, 10**4)
    t[4], t[3] = np.divmod(c, 10**4)
    zeros = _CHUNK_ZEROS[t[0]]
    for j in range(1, 5):  # T's trailing zeros, which run on past a 0000 chunk
        z = np.flatnonzero(zeros == 4 * j)
        if z.size == 0:
            break
        zeros[z] += _CHUNK_ZEROS[t[j, z]]
    field = np.empty((x.size, 10), np.uint32)
    field[:] = _FIELD
    field[::d, 0] = _ROW_START
    for j in range(5):
        field[:, 9 - 2 * j] = _CHUNK[t[j]]
    frac = np.maximum(20 - zeros - 4 * (e >> 2), 0)
    keep = _KEEP[((x < 0) * 20 + e) * 21 + frac]
    # compress walks the flat mask and bytes once, faster than a mask index
    text = np.compress(keep.ravel(), field.view(np.uint8).ravel()).tobytes().decode()
    return [row if ok else None
            for row, ok in zip(text.split("\n")[1:], fast.reshape(rows, d).all(axis=1))]


def _write_rows(fh, values: np.ndarray, tails: list[tuple]) -> None:
    """Write a CSV row for each ``(chain, iter, jf, kf, ngrad, diverged)`` of
    ``tails``, its ``q`` the matching row of ``values``, and empty ``tails``."""
    if not tails:
        return
    d = values.shape[1]
    lines = []
    for q, text, (chain, it, *info) in zip(values, _format_rows(values), tails):
        if text is None:
            text = _row_format(d) % tuple(q.tolist())
        lines.append("%d,%d,%s,%d,%d,%d,%d\n" % (chain, it, text, *info))
    tails.clear()
    fh.write("".join(lines))


def cmd_sample(args) -> int:
    values = _load_config(args.config)
    config = values[""]
    seed = _resolve_seed(args, values["seed"])
    target = _build_target(values)
    cfg = _build_kernel_config(values)
    # a flag overrides the config's value, which is checked all the same
    chains, iters = (values[key] if flag is None else _read(key, flag, name=f"--{key}")
                     for key, flag in (("chains", args.chains), ("iters", args.iters)))
    out_path = args.out or values["out"]
    d = target.dim
    q0 = np.zeros(d) if values["q0"] is None else values["q0"]
    _check_finite_energy(target, cfg.mass, "q0", q0)
    # d x d matrices by shape and digest: in full, a 1000 x 1000 one is 30 MB;
    # the parsed config is dropped so that its d^2 Python floats are not held
    # for the run
    config_echo = {**config, "chains": chains, "iters": iters}
    for key in ("target.sigma", "kernel.mass.matrix"):
        if values[key] is not None:
            config_echo = _replaced(config_echo, key.split("."), _matrix_echo(values[key]))
    del config, values

    kernel = make_kernel(target, cfg)
    depth_hist: dict[int, int] = {}
    n_div = 0
    n_grad = 0
    n_accept = 0
    n_accept_total = 0
    moments = np.zeros(d)
    moments2 = np.zeros(d)
    # the q of the rows not yet written, and the rest of each row
    block = np.empty((max(1, BLOCK_VALUES // d), d))
    tails: list[tuple] = []
    try:
        with (open(out_path, "w", buffering=CSV_BUFFER) if out_path
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.write(",".join(["chain", "iter", *(f"q{i + 1}" for i in range(d)),
                               "jf", "kf", "ngrad", "diverged"]) + "\n")
            t0 = time.perf_counter()
            try:
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
                        block[len(tails)] = q
                        tails.append((chain, it, info.j_f, info.k_f, info.n_grad,
                                      info.diverged))
                        if len(tails) == len(block):
                            _write_rows(fh, block, tails)
            finally:
                _write_rows(fh, block[:len(tails)], tails)
            wall = time.perf_counter() - t0
        draws = chains * iters
        summary = {
            "version": __version__,
            "seed": seed,
            "config": config_echo,
            "depth_histogram": {str(k): v for k, v in sorted(depth_hist.items())},
            "divergences": n_div,
            "acceptance_rate": (n_accept / n_accept_total) if n_accept_total else None,
            # no draws, no moments: null, as the acceptance rate without HMC
            "moment_estimates": {
                "mean": (moments / draws).tolist(),
                "second": (moments2 / draws).tolist(),
            } if draws else None,
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

    def gauss(dim: int, h: float, k_m: int) -> tuple[Target, KernelConfig]:
        """Every suite's target, the standard Gaussian, with iterative NUTS
        at ``(h, k_m)`` under the identity mass."""
        mass = MassMatrix.identity(dim)
        return builtin_target("standard_gaussian", dim), KernelConfig("nuts_iterative", h, mass, k_m)

    rng = np.random.default_rng(seed)
    reports = []
    if name == "symmetry":
        for dim in (1, 2):
            target, cfg = gauss(dim, 1.0, 3)
            anchors = [verify_mod._gauss_anchor(dim, cfg.mass, rng) for _ in range(10)]
            reports.append(verify_mod.check_ph_symmetry(target, cfg, anchors, seed=seed))
    elif name == "balance":
        target, cfg = gauss(2, 0.5, 5)
        anchors = [verify_mod._gauss_anchor(2, cfg.mass, rng) for _ in range(50)]
        reports.append(verify_mod.check_detailed_balance(target, cfg, anchors, seed=seed))
    elif name == "accessibility":
        trees = verify_mod.random_weight_trees(100, 5, rng)
        reports.append(verify_mod.check_accessibility(trees, seed=seed))
    elif name == "invariance":
        target, cfg = gauss(1, 0.5, 3)
        reports.append(verify_mod.stationarity_polar_exact(target, cfg, seed=seed))
        # step size chosen large enough that the always-swap mutation is
        # statistically visible at this sample size (negative-control power)
        target5, cfg5 = gauss(5, 1.0, 4)
        reports.append(
            verify_mod.statistical_invariance(target5, cfg5, n=20_000, seed=seed, mutate=mutate)
        )
    elif name == "equivalence":
        worst_p = 1.0
        n = 20_000
        k_ms, anchors = (1, 2, 3), 6
        # Bonferroni over the chi-square tests, as in the invariance check
        alpha, tests = 1e-3, len(k_ms) * anchors
        for k_m in k_ms:
            target, cfg = gauss(2, 0.8, k_m)
            for _ in range(anchors):
                x0 = verify_mod._gauss_anchor(2, cfg.mass, rng)
                pmf = nuts_exact_pmf(target, cfg, x0)
                # the negative control samples the same rows sampler, its swap coin broken
                counts = verify_mod.index_counts(target, cfg, x0, n, rng, mutate=mutate)
                worst_p = min(worst_p, verify_mod.chi2_gof(counts, pmf.probs_dict(), n))
        # reported as -log10 of the p-value and of its level, so that, as in
        # every other check, it passes when violation <= tolerance
        reports.append(verify_mod.CheckReport(
            check="exact_law", passed=worst_p >= alpha / tests,
            tolerance=-math.log10(alpha / tests),
            violation=-math.log10(worst_p) if worst_p > 0 else math.inf, seed=seed,
            config={"draws": n, "alpha": alpha, "tests": tests, "mutate": mutate},
            details=[{"min_chi2_pvalue": worst_p}]))
    elif name == "drift":
        target, cfg = gauss(2, 0.2, 4)
        est = verify_mod.drift_estimate(target, cfg, a=1.0, radius=20.0, n=2000, seed=seed)
        reports.append(verify_mod.CheckReport(
            check="drift", passed=est.ci_high < 1.0, tolerance=1.0, violation=est.ci_high,
            seed=seed, config={"a": est.a, "radius": est.radius, "n": est.n},
            details=[{"ratio": est.ratio, "ci": [est.ci_low, est.ci_high]}]))
    elif name == "tails":
        target, cfg = gauss(2, verify_mod.tail_step_bound(1.0, 1.0, 1.0), 1)
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
        reports.append(verify_mod.CheckReport(
            check="stepsize_conditions", passed=ok, tolerance=0.0, violation=0.0 if ok else 1.0,
            seed=seed, details=[{"case": c, "got": g, "want": w} for c, g, w in worked]))
    elif name == "degeneracy":
        target, cfg = gauss(2, 0.7, 2)
        reports.append(
            verify_mod.uturn_degeneracy_scan(target, cfg, np.array([1.0, -0.5]), n=500, seed=seed)
        )
    elif name == "ergodicity":
        target, cfg = gauss(2, 0.5, 6)
        reports.append(verify_mod.ergodicity_run(target, cfg, iters=20_000, seed=seed,
                                                 q0=np.array([50.0, 0.0]), ref_mean=np.zeros(2),
                                                 ref_second=np.ones(2)))
    else:
        raise ConfigError(f"unknown suite {name!r}")
    return reports


def cmd_verify(args) -> int:
    seed = _resolve_seed(args, _load_config(args.config)["seed"])
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
    values = _load_config(args.config)
    seed = _resolve_seed(args, values["seed"])
    target = _build_target(values)
    cfg = _build_kernel_config(values)
    if cfg.k_m > 8:
        print(f"kernel.k_m = {cfg.k_m} exceeds the exact-enumeration budget (8)",
              file=sys.stderr)
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

    values = _load_config(args.config)
    report = stepsize_conditions(**{key: values[f"conditions.{key}"]
                                    for key in ("l1", "h", "k_m", "t", "m1", "a1")})
    missing = [k for k in values["conditions.require"] if "missing" in report[k]]
    print(json.dumps(report, indent=2))
    if missing:
        print(f"conditions: missing constants for: {', '.join(missing)}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_trajectory(args) -> int:
    from .leapfrog import ContractionViolated, NoConvergence, trajectory_solve

    values = _load_config(args.config)
    cfg = _build_kernel_config(values)
    # the contraction condition needs L1 under the configured mass
    target = _build_target(values, mass=cfg.mass)
    q0 = _flag_array(args.q0, "--q0", target.dim)
    q_t = _flag_array(args.qT, "--qT", target.dim)
    _check_finite_energy(target, cfg.mass, "--q0", q0)
    _check_finite_energy(target, cfg.mass, "--qT", q_t)
    steps = _read("kernel.t", args.steps, name="--steps")  # T, as an hmc run takes it
    try:
        sol = trajectory_solve(target, cfg.params, q0, q_t, steps)
    except ContractionViolated as exc:
        print(f"step-size condition violated: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    fields = ("p0", "positions", "momenta", "iterations", "residual", "contraction_observed",
              "roundtrip_error")
    print(json.dumps({k: getattr(sol, k) for k in fields}, indent=2, default=np.ndarray.tolist))
    return EXIT_OK


def cmd_bench(args) -> int:
    dim = args.dim
    steps = args.steps
    if dim < 1 or steps < 1:
        raise ConfigError(f"--dim and --steps must be >= 1, got {dim} and {steps}")
    _check_allocatable(dim, "--dim")
    seed = _resolve_seed(args, SCHEMA["seed"].default)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call: building it costs about 1.5 ms, more than a short run."""
    parser = argparse.ArgumentParser(prog="dynhmc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dynhmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="run sampling chains, write CSV + summary JSON")
    p_sample.add_argument("--config", help="JSON config file")
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_sample.add_argument("--chains", type=int)
    p_sample.add_argument("--iters", type=int)

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

    p_pmf = sub.add_parser("pmf", help="exact one-step transition pmf at a phase point")
    p_pmf.add_argument("--config", help="JSON config file")
    p_pmf.add_argument("--q", required=True, help="comma-separated position")
    p_pmf.add_argument("--p", help="comma-separated momentum (drawn from N(0,M) if omitted)")
    p_pmf.add_argument("--seed", type=int)

    p_cond = sub.add_parser("conditions", help="evaluate step-size condition validators")
    p_cond.add_argument("--config", help="JSON config file with a 'conditions' section")

    p_traj = sub.add_parser(
        "trajectory", help="solve the two-point leapfrog boundary value problem"
    )
    p_traj.add_argument("--config", help="JSON config file (target + kernel.h/mass)")
    p_traj.add_argument("--q0", required=True, help="comma-separated start position")
    p_traj.add_argument("--qT", required=True, help="comma-separated end position")
    p_traj.add_argument("--steps", type=int, required=True, help="number of leapfrog steps T")

    p_bench = sub.add_parser("bench", help="throughput benchmark of the kernels")
    p_bench.add_argument("--dim", type=int, default=100)
    p_bench.add_argument("--steps", type=int, default=1000)
    p_bench.add_argument("--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` names (by default ``sys.argv[1:]``)
    and return its exit code.

    The command runs as ``cmd_<command>`` of this module, looked up by name
    at each call rather than bound when the parser is built: the parser is
    built once per process, and a command patched after the first call (a
    tracer wrapping ``cmd_sample``) must still be the one that runs.
    """
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
