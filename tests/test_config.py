"""The config schema: a seeded fuzz of every key through the subcommands that
read it, and the documents and validators that state the same table."""

import contextlib
import io
import itertools
import json
import re
import signal
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

from dynhmc import cli
from dynhmc.cli import SCHEMA, main

# bad values for any key: null, booleans, numbers out of most ranges,
# strings, empty, nested, ragged and oversized arrays, objects, arrays of
# booleans and strings, and an array whose sum overflows
BAD_VALUES = [None, True, False, 0, -1, 1.5, 1e308, -1e308, 2**70, "", "abc", "1.5", [], [[]],
              [[1.0, 2.0], [3.0]], {}, {"x": 1}, [True, False], ["a", "b"], [1e308, 1e308],
              [-1.0]]
MASSES = {"identity": {"kind": "identity"}, "diagonal": {"kind": "diagonal", "diag": [1.5]},
          "dense": {"kind": "dense", "matrix": [[1.5]]}}
# the kernel and mass kinds that read a key; any kind reads the others
KERNEL_KINDS = {"kernel.k_m": ("nuts_iterative", "nuts_recursive"), "kernel.t": ("hmc",),
                "kernel.weights": ("rhmc",)}
MASS_KINDS = {"kernel.mass.diag": ("diagonal",), "kernel.mass.matrix": ("dense",)}
# the subcommands that read a key, by its section
COMMANDS = {"target": ("sample", "pmf", "trajectory"), "kernel": ("sample", "pmf", "trajectory"),
            "seed": ("sample", "pmf"), "conditions": ("conditions",)}
ARGV = {"sample": ["--iters", "2", "--chains", "1"], "pmf": ["--q", "0.3"],
        "trajectory": ["--q0", "0", "--qT", "0.5", "--steps", "3"], "conditions": []}
SECONDS_PER_CASE = 5


def _base(kernel_kind: str, mass_kind: str) -> dict:
    """A valid one-dimensional config that sets every key."""
    return {
        "target": {"kind": "perturbed_gaussian", "dim": 1, "sigma": [[1.0]], "a5": 0.5},
        "kernel": {"kind": kernel_kind, "h": 0.5, "k_m": 3, "t": 3, "weights": [0.5, 0.5],
                   "mass": MASSES[mass_kind]},
        "chains": 1, "iters": 2, "seed": 3, "out": "s.csv", "q0": [0.25],
        "conditions": {"l1": 1.0, "h": 0.1, "k_m": 1, "t": 2, "m1": 1.0, "a1": 1.0,
                       "require": ["doubling_stability"]},
    }


def _replaced(config: dict, key: str, value) -> dict:
    config = json.loads(json.dumps(config))
    *path, name = key.split(".")
    section = config
    for part in path:
        section = section[part]
    section[name] = value
    return config


def _with_boolean(value, flag: bool):
    """``value``, a valid array, with its first entry replaced by ``flag``."""
    if isinstance(value[0], list):
        return [_with_boolean(value[0], flag), *value[1:]]
    return [flag, *value[1:]]


def _has_boolean(value) -> bool:
    if isinstance(value, list):
        return any(_has_boolean(v) for v in value)
    return isinstance(value, bool)


class _Timeout(Exception):
    pass


def _run(argv: list[str]) -> tuple[int | str, str]:
    """``main(argv)`` in-process with warnings as errors, stopped after
    ``SECONDS_PER_CASE``; its exit code, or the traceback of what it raised,
    and its stderr."""
    def stop(*_):
        raise _Timeout(f"still running after {SECONDS_PER_CASE} s")

    err, old = io.StringIO(), signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_CASE)
    try:
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            rc = main(argv)
    except (Exception, SystemExit):  # a traceback, a warning, argparse or a hang
        rc = traceback.format_exc(limit=-3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return rc, err.getvalue()


def _cases(rng) -> list[tuple[str, object, str, str, str]]:
    """``(key, value, command, kernel kind, mass kind)``: each key with each
    bad value, and each array key with a boolean inside its valid value,
    under every subcommand that reads the key, the seed picking the kinds."""
    pairs = [(key, value) for key in SCHEMA for value in BAD_VALUES]
    for key in SCHEMA:
        valid = _base("rhmc", MASS_KINDS.get(key, ("identity",))[0])
        for part in key.split("."):
            valid = valid.get(part) if isinstance(valid, dict) else None
        if isinstance(valid, list):
            pairs += [(key, _with_boolean(valid, flag)) for flag in (True, False)]
    cases = []
    for key, value in pairs:
        kind = str(rng.choice(KERNEL_KINDS.get(key, cli.KERNEL_KINDS)))
        mass = str(rng.choice(MASS_KINDS.get(key, list(MASSES))))
        for command in COMMANDS.get(key.split(".")[0], ("sample",)):
            cases.append((key, value, command, kind, mass))
    return cases


def test_seeded_fuzz_exits_0_or_2_naming_the_key(tmp_path, monkeypatch):
    # every case ends in exit 0 or 2, with no traceback and no warning; an
    # exit 2 names the replaced key, but for trajectory's verdict that the
    # configured target and step size fail the step-size condition; a
    # boolean anywhere in a value exits 2
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NUTS_SEED", raising=False)
    cases = _cases(np.random.default_rng(26))
    assert len(cases) > len(SCHEMA) * len(BAD_VALUES)
    failures = []
    t0 = time.perf_counter()
    for key, value, command, kind, mass in cases:
        Path("cfg.json").write_text(json.dumps(_replaced(_base(kind, mass), key, value)))
        rc, err = _run([command, "--config", "cfg.json", *ARGV[command]])
        verdict = command == "trajectory" and err.startswith("step-size condition violated")
        if (rc not in (0, 2) or "Traceback" in err or rc == 2 and key not in err and not verdict
                or _has_boolean(value) and rc != 2):
            failures.append(f"{command} {kind} {mass} {key}={json.dumps(value)}: {rc!r} {err!r}")
    elapsed = time.perf_counter() - t0
    assert not failures, f"{len(failures)} of {len(cases)} cases:\n" + "\n".join(failures)
    assert elapsed < 15.0, elapsed


def test_base_configs_run(tmp_path, monkeypatch):
    # the fuzz's base configs are valid: each command exits 0 on them
    monkeypatch.chdir(tmp_path)
    for kind, mass, command in itertools.product(cli.KERNEL_KINDS, MASSES, ARGV):
        Path("cfg.json").write_text(json.dumps(_base(kind, mass)))
        assert _run([command, "--config", "cfg.json", *ARGV[command]]) == (0, ""), \
            (kind, mass, command)


def _schema_row(key: str) -> str:
    """The start of the README's row for ``key``: its type, range and default
    as ``SCHEMA`` states them."""
    kind, bounds, default = SCHEMA[key]
    if kind == "int":
        text = f"[{bounds[0]}, {bounds[1]}" + (")" if bounds[1] == float("inf") else "]")
    elif kind == "float":
        text = f"({bounds[0]:g}, {bounds[1]:g})"
    elif kind in ("choice", "names"):
        text = " ".join(f"`{n}`" for n in bounds)
    elif kind == "array":
        text = "any length" if bounds is None else " x ".join(bounds)
    else:
        text = ""
    if isinstance(default, tuple):
        default = list(default)
    shown = "" if default is None or default == {} else f"`{json.dumps(default)}`"
    return f"| `{key}` | {kind} | {text} | {shown} |"


def test_readme_key_table_states_the_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = [line for line in readme.splitlines() if re.match(r"\| `[a-z_0-9.]+` \|", line)]
    assert len(rows) == len(SCHEMA)
    for row, key in zip(rows, SCHEMA):
        assert row.startswith(_schema_row(key)), (row, _schema_row(key))


def test_condition_names_are_the_validators():
    from dynhmc.verify import stepsize_conditions

    assert list(stepsize_conditions()) == list(SCHEMA["conditions.require"].range)


def test_negative_a5_fails_the_step_size_condition(tmp_path, capsys):
    # with |a5| in L1: L1 h^2 = 1.9 * 1.69 >= 2 (1 - cos(pi / 3)) = 1; with
    # a5 itself the solver was let run, and diverged
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"target": {"kind": "perturbed_gaussian", "dim": 1, "a5": -0.9},
                                "kernel": {"h": 1.3}}))
    rc = main(["trajectory", "--config", str(path), "--q0", "0", "--qT", "2", "--steps", "3"])
    assert rc == 2
    assert "step-size condition violated" in capsys.readouterr().err
