import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynhmc
from dynhmc import cli
from dynhmc.cli import _format_rows, _row_format, main


@pytest.fixture
def gauss2_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "target": {"kind": "standard_gaussian", "dim": 2},
                "kernel": {"kind": "nuts_iterative", "h": 0.5, "k_m": 4},
                "chains": 2,
                "iters": 50,
                "seed": 99,
            }
        )
    )
    return str(path)


class TestSample:
    @pytest.mark.parametrize("kind", ["gaussian", "perturbed_gaussian"])
    def test_dense_sigma_computes_no_spectrum(self, kind, tmp_path, monkeypatch):
        # sample reads no constant of its target, so it takes no eigenvalues
        def no_spectrum(*args, **kwargs):
            raise AssertionError("a spectrum was computed")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
        monkeypatch.setattr(np.linalg, "eigvals", no_spectrum)
        path, out = tmp_path / "cfg.json", tmp_path / "s.csv"
        sigma = [[2.0, 0.4, -0.3], [0.4, 1.0, 0.2], [-0.3, 0.2, 0.6]]
        mass = {"kind": "dense", "matrix": [[1.5, -0.3, 0.1], [-0.3, 0.4, 0.0], [0.1, 0.0, 0.8]]}
        path.write_text(json.dumps({"target": {"kind": kind, "dim": 3, "sigma": sigma},
                                    "kernel": {"kind": "nuts_iterative", "h": 0.3, "mass": mass},
                                    "chains": 2, "iters": 20}))
        assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 20

    def test_row_accounting_and_header(self, gauss2_config, tmp_path, capsys):
        out = str(tmp_path / "samples.csv")
        rc = main(["sample", "--config", gauss2_config, "--out", out])
        assert rc == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "chain,iter,q1,q2,jf,kf,ngrad,diverged"
        assert len(lines) == 1 + 2 * 50
        summary = json.load(open(out + ".summary.json"))
        assert summary["seed"] == 99
        assert summary["divergences"] == 0
        assert sum(summary["depth_histogram"].values()) == 100

    def test_no_draws_no_moments(self, gauss2_config, tmp_path):
        # zero draws have no first or second moment; a run with draws keeps both
        for iters, rows in (("0", 0), ("1", 2)):
            out = str(tmp_path / f"s{iters}.csv")
            assert main(["sample", "--config", gauss2_config, "--iters", iters, "--out", out]) == 0
            assert len(open(out).read().splitlines()) == 1 + rows
            summary = json.load(open(out + ".summary.json"))
            assert summary["acceptance_rate"] is None
            if rows:
                assert [len(v) for v in summary["moment_estimates"].values()] == [2, 2]
            else:
                assert summary["moment_estimates"] is None

    def test_summary_echoes_matrices_by_shape_and_digest(self, tmp_path):
        sigma = [[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 1.0]]
        matrix = [[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 0.5]]
        config = {
            "target": {"kind": "gaussian", "dim": 3, "sigma": sigma},
            "kernel": {"kind": "rhmc", "h": 0.3, "weights": [0.25, 0.75],
                       "mass": {"kind": "dense", "matrix": matrix}},
            "q0": [0.1, -0.2, 0.3],
        }
        path, out = tmp_path / "cfg.json", str(tmp_path / "samples.csv")
        path.write_text(json.dumps(config))
        assert main(["sample", "--config", str(path), "--iters", "5", "--out", out]) == 0
        text = open(out + ".summary.json").read()
        assert '\n  "depth_histogram": ' in text

        def echo(v):
            digest = hashlib.sha256(np.asarray(v, dtype="<f8").tobytes()).hexdigest()
            return {"shape": [3, 3], "sha256": digest}

        assert json.loads(text)["config"] == {
            "target": {**config["target"], "sigma": echo(sigma)},
            "kernel": {**config["kernel"], "mass": {"kind": "dense", "matrix": echo(matrix)}},
            "q0": config["q0"],
            "chains": 1,
            "iters": 5,
        }

    def test_same_seed_byte_identical(self, gauss2_config, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sample", "--config", gauss2_config, "--out", a]) == 0
        assert main(["sample", "--config", gauss2_config, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_flag_changes_output(self, gauss2_config, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["sample", "--config", gauss2_config, "--out", a])
        main(["sample", "--config", gauss2_config, "--out", b, "--seed", "1234"])
        assert open(a).read() != open(b).read()

    def test_env_seed_override(self, gauss2_config, tmp_path, monkeypatch):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        monkeypatch.setenv("NUTS_SEED", "555")
        main(["sample", "--config", gauss2_config, "--out", a])
        monkeypatch.delenv("NUTS_SEED")
        main(["sample", "--config", gauss2_config, "--out", b, "--seed", "555"])
        assert open(a).read() == open(b).read()

    def test_invalid_h_exits_2_naming_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kernel": {"h": -1.0}}))
        rc = main(["sample", "--config", str(path)])
        assert rc == 2
        assert "kernel.h" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,key",
        [
            ({"target": {"dim": 2}, "q0": [0.0, 1.0, 2.0]}, "q0"),
            ({"target": {"dim": 2}, "q0": [float("nan"), 0.0]}, "q0"),
            ({"target": {"kind": "gaussian", "dim": 2, "sigma": [1.0, 0.0, 1.0]}}, "target.sigma"),
            ([{"target": {"dim": 2}}], "JSON object"),
            ({"target": {"dim": 2}, "kernel": {"mass": {"kind": "dense", "matrix": [1.0]}}},
             "kernel.mass.matrix"),
            ({"target": {"dim": 2}, "kernel": {"mass": {"kind": "dense",
                                                        "matrix": [1.0, 2.0, 2.0, 1.0]}}},
             "kernel.mass.matrix"),
            ({"target": 2}, "target"),
            ({"target": {"dim": "two"}}, "target.dim"),
            ({"iters": "many"}, "iters"),
            ({"kernel": {"h": "big"}}, "kernel.h"),
            ({"target": {"kind": "perturbed_gaussian", "a5": "half"}}, "target.a5"),
            ({"kernel": {"k_m": [3]}}, "kernel.k_m"),
            ({"kernel": {"t": None}}, "kernel.t"),
            ({"kernel": {"kind": "rhmc", "weights": ["a", "b"]}}, "kernel.weights"),
            ({"chains": "two"}, "chains"),
            ({"seed": "abc"}, "seed"),
            ({"target": {"dim": 2.5}}, "target.dim"),
            ({"iters": 2.7}, "iters"),
            ({"kernel": {"k_m": 3.9}}, "kernel.k_m"),
            ({"seed": -1}, "seed"),
            ({"target": {"dim": 2}, "kernel": {"mass": {"kind": "diagonal", "diag": [1.0, 0.0]}}},
             "kernel.mass.diag"),
            ({"target": {"dim": 2}, "kernel": {"mass": {"kind": "diagonal", "diag": [1.0, -2.0]}}},
             "kernel.mass.diag"),
            ({"target": {"dim": 2}, "kernel": {"mass": {"kind": "diagonal",
                                                        "diag": [1e-320, 1.0]}}},
             "kernel.mass.diag"),
            ({"kernel": {"mass": "identity"}}, "kernel.mass"),
            ({"target": {"kind": "double_well"}, "q0": [1e80]}, "q0"),
            ({"target": {"dim": 2}, "q0": [1e200, 0.0]}, "q0"),
            ({"target": {"dim": 2}, "q0": [1e308, 1e308]}, "q0"),
            ({"chains": 0}, "chains"),
            # checked although --iters overrides it
            ({"iters": -1}, "iters"),
        ],
        ids=["q0_wrong_length", "q0_non_finite", "sigma_wrong_size", "not_an_object",
             "mass_matrix_wrong_size", "mass_matrix_not_spd", "target_not_an_object",
             "dim_not_a_number", "iters_not_a_number", "h_not_a_number", "a5_not_a_number",
             "k_m_a_list", "t_null", "weights_not_numbers", "chains_not_a_number",
             "seed_not_a_number", "dim_fractional", "iters_fractional", "k_m_fractional",
             "seed_negative", "mass_diag_zero", "mass_diag_negative", "mass_diag_no_finite_inverse",
             "mass_not_an_object", "q0_double_well_energy_overflows",
             "q0_gaussian_energy_overflows", "q0_gaussian_norm_overflows", "chains_zero",
             "iters_negative"],
    )
    def test_bad_config_exits_2_naming_key(self, config, key, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        rc = main(["sample", "--config", str(path), "--iters", "5", "--out", str(out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_nan_rhmc_weight_exits_2(self, tmp_path, capsys):
        # json.load reads NaN; a nan weight passes both the sign and the sum
        # test, and T would be drawn as if it were the rest
        path = tmp_path / "bad.json"
        path.write_text('{"kernel": {"kind": "rhmc", "weights": [0.5, NaN]}}')
        out = tmp_path / "s.csv"
        rc = main(["sample", "--config", str(path), "--iters", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: kernel: ") and "weights" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,key",
        [
            ({"iters": True}, "iters"),
            ({"chains": True}, "chains"),
            ({"seed": False}, "seed"),
            ({"target": {"dim": True}}, "target.dim"),
            ({"target": {"kind": "perturbed_gaussian", "a5": True}}, "target.a5"),
            ({"kernel": {"h": True}}, "kernel.h"),
            ({"kernel": {"k_m": True}}, "kernel.k_m"),
            ({"kernel": {"kind": "hmc", "t": True}}, "kernel.t"),
        ],
        ids=["iters", "chains", "seed", "dim", "a5", "h", "k_m", "t"],
    )
    def test_boolean_exits_2_naming_key(self, config, key, tmp_path, capsys):
        # JSON true is no number, though Python's bool converts to 1
        path, out = tmp_path / "bad.json", tmp_path / "s.csv"
        path.write_text(json.dumps(config))
        assert main(["sample", "--config", str(path), "--iters", "5", "--out", str(out)]) == 2
        assert f"config error: {key} must be a number, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", [5, 0, True, False, 2.5, ["s.csv"], {"path": "s.csv"}],
                             ids=["int", "zero", "true", "false", "float", "list", "object"])
    def test_non_string_out_exits_2_naming_it(self, out, tmp_path, monkeypatch, capsys):
        # an integer out would be taken for a file descriptor, true for fd 1
        calls = self._counting_kernels(monkeypatch)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"out": out, "iters": 5}))
        assert main(["sample", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: out must be a path string")
        assert captured.out == ""
        assert calls == [0]

    @pytest.mark.parametrize("kind", ["standard_gaussian", "gaussian"])
    def test_dim_too_large_to_allocate_exits_2_naming_it(self, kind, tmp_path, monkeypatch,
                                                         capsys):
        # 8 * 10^15 bytes: no 64-bit address space holds one d-vector
        calls = self._counting_kernels(monkeypatch)
        path, out = tmp_path / "big.json", tmp_path / "s.csv"
        path.write_text(json.dumps({"target": {"kind": kind, "dim": 10**15}}))
        assert main(["sample", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: target.dim 1000000000000000 ")
        assert calls == [0] and not out.exists()

    @pytest.mark.parametrize("source", ["--seed", "NUTS_SEED"])
    def test_negative_seed_exits_2_naming_source(self, source, gauss2_config, monkeypatch,
                                                 capsys):
        argv = ["sample", "--config", gauss2_config, "--iters", "5"]
        if source == "--seed":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("NUTS_SEED", "-1")
        assert main(argv) == 2
        assert source in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--iters", "-1"), ("--chains", "0")])
    def test_bad_run_length_flag_exits_2_naming_it(self, flag, value, gauss2_config, tmp_path,
                                                    capsys):
        out = tmp_path / "s.csv"
        assert main(["sample", "--config", gauss2_config, flag, value, "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _counting_kernels(monkeypatch, fail_after: int | None = None) -> list[int]:
        """Count the transitions ``sample`` runs; after ``fail_after`` of them,
        the next one raises ``KeyboardInterrupt``."""
        calls, make_kernel = [0], cli.make_kernel

        def make(target, cfg):
            kernel = make_kernel(target, cfg)

            def counted(q, rng):
                if calls[0] == fail_after:
                    raise KeyboardInterrupt
                calls[0] += 1
                return kernel(q, rng)
            return counted

        monkeypatch.setattr(cli, "make_kernel", make)
        return calls

    def test_unwritable_out_exits_3(self, gauss2_config, monkeypatch):
        calls = self._counting_kernels(monkeypatch)
        rc = main(["sample", "--config", gauss2_config, "--out", "/nonexistent/dir/x.csv"])
        assert rc == 3
        # the destination is opened before the first transition
        assert calls == [0]

    def test_interrupted_run_leaves_rows_written(self, gauss2_config, tmp_path, monkeypatch):
        out = tmp_path / "s.csv"
        self._counting_kernels(monkeypatch, fail_after=7)
        with pytest.raises(KeyboardInterrupt):
            main(["sample", "--config", gauss2_config, "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "chain,iter,q1,q2,jf,kf,ngrad,diverged"
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", str(i)] for i in range(7)]

    def test_stdout_and_file_bytes_agree(self, gauss2_config, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sample", "--config", gauss2_config, "--iters", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["sample", "--config", gauss2_config, "--iters", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text()
        summary = json.loads(captured.err)
        want = json.load(open(str(out) + ".summary.json"))
        for key in ("wall_time_s", "grad_evals_per_s"):
            del summary[key], want[key]
        assert summary == want

    def test_memory_does_not_grow_with_run_length(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"kind": "standard_gaussian", "dim": 50},
                                    "kernel": {"kind": "hmc", "h": 0.2, "t": 2}}))
        argv = ["sample", "--config", str(path), "--out", str(tmp_path / "s.csv")]
        assert main([*argv, "--iters", "10"]) == 0  # imports and caches, untraced
        peaks = []
        for iters in (1000, 4000):
            tracemalloc.start()
            try:
                assert main([*argv, "--iters", str(iters)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # at 4000 iterations the CSV is about 4 MB
        assert peaks[1] - peaks[0] < 1_000_000, peaks

    def test_17_digit_round_trip(self, gauss2_config, tmp_path):
        out = str(tmp_path / "s.csv")
        main(["sample", "--config", gauss2_config, "--out", out])
        lines = open(out).read().strip().split("\n")[1:]
        vals = [float(line.split(",")[2]) for line in lines[:10]]
        # printing with 17 significant digits round-trips doubles exactly
        for line, v in zip(lines[:10], vals):
            assert float(f"{v:.17g}") == v

    def test_row_format_matches_17g_on_special_values(self):
        values = np.array([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310,
                           2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3, 1e16,
                           123456789.0])
        want = ",".join(f"{v:.17g}" for v in values)
        assert _row_format(values.size) % tuple(values.tolist()) == want
        assert want.startswith("inf,-inf,nan,-0,0,4.9406564584124654e-324,")


def _fixed_notation(values: np.ndarray) -> np.ndarray:
    """Where ``_format_rows`` formats a value itself: 1e-4 <= |x| < 1e16."""
    return (np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)


def _assert_rows_match_17g(values: np.ndarray) -> None:
    """``_format_rows`` gives each row as the ``%.17g`` template does, or
    None exactly where the row holds a value outside its range."""
    template = _row_format(values.shape[1])
    texts = _format_rows(values)
    assert len(texts) == len(values)
    for row, text, fast in zip(values, texts, _fixed_notation(values).all(axis=1)):
        assert text == (template % tuple(row.tolist()) if fast else None), row


class TestFormatRows:
    """The block formatter of ``sample``'s rows against ``%.17g``."""

    @staticmethod
    def _values(rng) -> np.ndarray:
        n = 30_000
        magnitudes = 10.0 ** rng.uniform(-4, 16, n) * rng.choice([-1.0, 1.0], n)
        bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
        # random significands at every binary exponent the range spans
        binary = np.ldexp(rng.uniform(1, 2, n), rng.integers(-14, 54, n))
        powers = 10.0 ** np.arange(-4, 16)
        powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        # exact ties at the 17th digit: x = m 2^(E-17), m odd, is one where
        # 10^E <= x < 10^(E+1), since x 10^(16-E) = m 5^(16-E) / 2
        ties = []
        for e in range(-4, 16):
            low = math.ceil(10.0**e * 2.0 ** (17 - e))
            high = min(math.floor(10.0 ** (e + 1) * 2.0 ** (17 - e)), 2**53)
            if low < high:
                m = rng.integers(low // 2, (high - 1) // 2, 500) * 2 + 1
                ties.append(np.ldexp(m.astype(float), e - 17))
        return np.concatenate([magnitudes, bits, binary, powers, *ties])

    def test_matches_17g_on_seeded_values(self):
        values = self._values(np.random.default_rng(2024))
        assert values.size >= 100_000
        assert _fixed_notation(values).mean() > 0.5
        _assert_rows_match_17g(values[:, None])
        # the same values as rows of 100, and of 7 in an order with their signs flipped
        _assert_rows_match_17g(values[: values.size // 100 * 100].reshape(-1, 100))
        flipped = -values[::-1]
        _assert_rows_match_17g(flipped[: flipped.size // 7 * 7].reshape(-1, 7))

    def test_ties_round_to_even(self):
        # 1 + 2^-17 = 1.00000762939453125 exactly: its 17th digit, 2, is kept
        values = np.array([[1 + 2.0**-17, 1 + 3 * 2.0**-17, -(1 + 2.0**-17)]])
        assert _format_rows(values) == ["1.0000076293945312,1.0000228881835938,"
                                        "-1.0000076293945312"]

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(), min_size=1, max_size=6))
    def test_matches_17g_on_any_doubles(self, row):
        _assert_rows_match_17g(np.array([row], dtype=float))


def _sample_digests(config: dict, tmp_path: Path) -> tuple[str, str, dict]:
    """Run seeded ``sample`` on ``config`` with warnings as errors; return the
    SHA-256 of its CSV, that of its summary without the timings, and the
    summary itself."""
    path, out = tmp_path / "cfg.json", str(tmp_path / "s.csv")
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sample", "--config", str(path), "--out", out]) == 0
    csv = open(out, "rb").read()
    summary = json.load(open(out + ".summary.json"))
    for key in ("wall_time_s", "grad_evals_per_s"):
        del summary[key]
    text = json.dumps(summary, indent=2).encode()
    return hashlib.sha256(csv).hexdigest(), hashlib.sha256(text).hexdigest(), summary


GAUSS3_KERNELS = {
    "nuts_iterative": {"kind": "nuts_iterative", "h": 0.5, "k_m": 4},
    "nuts_recursive": {"kind": "nuts_recursive", "h": 0.5, "k_m": 4},
    "hmc": {"kind": "hmc", "h": 0.3, "t": 5},
    "rhmc": {"kind": "rhmc", "h": 0.3, "weights": [0.25, 0.25, 0.5]},
}

# a double well entered far out: every orbit's first state overflows
DIVERGENT_CONFIG = {
    "target": {"kind": "double_well", "dim": 1},
    "kernel": {"kind": "nuts_iterative", "h": 0.25, "k_m": 6},
    "q0": [1e30], "chains": 2, "iters": 30, "seed": 8,
}


class TestSampleBytes:
    """Seeded ``sample`` output, pinned by digest: the CSV bytes, and the
    summary bytes without its two timings."""

    PINS = {
        "nuts_iterative": ("1f3fdcddb58bd9a29d5774a1841acc32c98e057dd9defacfb339388c47bcd8d0",
                          "ae1c6fed640a251e28715df5e7f5c3118ab64bdded2ce308e04486f22c5e46ec"),
        "nuts_recursive": ("008ade45f33b251c29e06b4660cf4d209ccd090fb4ea8edbfe586d8cc61d7199",
                          "b188a9053b63e8c7316611a8c545df5c1c80d79137d2174e8aa2abad24a16383"),
        "hmc": ("8be6a17600a220c78fd44ede2a2ba2252731ee416b2e37cafe3fe0235918fb70",
               "14667b2a7bc1e28f1a517ade57c6476b5f359e4f84249ce49b94df166a8b87a9"),
        "rhmc": ("6c65f688475d21da3873f901a555a60c25387cb3ee0de61b20c524d97794a20e",
                "1f8c27659dd92280521f820047c4a6598bf0a3a3e3de2d55ee5f40a22e23e462"),
        "divergent": ("5cf2b92d523989c6711c0658c8f8925dd7a961fda6519df7636d1f5040ac61b7",
                     "88e7871a9deea4743271c9d4a758273216cd77c18c57debea94b07eb75fd088c"),
        "hmc_d100": ("30961e3c22778e9fd62cb1533fa135ad7a6f0c86b615e8f804aaccfd8cfa1d08",
                     "0ce6d76397a7a20ab3c53adc806d72ae288685ff529e5ea9942286a66c7d2ad7"),
        "mixed": ("8aaae8516e3bdea2fefb80f8273c300291ffc0b7663d487132da9b4239ce0c6e",
                  "24e5a84c052c56fc83d5e775f6bced0d3c57d38ade5e39e0b86bb084a6997898"),
    }

    @pytest.mark.parametrize("kind", sorted(GAUSS3_KERNELS))
    def test_gaussian_d3(self, kind, tmp_path):
        config = {"target": {"kind": "standard_gaussian", "dim": 3},
                  "kernel": GAUSS3_KERNELS[kind], "chains": 2, "iters": 40, "seed": 5}
        assert _sample_digests(config, tmp_path)[:2] == self.PINS[kind]

    def test_hmc_d100_over_many_blocks(self, tmp_path):
        # 600 rows of 100 values: 24 blocks, in 9 of which rows the
        # formatter leaves to the template (a value below 1e-4) sit among
        # rows it formats
        config = {"target": {"kind": "standard_gaussian", "dim": 100},
                  "kernel": {"kind": "hmc", "h": 0.25, "t": 16},
                  "chains": 2, "iters": 300, "seed": 3}
        assert _sample_digests(config, tmp_path)[:2] == self.PINS["hmc_d100"]
        assert self._mixed_blocks(tmp_path / "s.csv") == 9

    def test_template_and_formatter_rows_share_blocks(self, tmp_path):
        # q1 has standard deviation 1e-4: most rows hold a value printed
        # with an exponent, the rest are formatted a block at a time
        config = {"target": {"kind": "gaussian", "dim": 3,
                             "sigma": [[1e8, 0, 0], [0, 1, 0], [0, 0, 1]]},
                  "kernel": {"kind": "hmc", "h": 1e-4, "t": 10}, "q0": [0.0, 1.0, -2.0],
                  "chains": 2, "iters": 600, "seed": 4}
        assert _sample_digests(config, tmp_path)[:2] == self.PINS["mixed"]
        assert self._mixed_blocks(tmp_path / "s.csv") == 2

    @staticmethod
    def _mixed_blocks(csv: Path) -> int:
        """The blocks of ``sample``'s CSV holding rows of both kinds."""
        q = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)[:, 2:-4]
        fast = _fixed_notation(q).all(axis=1)
        size = max(1, cli.BLOCK_VALUES // q.shape[1])
        return sum(0 < fast[i:i + size].sum() < len(fast[i:i + size])
                   for i in range(0, len(fast), size))

    def test_iterative_divergence_path(self, tmp_path):
        csv_sha, summary_sha, summary = _sample_digests(DIVERGENT_CONFIG, tmp_path)
        assert summary["divergences"] == 60
        assert summary["depth_histogram"] == {"0": 60}
        rows = [line.split(",") for line in open(tmp_path / "s.csv").read().splitlines()[1:]]
        assert len(rows) == 60
        # every transition steps once from its anchor and stays put
        assert all(r[2:] == ["1e+30", "0", "0", "2", "1"] for r in rows)
        assert (csv_sha, summary_sha) == self.PINS["divergent"]


SAMPLE = ["sample", "--iters", "5", "--out", "s.csv"]


class TestConfigKeys:
    @pytest.mark.parametrize(
        "argv,config,key",
        [
            (SAMPLE, {"kernel": {"kind": "nuts_iterative", "k_m": 3}, "iter": 5}, "iter"),
            (SAMPLE, {"target": {"kind": "standard_gaussian", "dims": 2}}, "target.dims"),
            (SAMPLE, {"kernel": {"kind": "nuts_iterative", "step": 0.1}}, "kernel.step"),
            (["pmf", "--q", "1.0", "--p", "0.0"],
             {"kernel": {"mass": {"kind": "diagonal", "diag": [2.0], "dig": [2.0]}}},
             "kernel.mass.dig"),
            (["conditions"], {"conditions": {"l1": 1.0, "h": 0.1, "km": 1}}, "conditions.km"),
        ],
        ids=["top_level", "target", "kernel", "kernel_mass", "conditions"],
    )
    def test_unknown_key_exits_2_naming_it(self, argv, config, key, tmp_path, monkeypatch,
                                           capsys):
        # a misspelt key would otherwise leave its default in force
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([argv[0], "--config", "cfg.json", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown config key {key};" in captured.err
        assert not (tmp_path / "s.csv").exists()


class TestImports:
    """``sample`` loads scipy only for a dense mass.  Each run is a fresh
    interpreter, because other tests load scipy into this one."""

    SCRIPT = (
        "import sys\n"
        "from dynhmc.cli import main\n"
        "rc = main(['sample', '--config', sys.argv[1], '--iters', '5', '--out', sys.argv[2]])\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "sys.exit(rc)\n"
    )

    def _sample(self, tmp_path, kernel: dict, kind: str = "standard_gaussian") -> str:
        path, out = tmp_path / "cfg.json", tmp_path / "samples.csv"
        path.write_text(json.dumps({"target": {"kind": kind, "dim": 2}, "kernel": kernel}))
        env = dict(os.environ, PYTHONPATH=str(Path(dynhmc.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(path), str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 1 + 5
        return proc.stdout

    def test_identity_mass_loads_no_scipy(self, tmp_path):
        assert self._sample(tmp_path, {"kind": "nuts_iterative", "h": 0.5}) == "[]\n"

    @pytest.mark.parametrize("kind", ["gaussian", "perturbed_gaussian"])
    def test_no_sigma_loads_no_scipy(self, tmp_path, kind):
        # without a sigma the precision is the identity, and no product is taken
        assert self._sample(tmp_path, {"kind": "nuts_iterative", "h": 0.5}, kind) == "[]\n"

    def test_dense_mass_runs(self, tmp_path):
        mass = {"kind": "dense", "matrix": [[1.0, 0.2], [0.2, 1.0]]}
        self._sample(tmp_path, {"kind": "hmc", "h": 0.5, "mass": mass})


class TestPmf:
    def test_entries_and_sum(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "target": {"kind": "standard_gaussian", "dim": 1},
                    "kernel": {"kind": "nuts_iterative", "h": 1.2, "k_m": 1},
                }
            )
        )
        rc = main(["pmf", "--config", str(path), "--q", "0.0", "--p", "1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        probs = {e["j"]: e["prob"] for e in payload["entries"]}
        # anchor at the mode: the two directions are energy-symmetric
        assert probs[1] == pytest.approx(probs[-1], abs=1e-13)
        assert set(probs) <= {-1, 0, 1}
        assert payload["sum"] == pytest.approx(1.0, abs=1e-12)
        assert [e["j"] for e in payload["entries"]] == sorted(probs)

    def test_budget_exceeded_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kernel": {"h": 0.5, "k_m": 9}}))
        assert main(["pmf", "--config", str(path), "--q", "0.0"]) == 2

    def test_bad_position_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"dim": 2}, "kernel": {"h": 0.5, "k_m": 2}}))
        assert main(["pmf", "--config", str(path), "--q", "1.0"]) == 2
        assert main(["pmf", "--config", str(path), "--q", "a,b"]) == 2
        assert main(["pmf", "--config", str(path), "--q", "nan,0"]) == 2
        assert main(["pmf", "--config", str(path), "--q", "0,0", "--p", "abc"]) == 2
        assert main(["pmf", "--config", str(path), "--q", "0,0", "--p", "inf,0"]) == 2

    @pytest.mark.parametrize("q,p,flag", [("1e200,0", "0,0", "--q"), ("1e200,0", None, "--q"),
                                          ("0,0", "1e200,0", "--p"), ("1e308,1e308", "0,0", "--q")])
    def test_divergent_anchor_exit_2_naming_flag(self, q, p, flag, tmp_path, capsys):
        # finite flags at which the energy is not: the anchor would diverge
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"dim": 2}, "kernel": {"h": 0.5, "k_m": 2}}))
        argv = ["pmf", "--config", str(path), "--q", q] + (["--p", p] if p else [])
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and flag in out.err


class TestVerify:
    def test_unknown_suite_exit_2(self):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_conditions_suite_passes(self, capsys, tmp_path):
        out = str(tmp_path / "rep.json")
        rc = main(["verify", "--suite", "conditions", "--out", out])
        assert rc == 0
        payload = json.load(open(out))
        assert payload["all_pass"] is True
        schema = payload["checks"][0]
        assert {"check", "pass", "tolerance", "violation", "config", "seed", "details"} <= set(
            schema
        )

    def test_symmetry_suite_passes(self, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["verify", "--suite", "symmetry", "--seed", "3", "--out", out]) == 0

    def test_equivalence_suite_passes_at_its_corrected_level(self, tmp_path):
        # the suite passes iff the smallest of its 18 chi-square p-values is
        # at or above the Bonferroni level 1e-3 / 18 (at seed 3 it is 0.10)
        out = str(tmp_path / "rep.json")
        assert main(["verify", "--suite", "equivalence", "--seed", "3", "--out", out]) == 0
        (check,) = json.load(open(out))["checks"]
        assert check["check"] == "exact_law"
        assert check["config"]["alpha"] == 1e-3 and check["config"]["tests"] == 18
        assert check["tolerance"] == -math.log10(1e-3 / 18)
        assert check["violation"] == -math.log10(check["details"][0]["min_chi2_pvalue"])
        assert 1e-3 / 18 <= check["details"][0]["min_chi2_pvalue"]

    def test_mutated_equivalence_suite_fails(self, tmp_path):
        # the negative control samples the same rows sampler as the clean arm
        out = str(tmp_path / "rep.json")
        rc = main(
            ["verify", "--suite", "equivalence", "--mutate", "always-swap", "--seed", "3",
             "--out", out]
        )
        assert rc == 1
        (check,) = json.load(open(out))["checks"]
        assert check["config"]["mutate"] == "always-swap" and check["pass"] is False

    def test_mutated_accessibility_unaffected(self, tmp_path):
        # mutation only touches mutation-sensitive checks
        out = str(tmp_path / "rep.json")
        rc = main(
            ["verify", "--suite", "accessibility", "--mutate", "always-swap", "--out", out]
        )
        assert rc == 0

    @pytest.mark.parametrize("suite,check", [
        ("balance", "detailed_balance"), ("drift", "drift"), ("tails", "tail_conditions"),
        ("degeneracy", "uturn_degeneracy_scan"), ("ergodicity", "ergodicity_run")])
    def test_suite_passes(self, suite, check, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["verify", "--suite", suite, "--seed", "3", "--out", out]) == 0
        payload = json.load(open(out))
        assert payload["all_pass"] is True
        assert [c["check"] for c in payload["checks"]] == [check]

    def test_mutated_invariance_suite_fails(self, tmp_path):
        # the documented negative control: broken kernel makes the suite exit 1
        out = str(tmp_path / "rep.json")
        rc = main(
            ["verify", "--suite", "invariance", "--mutate", "always-swap", "--out", out]
        )
        assert rc == 1
        payload = json.load(open(out))
        assert payload["all_pass"] is False


class TestNegativeCommaLists:
    """A comma list whose first value is negative is its flag's value, not an
    option, for each of the four flags that take a point."""

    ARGV = {"pmf": ["pmf", "--q", "0.5,0.1", "--p", "0.5,0.1"],
            "trajectory": ["trajectory", "--q0", "0.5,0.1", "--qT", "0.5,0.1", "--steps", "4"]}
    FLAGS = [("pmf", "--q"), ("pmf", "--p"), ("trajectory", "--q0"), ("trajectory", "--qT")]

    def _run(self, command, flag, value, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"dim": 2}, "kernel": {"h": 0.5, "k_m": 2}}))
        argv = self.ARGV[command] + ["--config", str(path)]
        argv[argv.index(flag) + 1] = value
        return main(argv)

    @pytest.mark.parametrize("command,flag", FLAGS)
    def test_negative_first_value_is_read(self, command, flag, tmp_path, capsys):
        assert self._run(command, flag, "-0.3,0.8", tmp_path) == 0
        payload = json.loads(capsys.readouterr().out)
        if command == "pmf":
            got = payload[flag[2:]]
        else:
            got = payload["positions"][0 if flag == "--q0" else -1]
        assert got == [-0.3, 0.8]

    @pytest.mark.parametrize("command,flag", FLAGS)
    def test_non_numeric_value_exit_2_naming_flag(self, command, flag, tmp_path, capsys):
        assert self._run(command, flag, "-0.3,x", tmp_path) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"{flag} must hold numbers" in out.err


class TestTrajectory:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"target": {"kind": "standard_gaussian", "dim": 1}, "kernel": {"h": 0.5}})
        )
        rc = main(["trajectory", "--config", str(path), "--q0", "1.0", "--qT", "-0.3", "--steps", "4"])
        assert rc == 0
        sol = json.loads(capsys.readouterr().out)
        assert sol["roundtrip_error"] <= 1e-10

    @pytest.mark.parametrize("diag, h, rc_want", [(0.1, 0.5, 2), (10.0, 1.0, 0)])
    def test_condition_uses_configured_mass(self, diag, h, rc_want, tmp_path, capsys):
        # L1 = 1 / diag here: L1 h^2 = 2.5 violates 2(1 - cos(pi/4)) = 0.59,
        # and 0.1 meets it, though the identity-mass L1 h^2 = 1 would not
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "target": {"kind": "standard_gaussian", "dim": 1},
            "kernel": {"h": h, "mass": {"kind": "diagonal", "diag": [diag]}},
        }))
        rc = main(["trajectory", "--config", str(path), "--q0", "1.0", "--qT", "-0.3", "--steps", "4"])
        assert rc == rc_want
        out = capsys.readouterr()
        if rc_want == 2:
            assert "step-size condition violated" in out.err
        else:
            assert json.loads(out.out)["roundtrip_error"] <= 1e-10

    def test_boundary_step_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"target": {"kind": "standard_gaussian", "dim": 1}, "kernel": {"h": 2.0**0.5}}
            )
        )
        rc = main(["trajectory", "--config", str(path), "--q0", "1.0", "--qT", "0.0", "--steps", "2"])
        assert rc == 2

    def test_diverging_iteration_exit_1(self, tmp_path, capsys):
        # the double well has no global L1, so nothing is checked up front;
        # the fixed-point iteration overflows and is reported, not printed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"kind": "double_well", "dim": 1},
                                    "kernel": {"h": 1.0}}))
        rc = main(["trajectory", "--config", str(path), "--q0", "3.0", "--qT", "-3.0",
                   "--steps", "8"])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == "" and "no convergence" in out.err

    def test_overflowing_interpolant_exit_1(self, tmp_path, capsys):
        # each endpoint's energy is finite, but the norm of the straight line
        # between them overflows: no convergence, not a trajectory whose
        # residual reads 0 against an infinite scale
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"dim": 2}, "kernel": {"h": 0.5}}))
        rc = main(["trajectory", "--config", str(path), "--q0", "1.3e154,0",
                   "--qT", "1.3e154,0", "--steps", "4"])
        assert rc == 1
        out = capsys.readouterr()
        assert out.out == "" and "no convergence" in out.err

    @pytest.mark.parametrize(
        "q0,q_t,flag",
        [("nan", "0.0", "--q0"), ("abc", "0.0", "--q0"), ("1,2", "0.0", "--q0"),
         # finite, but the energy at p = 0 is not: a divergent endpoint
         ("1e200", "0.0", "--q0"), ("0.0", "1e200", "--qT")],
        ids=["nan", "abc", "1,2", "q0_energy_overflows", "qT_energy_overflows"],
    )
    def test_bad_endpoint_exit_2_naming_flag(self, q0, q_t, flag, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": {"dim": 1}, "kernel": {"h": 0.5}}))
        rc = main(["trajectory", "--config", str(path), "--q0", q0, "--qT", q_t, "--steps", "4"])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == "" and flag in out.err


class TestConditions:
    def test_worked_pairs(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"conditions": {"l1": 1.0, "h": 1.0, "t": 2, "k_m": 1, "m1": 1.0, "a1": 1.0}})
        )
        rc = main(["conditions", "--config", str(path)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["trajectory_uniqueness"]["pass"] is True
        assert rep["tail_step_bound"]["s_bar"] == pytest.approx(0.227158, abs=1e-5)

    def test_missing_constants_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"conditions": {"l1": 1.0}}))
        assert main(["conditions", "--config", str(path)]) == 2

    def test_seed_flag_is_a_usage_error(self, tmp_path):
        # the validators draw nothing, so there is no seed to take
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"conditions": {"l1": 1.0, "h": 0.1, "k_m": 1}}))
        with pytest.raises(SystemExit) as exc:
            main(["conditions", "--config", str(path), "--seed", "3"])
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "conditions,key",
        [
            ({"l1": "x"}, "conditions.l1"),
            ({"l1": -1.0, "h": 0.1, "k_m": 1}, "conditions.l1"),
            ({"l1": 1.0, "h": 0.1, "t": 0}, "conditions.t"),
            ({"l1": 1.0, "h": 0.1, "k_m": 1.5}, "conditions.k_m"),
            ([1.0], "conditions"),
            ({"l1": 1.0, "h": 0.1, "k_m": 1, "require": ["doubling_stabilty"]},
             "conditions.require"),
            ({"l1": 1.0, "h": 0.1, "k_m": 1, "require": "doubling_stability"},
             "conditions.require"),
            ({"l1": True, "h": 0.1, "k_m": 1}, "conditions.l1"),
            ({"l1": 1.0, "h": 0.1, "k_m": True}, "conditions.k_m"),
        ],
        ids=["l1_not_a_number", "l1_negative", "t_zero", "k_m_fractional", "not_an_object",
             "require_misspelt", "require_not_a_list", "l1_true", "k_m_true"],
    )
    def test_bad_conditions_exit_2_naming_key(self, conditions, key, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"conditions": conditions}))
        assert main(["conditions", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_overflowing_doubling_value_fails_the_condition(self, tmp_path, capsys):
        # (1 + x)^(2^20) overflows a float at h = 1e-3: the condition fails
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"conditions": {"l1": 1.0, "h": 1e-3, "k_m": 20, "require": ["doubling_stability"]}}
        ))
        assert main(["conditions", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["doubling_stability"]["pass"] is False


class TestRepeatedCalls:
    def test_second_call_in_one_process_gives_the_same_codes_and_bytes(self, gauss2_config,
                                                                      tmp_path, capsys):
        # main builds its parser once per process and shares it between calls
        pmf_config = tmp_path / "pmf.json"
        pmf_config.write_text(json.dumps({"target": {"dim": 2}, "kernel": {"h": 0.4, "k_m": 6}}))
        out = tmp_path / "s.csv"
        summary = Path(str(out) + ".summary.json")

        def run(argv):
            for path in (out, summary):
                path.unlink(missing_ok=True)
            try:
                rc = main(argv)
            except SystemExit as exc:  # a usage error, from argparse
                rc = exc.code
            streams = capsys.readouterr()
            files = [out.read_bytes()] if out.exists() else []
            if summary.exists():
                files.append({k: v for k, v in json.loads(summary.read_text()).items()
                              if k not in ("wall_time_s", "grad_evals_per_s")})
            return rc, streams.out, streams.err, files

        pmf = ["pmf", "--config", str(pmf_config), "--q", "0.3,-0.2", "--seed", "5"]
        for argv, rc in ((["sample", "--config", gauss2_config, "--out", str(out)], 0),
                         (["verify", "--suite", "conditions"], 0), (pmf, 0),
                         (["sample", "--chains", "two"], 2)):
            first = run(argv)
            assert first[0] == rc and any(first[1:])
            assert run(argv) == first


class TestBench:
    def test_smoke(self, capsys):
        rc = main(["bench", "--dim", "10", "--steps", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nuts_iterative" in out and "grad-evals/s" in out
        # the rate is of transitions, as the header counts them
        assert "transitions/s" in out and "steps/s" not in out

    @pytest.mark.parametrize("flag,value", [("--dim", "0"), ("--steps", "-1"),
                                            ("--dim", "1000000000000000")])
    def test_bad_size_exit_2_naming_flag(self, flag, value, capsys):
        assert main(["bench", flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_d100_throughput_pin(self):
        # about 4 000 transitions/s at the benchmark's reference CPU speed
        # (perfbench/clock.py); pin the documented budget of 1e4 NUTS
        # transitions within 60 s with margin
        import time

        import numpy as np

        from dynhmc.kernels import KernelConfig, make_kernel
        from dynhmc.targets import MassMatrix, builtin_target

        target = builtin_target("standard_gaussian", 100)
        cfg = KernelConfig("nuts_iterative", h=0.25, mass=MassMatrix.identity(100), k_m=8)
        kernel = make_kernel(target, cfg)
        rng = np.random.default_rng(0)
        q = np.zeros(100)
        t0 = time.perf_counter()
        for _ in range(10_000):
            q, _ = kernel(q, rng)
        assert time.perf_counter() - t0 < 60.0
