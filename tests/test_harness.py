"""Config parsing, rate fitting, presets, CLI exit codes, determinism."""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import platform
import re
import resource
import shlex
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kvicsek
from kvicsek.cli import _collect_options, build_parser, main
from kvicsek.config import (
    _format_cell, due, parse_config, resolve_options, step_count, step_times, write_csv, write_manifest,
)
from kvicsek.errors import ConfigError, NumericsError
from kvicsek.fitting import fit_rate
from kvicsek.linear import ModeState, measure_ed_rate, mixing_curve
from kvicsek.presets import PRESETS, ExperimentConfig, run_preset
from kvicsek.spectral import AngularProfile

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


class TestFitRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        slope, stderr = fit_rate(t, np.exp(-3.0 * t))
        assert abs(slope + 3.0) < 1e-10
        assert stderr < 1e-10

    def test_exact_power_law_loglog(self):
        t = np.linspace(1.0, 50.0, 300)
        slope, stderr = fit_rate(t, t**-0.5, loglog=True)
        assert abs(slope + 0.5) < 1e-10

    def test_noisy_exponential_within_three_stderr(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 5.0, 400)
        vals = np.exp(-2.0 * t) * np.exp(rng.normal(0.0, 0.01, t.size))
        slope, stderr = fit_rate(t, vals)
        assert abs(slope + 2.0) < 3.0 * stderr

    def test_window_restriction(self):
        t = np.linspace(0.0, 10.0, 500)
        vals = np.exp(-np.where(t < 5.0, 1.0, 2.0) * t)
        slope, _ = fit_rate(t, vals, window=(6.0, 10.0))
        assert abs(slope + 2.0) < 0.2

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            fit_rate(np.arange(5.0), np.exp(-np.arange(5.0)))

    def test_nonpositive_values(self):
        t = np.linspace(0.0, 1.0, 20)
        vals = np.exp(-t)
        vals[3] = 0.0
        with pytest.raises(ValueError):
            fit_rate(t, vals)


class TestConfig:
    def test_parse_roundtrip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nkappa = 0.3\n nu=1e-2  # inline\n\nname = sweep a\n")
        cfg = parse_config(p)
        assert cfg == {"kappa": "0.3", "nu": "1e-2", "name": "sweep a"}

    def test_parse_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("kappa 0.3\n")
        with pytest.raises(ConfigError):
            parse_config(p)
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "missing.cfg")
        # a key given twice, in either spelling, is not last-wins
        p.write_text("nu = 0.1\nt-end = 0.2\nt_end = 0.1\nnu = 0.2\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:3: key 't_end' given twice, on lines 2 and 3"):
            parse_config(p)

    def test_options_coercion(self):
        table = {"a": 0.5, "b": 1, "g": (4, 4, 4)}
        o = resolve_options({"a": "1.5", "b": "7", "g": "8,8,16"}, table)
        assert o["a"] == 1.5
        assert o["b"] == 7
        assert o["g"] == (8, 8, 16)
        with pytest.raises(ConfigError):
            resolve_options({"a": "x"}, table)

    def test_csv_formatting(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [(1.0 / 3.0, 2), (0.1, True)])
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("0.3333333333333333")
        assert lines[2] == "0.10000000000000001,1"

    def test_csv_float_rows_match_per_cell_formatting(self, tmp_path):
        # rows of floats alone take one joined format string; the bytes are those of _format_cell
        x = 1.0 / 3.0
        rows = [
            (x, np.float64(x), -0.0, np.float64(-0.0)),
            (float("nan"), np.nan, np.inf, -np.inf),
            (1e300, np.float64(5e-324), -2.5, np.float64(1e-7)),
            (x, 2, np.float64(x), True),
            (np.bool_(True), np.bool_(False), False, -0.0),
            (np.int64(-3), np.nan, 10**20, -np.inf),
        ]
        header = ["a", "b", "c", "d"]
        p = write_csv(tmp_path / "t.csv", header, iter(rows))
        want = "\n".join([",".join(header)] + [",".join(_format_cell(c) for c in row) for row in rows]) + "\n"
        assert p.read_bytes() == want.encode()
        assert p.read_text().splitlines()[1:3] == [
            "0.33333333333333331,0.33333333333333331,-0,-0",
            "nan,nan,inf,-inf",
        ]

    def test_manifest_written_with_fields(self, tmp_path):
        path = write_manifest(tmp_path, "kinetic", 3, {"nu": 0.1})
        data = json.loads(path.read_text())
        assert data["preset"] == "kinetic"
        assert data["seed"] == 3
        assert data["config"]["nu"] == 0.1
        assert "code_version" in data and "timestamp" in data


def _csv_rows(path: Path) -> list[list[float]]:
    return [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]


class TestPresets:
    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            run_preset(ExperimentConfig(preset="nope", out_dir=tmp_path))

    def test_manifest_before_data(self, tmp_path):
        cfg = ExperimentConfig(
            preset="homogeneous",
            options={"t_end": "0.5", "n_theta": "64", "dt": "0.01"},
            out_dir=tmp_path,
            seed=1,
        )
        run_preset(cfg)
        man = tmp_path / "manifest.json"
        csv = tmp_path / "homogeneous.csv"
        assert man.exists() and csv.exists()
        assert man.stat().st_mtime_ns <= csv.stat().st_mtime_ns

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = ExperimentConfig(
                preset="homogeneous",
                options={"t_end": "2.0", "n_theta": "64", "dt": "0.01"},
                out_dir=out,
                seed=5,
            )
            run_preset(cfg)
            digests.append(hashlib.sha256((out / "homogeneous.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_agents_deterministic_and_snapshots(self, tmp_path):
        # the SDE runs on the one clock and cadence: step_times, and due for samples and snapshots
        dt, n = 0.02, step_count(1.0, 0.02)
        times = step_times(0.0, dt, n)
        steps = np.arange(n + 1)
        saved = steps[due(steps, n, 25) & (steps > 0)]
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = ExperimentConfig(
                preset="agents",
                options={"n": "256", "t_end": "1.0", "dt": str(dt), "snapshot_every": "25"},
                out_dir=out,
                seed=2,
            )
            paths = run_preset(cfg)
            digests.append(hashlib.sha256((out / "agents.csv").read_bytes()).hexdigest())
            dumps = sorted(out.glob("agents_*.bin"))
            assert [p for p in paths if p.suffix == ".bin"] == dumps
            assert [p.name for p in dumps] == [f"agents_{m:08d}.bin" for m in saved]
            for m, dump in zip(saved, dumps):
                header, _, rest = dump.read_bytes().partition(b"\n")
                meta = json.loads(header)
                assert meta["n"] == 256
                assert meta["time"] == times[m]
                assert len(rest) == 256 * 3 * 8
            t = np.array([row[0] for row in _csv_rows(out / "agents.csv")])
            assert np.array_equal(t, times[due(steps, n, 5)])
        assert digests[0] == digests[1]

    def test_phase_diagram_structure(self, tmp_path):
        cfg = ExperimentConfig(
            preset="phase-diagram",
            options={"t_end": "20", "dt": "0.02", "n_theta": "64", "ratio_steps": "12"},
            out_dir=tmp_path,
            seed=0,
        )
        run_preset(cfg)
        lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()
        assert lines[0] == "ratio,r2,final_abs_m,stable"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 12
        for ratio_s, r2_s, _m, stable_s in rows:
            ratio, r2 = float(ratio_s), float(r2_s)
            if ratio <= 2.0:
                assert r2 == 0.0
                assert stable_s == "1"
            else:
                assert r2 > 0.0
                assert stable_s == "0"

    def test_linear_ed_preset_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            preset="linear-ed",
            options={"nu_list": "1e-2", "n_theta": "128", "horizon_factor": "5"},
            out_dir=tmp_path,
        )
        paths = run_preset(cfg)
        rates = (tmp_path / "rates.csv").read_text().splitlines()
        assert rates[0] == "k1,k2,nu,rate,stderr"
        assert len(rates) == 2
        series = (tmp_path / "mode_k1_0_nu0.01.csv").read_text().splitlines()
        assert series[0] == "t,norm_L2,norm_Hm1,F_hypo,F_lower,F_upper,zeta"

    def test_mixing_preset_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            preset="mixing",
            options={"nu": "1e-2", "n_theta": "128", "horizon": "10", "dt": "0.05"},
            out_dir=tmp_path,
        )
        run_preset(cfg)
        assert (tmp_path / "mixing_slopes.csv").exists()

    def test_linear_ed_rates_are_the_library_fits(self, tmp_path):
        options = {"k_list": "1,0;1,1", "nu_list": "0.5,1e-2", "n_theta": "64"}
        run_preset(ExperimentConfig(preset="linear-ed", options=options, out_dir=tmp_path))
        eta0 = AngularProfile.from_function(np.cos, 64)
        states = [ModeState(k=k, eta=eta0, t=0.0, nu=nu) for k in ((1, 0), (1, 1)) for nu in (0.5, 1e-2)]
        expected = [[*s.k, s.nu, f.rate, f.stderr] for s, f in zip(states, measure_ed_rate(states))]
        assert _csv_rows(tmp_path / "rates.csv") == expected

    def test_mixing_slopes_are_the_library_fits(self, tmp_path):
        options = {"k_list": "1,0;0,2", "nu": "1e-2", "n_theta": "128", "horizon": "10"}
        run_preset(ExperimentConfig(preset="mixing", options=options, out_dir=tmp_path))
        eta0 = AngularProfile.from_function(np.cos, 128)
        states = [ModeState(k=k, eta=eta0, t=0.0, nu=1e-2) for k in ((1, 0), (0, 2))]
        curves = mixing_curve(states, horizon=10.0, dt=0.05)
        expected = [[*s.k, s.nu, c.slope, c.stderr] for s, c in zip(states, curves)]
        assert _csv_rows(tmp_path / "mixing_slopes.csv") == expected

    def test_compare_positive_smoke(self, tmp_path):
        cfg = ExperimentConfig(
            preset="compare",
            options={"n": "2048", "t_end": "6.0", "band": "0.2", "dt_sde": "0.02"},
            out_dir=tmp_path,
            seed=1,
        )
        run_preset(cfg)
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "t,abs_m_pde,abs_m_sde,diff"
        assert len(lines) > 10

    def test_compare_band_violation_raises(self, tmp_path):
        cfg = ExperimentConfig(
            preset="compare",
            options={"n": "512", "t_end": "4.0", "band": "1e-6"},
            out_dir=tmp_path,
            seed=0,
        )
        with pytest.raises(NumericsError):
            run_preset(cfg)


# Edge values of the options, at reduced sizes: the exit code and a piece of stderr
_EDGE_VALUES = [
    (["homogeneous", "--dt", "1e-300"], 2, "more than 1e+09 steps"),
    (["kinetic", "--grid", "8,8,32", "--dt", "1e-300"], 2, "more than 1e+09 steps"),
    (["kinetic", "--grid", "8,8,32", "--t-end", "1e300"], 2, "more than 1e+09 steps"),
    (["agents", "--dt", "1e-300", "--t-end", "1e300"], 2, "more than 1e+09 steps"),
    (["mixing", "--dt", "1e-10"], 2, "more than 1e+09 steps"),
    (["linear-ed", "--nu-list", "1e-20"], 2, "more than 1e+09 steps"),
    (["mixing", "--dt", "1e-320"], 2, "no finite number of steps"),
    (["kinetic", "--grid", "8,8,16", "--eps-rel", "1.5"], 2, "eps_rel 1.5 gives an initial density with min f"),
    (["kinetic", "--grid", "8,8,16", "--eps-rel", "-3"], 2, "eps_rel -3.0 gives an initial density with min f"),
    (["kinetic", "--grid", "4,4,8", "--t-end", "0.1", "--sigma", "1e-160"], 2, "sigma 1e-160 is too small: the bump"),
    (["kinetic", "--grid", "4,4,8", "--t-end", "0.1", "--sigma", "1e-154"], 2, "sigma 1e-154 is too small: the bump"),
    (["agents", "--phi", "bump", "--sigma", "1e-160"], 2, "sigma 1e-160 is too small: the bump"),
    (["agents", "--phi", "bump", "--sigma", "1e-154"], 2, "sigma 1e-154 is too small: the bump"),
    (["kinetic", "--grid", "4,4,8", "--t-end", "0.1", "--sigma", "1e-100"], 2, "no Fourier series"),
    (["kinetic", "--grid", "4,4,8", "--t-end", "0.1", "--sigma", "0.01"], 2, "no Fourier series"),
    (["agents", "--phi", "bump", "--sigma", "1e-100"], 2, "no Fourier series"),
    (["linear-ed", "--k-list", "1"], 2, "k_list entry '1' is not two integers"),
    (["linear-ed", "--k-list", "1,0,0"], 2, "k_list entry '1,0,0' is not two integers"),
    (["linear-ed", "--k-list", "a,0"], 2, "k_list entry 'a,0' is not two integers"),
    (["homogeneous", "--n-theta", "4"], 3, "Fisher information requires a positive density"),
    (["phase-diagram", "--n-theta", "4", "--ratio-steps", "3", "--t-end", "0.1"], 0, ""),
    (["phase-diagram", "--n-theta", "6", "--ratio-steps", "3", "--t-end", "0.1"], 0, ""),
    (["phase-diagram", "--n-theta", "8", "--ratio-steps", "3", "--t-end", "0.1"], 0, ""),
]



# Every option of every preset at edge values, each probe at these reduced sizes.
_PROBE_SIZES = {
    "linear-ed": {"n_theta": "16", "nu_list": "1e-2", "horizon_factor": "2"},
    "mixing": {"n_theta": "16", "nu": "1e-2"},
    "kinetic": {"grid": "4,4,8", "t_end": "0.1"},
    "homogeneous": {"n_theta": "16", "t_end": "0.1"},
    "phase-diagram": {"n_theta": "16", "ratio_steps": "3", "t_end": "0.1"},
    "agents": {"n": "16", "n_theta": "16", "n_x": "4", "t_end": "0.1"},
    "compare": {"n": "16", "n_theta": "16", "t_end": "0.1", "band": "1"},
}
# options that size an array: their edge is the smallest size, never a huge one
_SIZE_OPTIONS = {"grid", "n_theta", "n", "n_x", "ratio_steps", "checkpoints"}


def _edge_values(option: str, default: object) -> list[str]:
    """Tiny and huge positive numbers, zero, the smallest grids and a sign flip (which the
    range rule rejects where the option allows none), as text of the option's type."""
    if isinstance(default, tuple):
        return ["1,1,1", "1,1,2", "2,2,2", "2,2,-8"]
    if isinstance(default, int):
        return ["0", "1", "2", "3", "-1"] + ([] if option in _SIZE_OPTIONS else ["1000000000"])
    if isinstance(default, str):
        return ["1e-300", "1e300", "0", "-" + default]
    return ["1e-300", "1e300", "0", "-1"]


def _preset_probes() -> list[list[str]]:
    probes = []
    for name, preset in sorted(PRESETS.items()):
        for option, default in preset.options.items():
            for value in _edge_values(option, default):
                opts = {**_PROBE_SIZES[name], option: value}
                probes.append([name, *(f"--{k.replace('_', '-')}={v}" for k, v in opts.items())])
    return probes


class _ProbeTimeout(Exception):
    pass


@contextlib.contextmanager
def _bounded(seconds: float, extra_bytes: int):
    """Raise _ProbeTimeout after ``seconds``, and cap the address space ``extra_bytes`` above its size now."""

    def expire(signum, frame):
        raise _ProbeTimeout(f"ran past {seconds} s")

    statm = Path("/proc/self/statm")
    limits = resource.getrlimit(resource.RLIMIT_AS)
    if statm.exists():
        cap = int(statm.read_text().split()[0]) * resource.getpagesize() + extra_bytes
        if limits[1] != resource.RLIM_INFINITY:
            cap = min(cap, limits[1])
        resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        resource.setrlimit(resource.RLIMIT_AS, limits)


class TestCli:
    def test_unknown_preset_exit_2(self, capsys):
        assert main(["definitely-not-a-preset"]) == 2

    def test_bad_option_exit_2(self, tmp_path):
        assert main(["homogeneous", "--out", str(tmp_path), "--t-end", "abc"]) == 2

    def test_numerics_exit_3(self, tmp_path):
        code = main([
            "compare", "--out", str(tmp_path), "--n", "512",
            "--t-end", "4.0", "--band", "1e-6",
        ])
        assert code == 3

    def test_nan_order_parameter_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr("kvicsek.agents.order_parameter", lambda e: complex(np.nan, np.nan))
        code = main(["compare", "--out", str(tmp_path), "--n", "64", "--t-end", "0.2", "--band", "0.5"])
        assert code == 3

    def test_io_error_exit_4(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = main(["homogeneous", "--out", str(target), "--t-end", "0.2",
                     "--n-theta", "64", "--dt", "0.01"])
        assert code == 4

    @pytest.mark.parametrize("sigma", ["0.005", "0", "-1"])
    def test_agents_bad_width_exit_2_before_output(self, tmp_path, capsys, sigma):
        out = tmp_path / "ag"
        code = main(["agents", "--out", str(out), "--phi", "bump", "--sigma", sigma])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["kinetic", "--grid", "31,32,16"],
            ["kinetic", "--kappa", "2"],
            ["phase-diagram", "--n-theta", "7"],
            ["linear-ed", "--nu-list", "0", "--n-theta", "32"],
            ["homogeneous", "--nu", "-1"],
            ["compare", "--n-theta", "7"],
            ["mixing", "--k-list", "0,0"],
            ["mixing", "--nu", "1e-2", "--horizon", "100"],
            ["compare", "--nu", "-1"],
            ["agents", "--nu", "-1"],
            ["agents", "--n", "0"],
            ["agents", "--dt", "0"],
            ["agents", "--n-x", "2"],
            ["kinetic", "--dt", "nan"],
            ["homogeneous", "--t-end", "nan"],
            ["kinetic", "--sample-every", "0"],
            ["homogeneous", "--sample-every", "0"],
            ["linear-ed", "--horizon-factor", "0"],
            ["phase-diagram", "--ratio-steps", "0"],
            ["homogeneous", "--config", "unknown_key.cfg"],
            ["homogeneous", "--config", "bad_seed.cfg"],
            ["homogeneous", "--n-theta", "64", "--dt", "5", "--t-end", "1"],
            ["kinetic", "--grid", "8,8,16", "--dt", "1", "--t-end", "0.3"],
            ["agents", "--n", "64", "--dt", "1", "--t-end", "0.2"],
            ["phase-diagram", "--n-theta", "32", "--ratio-steps", "3", "--dt", "5", "--t-end", "1"],
            ["compare", "--dt-sde", "5", "--t-end", "1"],
            ["linear-ed", "--nu-list", "1e-2", "--n-theta", "64", "--horizon-factor", "0.5"],
            ["mixing", "--nu", "1e-2", "--n-theta", "64", "--horizon", "0.5"],
            ["linear-ed", "--nu-list", "1e-2,0.01,1.0000001e-2", "--n-theta", "64"],
            ["mixing", "--k-list", "1,0;1,0", "--nu", "1e-2", "--n-theta", "64", "--horizon", "10"],
            ["homogeneous", "--ratio", "-0.4", "--t-end", "1"],
            ["agents", "--kappa", "-1", "--n", "256", "--t-end", "0.2"],
        ],
    )
    def test_bad_option_exit_2_before_output(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("bad_seed.cfg").write_text("seed = abc\n")
        Path("unknown_key.cfg").write_text("kapa = 0.5\n")
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["1.2", "-1.5"])
    @pytest.mark.parametrize("preset", ["homogeneous", "phase-diagram", "agents"])
    def test_initial_density_not_positive_exit_2_before_output(self, tmp_path, capsys, preset, amplitude):
        # perturbed_profile promises a density > 0: an |amplitude| past about 1 breaks it at build
        out = tmp_path / "run"
        assert main([preset, "--amplitude", amplitude, "--t-end", "0.05", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"amplitude {float(amplitude)!r}" in err and "min g" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code, message", _EDGE_VALUES, ids=[" ".join(v[0]) for v in _EDGE_VALUES])
    def test_edge_values_exit_with_their_code(self, tmp_path, capsys, argv, code, message):
        # a run length the clock cannot hold and an f0 not > 0 exit 2 with no
        # file; a ValueError inside a run exits 3; a small angular grid runs
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        if code == 2:
            assert not out.exists()
        if argv[0] == "phase-diagram":
            # for Psi = sin only l = 1 decides: stable iff ratio <= 2 (ratios 0.5, 3.25, 6)
            assert [row[-1] for row in _csv_rows(out / "phase_diagram.csv")] == [1.0, 0.0, 0.0]

    def test_every_option_at_edge_values_exits_0_2_or_3(self, tmp_path, capsys):
        # generated from PRESETS; each probe is bounded in time and memory
        # a sigma whose square underflows is named at build, before Phi is evaluated
        failures = []
        for j, argv in enumerate(_preset_probes()):
            out = tmp_path / str(j)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    with _bounded(5.0, 2**30):
                        code = main([*argv, f"--out={out}"])
                except Exception as exc:  # what the CLI would end with exit 1 and a traceback
                    code = f"1 ({type(exc).__name__}: {exc})"
            std = capsys.readouterr()
            if code not in (0, 2, 3):
                failures.append(f"{argv}: exit {code}")
            elif "Traceback" in std.err + std.out:
                failures.append(f"{argv}: traceback printed")
            elif code == 2 and out.exists():
                failures.append(f"{argv}: exit 2 left {sorted(p.name for p in out.iterdir())}")
            elif "--sigma=1e-300" in argv and (
                code != 2
                or "config error: sigma 1e-300 is too small: sigma^2 underflows to 0" not in std.err
                or any(issubclass(w.category, RuntimeWarning) for w in caught)
            ):
                failures.append(f"{argv}: exit {code}, {std.err.strip()!r}, {[str(w.message) for w in caught]}")
        assert not failures, "\n".join(failures)

    def test_options_come_only_from_config_and_flags(self, tmp_path, capsys):
        # there is no --set: a config file and the flags are the two sources
        out = tmp_path / "run"
        assert main(["homogeneous", "--set", "ratio=2", "--out", str(out)]) == 2
        assert "unrecognized arguments: --set" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, prefix",
        [(["homogeneous", "--rat", "2", "--t-e", "1"], "--rat"), (["kinetic", "--s", "3"], "--s")],
    )
    def test_flags_are_not_abbreviated(self, tmp_path, capsys, argv, prefix):
        # one spelling per flag; --s would also become ambiguous as presets gain options
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {prefix}" in err and "config error:" not in err
        assert not out.exists()

    def test_homogeneous_has_one_spelling_of_kappa(self, tmp_path, capsys):
        # kappa is ratio * nu; a second spelling would let one of them be ignored
        out = tmp_path / "run"
        assert main(["homogeneous", "--ratio", "1", "--kappa", "0.5", "--out", str(out)]) == 2
        assert "--kappa" in capsys.readouterr().err
        assert not out.exists()

    def test_happy_path_kinetic(self, tmp_path, capsys):
        code = main([
            "kinetic", "--out", str(tmp_path), "--grid", "8,8,32",
            "--kappa", "0.02", "--nu", "0.05", "--dt", "0.05", "--t-end", "0.5",
        ])
        assert code == 0
        assert (tmp_path / "kinetic.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_manifest_records_how_the_run_ended(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        environment = {
            "python": platform.python_version(), "numpy": np.__version__, "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"), "MKL_NUM_THREADS": None,
        }
        # kappa = 1e299 breaks the alignment guard at the first step: exit 3 after the manifest
        failed = tmp_path / "failed"
        assert main(["homogeneous", "--ratio", "1e300", "--t-end", "0.05", "--out", str(failed)]) == 3
        record = json.loads((failed / "manifest.json").read_text())
        assert (record["status"], record["exit_code"], record["error"]["class"]) == ("failed", 3, "StepSizeError")
        assert "kappa 1e+299" in record["error"]["message"]
        assert record["wall_s"] > 0 and record["environment"] == environment
        done = tmp_path / "done"
        assert main(["homogeneous", "--n-theta", "16", "--t-end", "0.05", "--out", str(done)]) == 0
        record = json.loads((done / "manifest.json").read_text())
        assert (record["status"], record["exit_code"], record["error"]) == ("complete", 0, None)
        assert record["wall_s"] > 0 and record["environment"] == environment

        # a defect in the run still leaves its record, then the traceback exits 1
        def defect(*args, **kwargs):
            raise RuntimeError("defect in the run")

        monkeypatch.setattr("kvicsek.homogeneous.evolve_homogeneous", defect)
        crashed = tmp_path / "crashed"
        with pytest.raises(RuntimeError, match="defect in the run"):
            main(["homogeneous", "--n-theta", "16", "--t-end", "0.05", "--out", str(crashed)])
        record = json.loads((crashed / "manifest.json").read_text())
        assert (record["status"], record["exit_code"], record["error"]["class"]) == ("failed", 1, "RuntimeError")
        # a configuration error writes no file, and leaves an earlier run's record alone
        before = (done / "manifest.json").read_bytes()
        assert main(["homogeneous", "--nu", "-1", "--out", str(done)]) == 2
        assert (done / "manifest.json").read_bytes() == before
        assert main(["homogeneous", "--nu", "-1", "--out", str(tmp_path / "bad")]) == 2
        assert not (tmp_path / "bad").exists()

    def test_config_file_with_cli_override(self, tmp_path):
        for name, text in [
            ("run.cfg", "t_end = 0.2\nn_theta = 64\ndt = 0.01\nratio = 1.0\n"),
            ("dashes.cfg", "t-end = 0.2\nn-theta = 64\ndt = 0.01\nratio = 1.0\n"),
        ]:
            cfgfile = tmp_path / name
            cfgfile.write_text(text)
            out = tmp_path / f"out_{name}"
            code = main([
                "homogeneous", "--config", str(cfgfile), "--out", str(out), "--ratio", "1.5",
            ])
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["ratio"] == 1.5
            assert manifest["config"]["t_end"] == 0.2
            assert manifest["config"]["n_theta"] == 64

    def test_readme_examples_are_accepted(self):
        block = README.read_text().split("## Command line", 1)[1].split("```")[1]
        commands = [
            shlex.split(line.split("#", 1)[0])
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("kvicsek")
        ]
        assert {argv[1] for argv in commands} == set(PRESETS)
        for argv in commands:
            args = build_parser().parse_args(argv[1:])
            resolve_options(_collect_options(args), PRESETS[args.preset].options)

    def test_readme_library_example_binds_to_the_api(self):
        tree = ast.parse(README.read_text().split("```python", 1)[1].split("```", 1)[0])
        names = {
            alias.asname or alias.name: getattr(kvicsek, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "kvicsek"
            for alias in node.names
        }
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names
        ]
        assert {call.func.id for call in calls} == set(names)
        for call in calls:
            inspect.signature(names[call.func.id]).bind(
                *[None] * len(call.args), **{kw.arg: None for kw in call.keywords}
            )


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, annotations (also quoted ones) included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        ann
        for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if ann is not None
    ]
    for node in (n for ann in annotations for n in ast.walk(ann)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as -> "AngularProfile"
            quoted = ast.parse(node.value, mode="eval")
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    source = (
        "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c, d\n"
        "def f(u: 'list[a]') -> 'd':\n    'c'\n    return sys\n"
    )
    assert _unused_imports(source) == ["c (line 3)", "os (line 2)"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (ROOT / "src" / "kvicsek").glob("*.py") if p.name != "__init__.py")
)
def test_package_modules_have_no_unused_imports(module):
    # __init__.py is exempt: its imports are the package's public names
    assert _unused_imports((ROOT / "src" / "kvicsek" / module).read_text()) == []


STEP_FUNCTIONS = frozenset({"em_step", "step_kinetic", "split_step"})


def _step_loops(source: str) -> list[str]:
    """Loops (``for``, ``while`` or a comprehension) that call a step function, as 'function (line n)'.

    A call is ``f(...)`` or ``obj.f(...)`` with f in STEP_FUNCTIONS, anywhere
    in the loop; the function is the dotted path of the defs around the loop
    (``<module>`` outside any), and only the outermost of nested loops is named.
    """
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []

    def calls_a_step(node):
        return any(
            isinstance(n, ast.Call)
            and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)) in STEP_FUNCTIONS
            for n in ast.walk(node)
        )

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        if isinstance(node, loops) and calls_a_step(node):
            found.append((node.lineno, function))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return [f"{function} (line {line})" for line, function in sorted(found)]


def test_step_loops_detected():
    source = (
        "import agents as ag\n"
        "def a(e, n):\n"
        "    for _ in range(n):\n        e = ag.em_step(e, 0.1)\n"
        "    return e\n"
        "def b(f, t):\n"
        "    while t < 1:\n        for s in (1, 2):\n            f = step_kinetic(f, s)\n        t += 1\n"
        "    return [split_step(g) for g in f]\n"
        "def c(stack, run):\n"
        "    step = lambda s: [ag.em_step(s.pop(), 0.1)]\n"
        "    for x in stack:\n        run(step, x)\n"
        "    def d(e):\n        while True:\n            e = em_step(e)\n"
        "    return em_step\n"
        "for k in range(3):\n    step_kinetic(k)\n"
    )
    assert _step_loops(source) == [
        "a (line 3)", "b (line 7)", "b (line 11)", "c.d (line 17)", "<module> (line 20)",
    ]


def test_presets_hold_no_step_loop():
    # every run steps on spectral.evolve_rows, the one run loop: a preset
    # passes it a stepper and never loops over a step function itself
    assert _step_loops((ROOT / "src" / "kvicsek" / "presets.py").read_text()) == []


def _unset_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """Parameters with a default that no call in ``callers`` passes, as 'module:function(param)'.

    ``modules`` maps a module name to its source; every ``def`` in it counts, methods
    and nested functions too (dataclass fields are not parameters).  A call matches
    a def by name, as ``f(...)``, ``obj.f(...)`` or ``partial(f, ...)``; a method's
    positional arguments start after ``self``.  A ``*args`` or ``**kwargs`` at a call
    passes every parameter of its kind.
    """
    def called(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    calls: dict[str, list[tuple[float, set]]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if called(func) == "partial" and args:
                func, args = args[0], args[1:]
            name = called(func)
            n_positional = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
            calls.setdefault(name, []).append((n_positional, {k.arg for k in node.keywords}))
    unset = []
    for module, source in modules.items():
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            first = 1 if id(node) in methods and not static else 0
            defaults = [
                (i - first, p) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)
            ]
            defaults += [(math.inf, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for index, param in defaults:
                passed = (param in kw or None in kw or index < n for n, kw in calls.get(node.name, []))
                if not any(passed):
                    unset.append(f"{module}:{node.name}({param})")
    return sorted(unset)


def test_unset_defaults_detected():
    module = (
        "import functools\n"
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "def h(y=0):\n    pass\n"
        "class K:\n"
        "    def m(self, u, v=0):\n        pass\n"
        "    def n(self, w=0):\n        pass\n"
    )
    callers = [
        module,
        "f(1, c=3)\nfunctools.partial(g, 5)\nh(**{})\nk.m(1)\nk.n(1)\n",
    ]
    assert _unset_defaults({"mod": module}, callers) == ["mod:f(b)", "mod:f(d)", "mod:m(v)"]


def test_every_parameter_default_has_a_caller():
    # a default that no call sets is a knob with no use: make it a constant or drop it
    modules = {p.name: p.read_text() for p in sorted((ROOT / "src" / "kvicsek").glob("*.py"))}
    callers = [p.read_text() for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert _unset_defaults(modules, callers) == []


_BLAS_CALLS = {"matmul", "dot", "tensordot", "inner", "vdot"}


def _gemms_outside(source: str, blocks: str) -> list[str]:
    """Matrix products in source that are not in the body of a ``for`` over ``blocks(...)``.

    A matrix product is ``@``, a call to one of ``_BLAS_CALLS`` (as ``f(...)``
    or ``obj.f(...)``), or an ``einsum`` with ``optimize=``, which may hand
    its contraction to BLAS.
    """
    tree = ast.parse(source)
    exempt = {
        id(node)
        for loop in ast.walk(tree)
        if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
        and isinstance(loop.iter.func, ast.Name) and loop.iter.func.id == blocks
        for statement in loop.body
        for node in ast.walk(statement)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name in _BLAS_CALLS or (name == "einsum" and any(k.arg == "optimize" for k in node.keywords)):
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_gemms_outside_the_block_loops_detected():
    source = (
        "import numpy as np\n"
        "def f(a, b, out):\n"
        "    for block in blocks(len(a), 4):\n        out += a[block] @ b\n        np.matmul(a, b, out=out)\n"
        "    for block in other(len(a)):\n        out += a[block] @ b\n"
        "    c = a @ b\n    c @= b\n"
        "    return np.dot(a, b) + a.vdot(b) + np.einsum('ij,jk', a, b, optimize=True)\n"
        "def g(a, b):\n    return np.einsum('ij,ij->i', a, b) + np.matmul(a, b) + np.linalg.norm(a)\n"
    )
    assert _gemms_outside(source, "blocks") == [
        "@ (line 7)", "@ (line 8)", "@ (line 9)", "dot (line 10)", "einsum (line 10)", "vdot (line 10)",
        "matmul (line 12)",
    ]


def test_matrix_products_only_over_agent_blocks():
    # a GEMM above OpenBLAS's threading bound goes to its pool, where for the drift's
    # narrow shapes the hand-off costs more than the product: agents._agent_blocks
    # chooses the blocks, and every product must run over them
    found = {
        p.name: _gemms_outside(p.read_text(), "_agent_blocks")
        for p in sorted((ROOT / "src" / "kvicsek").glob("*.py"))
    }
    assert {name: products for name, products in found.items() if products} == {}


def _reflections(source: str) -> list[str]:
    """Hand-made maps k -> -k in source: ``np.flip`` calls and negated ``np.arange`` calls."""

    def is_np(node, attr):
        func = node.func if isinstance(node, ast.Call) else None
        return (isinstance(func, ast.Attribute) and func.attr == attr
                and isinstance(func.value, ast.Name) and func.value.id == "np")

    found = []
    for node in ast.walk(ast.parse(source)):
        if is_np(node, "flip"):
            found.append((node.lineno, "np.flip"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and is_np(node.operand, "arange"):
            found.append((node.lineno, "-np.arange"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_reflections_outside_mirror_detected():
    source = (
        "import numpy as np\n"
        "def f(a, n):\n"
        "    b = np.roll(np.flip(a, axis=0), 1, axis=0)\n"
        "    return a[(-np.arange(n)) % n] + np.arange(n) - np.arange(-n, 0) + a[::-1] + flip(a)\n"
    )
    assert _reflections(source) == ["np.flip (line 3)", "-np.arange (line 4)"]


def test_mirror_is_the_only_reflection():
    # spectral.mirror is the one map k -> -k: a flip or a negated index
    # range elsewhere is a second layout of the conjugate reflection
    found = {p.name: _reflections(p.read_text()) for p in sorted((ROOT / "src" / "kvicsek").glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _lru_caches(source: str) -> list[str]:
    """Functions decorated with ``lru_cache`` or ``cache`` (bare, called, or via ``functools.``), nested ones too."""

    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    found = [
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(name(d) in {"lru_cache", "cache"} for d in node.decorator_list)
    ]
    return [f"{fn} (line {line})" for line, fn in sorted(found)]


def test_lru_caches_outside_spectral_detected():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(n):\n    return n\n"
        "@functools.lru_cache\n"
        "def b(n):\n"
        "    @lru_cache(maxsize=1)\n"
        "    def c(m):\n        return m\n"
        "    return c\n"
        "@cache\n"
        "def d(n):\n    return lru_cache(n)\n"
        "@functools.cached_property\n"
        "def e(self):\n    return cache(self)\n"
    )
    assert _lru_caches(source) == ["a (line 4)", "b (line 7)", "c (line 9)", "d (line 13)"]


def test_step_tables_are_cached_only_in_spectral():
    # spectral builds and caches the tables a step reads, one per stack: a
    # second cache elsewhere is a second copy of a table, or a table no step reads
    found = {p.name: _lru_caches(p.read_text()) for p in sorted((ROOT / "src" / "kvicsek").glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits and name != "spectral.py"} == {}
    assert found["spectral.py"]


def _unread_exports(init: str, readers: list[str]) -> list[str]:
    """Names ``init`` binds by import that no reader reads, as ``name`` or ``obj.name``.

    A read inside the def or class of the name itself, or of another
    unread export, does not count.
    """
    exports = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    reads = []  # (name, the defs and classes around the read)

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None:
            reads.append((name, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for source in readers:
        visit(ast.parse(source), frozenset())
    unread = []
    while True:  # each pass can only add to the unread names, so this ends
        dead = set(unread)
        read = {name for name, inside in reads if name not in inside and not inside & dead}
        now = [name for name in exports if name not in read]
        if now == unread:
            return unread
        unread = now


def test_unread_exports_detected():
    init = "from .a import f, g, h as k, C, E\nfrom .b import D\n"
    readers = [
        "def f(n):\n    return f(n - 1)\n",  # only its own def reads f
        "class C:\n    def m(self):\n        return C(), E()\n",  # only C, itself unread, reads E
        "def u():\n    return pkg.g(1), k\n",
        "x: D = D()\n",
    ]
    assert _unread_exports(init, readers) == ["f", "C", "E"]


# Exports that README documents for library users though no package module,
# bench workload or the library example reads them.
DOCUMENTED_EXPORTS = {"speed_decaying"}


def test_every_export_is_read_outside_the_tests():
    # an export only the tests call is test code in the package: it belongs in tests/
    package = ROOT / "src" / "kvicsek"
    readers = [p.read_text() for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    readers += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    readers.append(README.read_text().split("```python", 1)[1].split("```", 1)[0])  # the library example
    unread = _unread_exports((package / "__init__.py").read_text(), readers)
    assert sorted(set(unread) - DOCUMENTED_EXPORTS) == []
    assert all(f"`{name}`" in README.read_text() for name in DOCUMENTED_EXPORTS)


def _uses(source: str, name: str) -> list[str]:
    """Imports of ``name`` and reads of it, as ``name`` or ``obj.name`` (a call or a ``partial``); its ``def`` is not one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            found.append((node.lineno, "import"))
        elif name in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append((node.lineno, "read"))
    return [f"{kind} (line {line})" for line, kind in sorted(found)]


def test_uses_of_a_function_detected():
    source = (
        "from functools import partial\n"
        "from .spectral import diffusion_factor as heat, mirror\n"
        "from . import spectral\n"
        "def diffusion_factor(n):\n    return n\n"
        "a = spectral.diffusion_factor(8, 0.1, 0.01)\n"
        "b = partial(diffusion_factor, 8)\n"
        "c = diffusion_factors(8) + 'diffusion_factor'\n"
    )
    assert _uses(source, "diffusion_factor") == ["import (line 2)", "read (line 6)", "read (line 7)"]


def test_only_spectral_builds_the_diffusion_table():
    # split_step builds the diffusion table of its step: a layer that
    # builds one splits the step itself
    found = {p.name: _uses(p.read_text(), "diffusion_factor") for p in sorted((ROOT / "src" / "kvicsek").glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits and name != "spectral.py"} == {}
    assert found["spectral.py"]


def _loops(source: str, function: str) -> list[str]:
    """The ``for`` and ``while`` statements inside the top-level function ``function``, nested functions included."""
    tree = ast.parse(source)
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return [
        f"{type(n).__name__.lower()} (line {n.lineno})"
        for n in ast.walk(body) if isinstance(n, (ast.For, ast.AsyncFor, ast.While))
    ]


def test_loops_of_a_function_detected():
    source = (
        "def f(xs):\n"
        "    def g():\n        while True:\n            break\n"
        "    return [x for x in xs]\n"
        "def h(xs):\n    for x in xs:\n        pass\n"
    )
    assert _loops(source, "f") == ["while (line 3)"]
    assert _loops(source, "h") == ["for (line 7)"]


def test_kinetic_run_has_no_loop_of_its_own():
    # run_experiment steps on spectral.evolve_rows, the one run loop of the three PDE layers
    assert _loops((ROOT / "src" / "kvicsek" / "kinetic.py").read_text(), "run_experiment") == []


def test_kinetic_never_calls_due():
    # evolve_rows' cadences place the kinetic samples and snapshots
    assert _uses((ROOT / "src" / "kvicsek" / "kinetic.py").read_text(), "due") == []


_TRANSCENDENTALS = {"cos", "sin", "exp"}


def _theta_transcendentals(source: str, cls: str, keeper: str) -> list[str]:
    """np.cos / np.sin / np.exp calls whose arguments read ``.theta``, outside method ``keeper`` of ``cls``."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == cls
        for f in c.body if isinstance(f, ast.FunctionDef) and f.name == keeper
        for node in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt or not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _TRANSCENDENTALS
                and isinstance(func.value, ast.Name) and func.value.id == "np"):
            continue
        arguments = node.args + [k.value for k in node.keywords]
        if any(isinstance(n, ast.Attribute) and n.attr == "theta" for a in arguments for n in ast.walk(a)):
            found.append((node.lineno, node.col_offset, func.attr))
    return [f"np.{name} (line {line})" for line, _, name in sorted(found)]


def test_theta_transcendentals_outside_the_heading_detected():
    source = (
        "import numpy as np\n"
        "class E:\n"
        "    def heading(self):\n        return np.exp(1j * self.theta)\n"
        "    def other(self):\n        return np.cos(self.theta)\n"
        "def f(e, u):\n"
        "    return np.sin(e.theta[0]) + np.exp(-1j * u) + np.cos(x=2 * e.theta) + math.cos(e.theta)\n"
    )
    assert _theta_transcendentals(source, "E", "heading") == ["np.cos (line 6)", "np.sin (line 8)", "np.cos (line 8)"]


def test_agents_evaluate_theta_only_in_the_heading():
    # exp(i theta) is computed once per ensemble value; cos, sin and exp(-i theta) are read off it
    source = (ROOT / "src" / "kvicsek" / "agents.py").read_text()
    assert _theta_transcendentals(source, "AgentEnsemble", "heading") == []


def _third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in source that are not in the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def _fresh_packages(statement: str) -> set[str]:
    """Top-level packages in sys.modules after statement runs in a fresh interpreter."""
    src = str(Path(kvicsek.__file__).resolve().parent.parent)
    probe = f"import sys\n{statement}\nprint(' '.join({{m.split('.')[0] for m in sys.modules}}))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    return set(out.stdout.split())


def test_third_party_imports_and_fresh_packages_detected():
    source = (
        "from __future__ import annotations\nimport os, numpy.fft as f\n"
        "from scipy import special\nfrom . import spectral\n"
    )
    assert _third_party_imports(source) == {"numpy", "scipy"}
    assert "scipy" in _fresh_packages("import scipy.special")


def test_runtime_dependencies_are_the_package_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    modules = (ROOT / "src" / "kvicsek").glob("*.py")
    imported = set().union(*(_third_party_imports(p.read_text()) for p in modules))
    assert imported == declared


def test_import_loads_no_scipy():
    assert "scipy" not in _fresh_packages("import kvicsek")


def test_import_reads_no_package_metadata():
    # the version is one literal, config.CODE_VERSION; a metadata lookup
    # cost every process's import ~24 ms and failed when not installed
    src = str(Path(kvicsek.__file__).resolve().parent.parent)
    probe = "import sys, kvicsek\nprint(sorted(m for m in sys.modules if m.startswith('importlib.metadata')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.split() == ["[]"]


def test_one_version_string(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["dynamic"] == ["version"] and "version" not in pyproject["project"]
    module, _, name = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    assert getattr(importlib.import_module(module), name) == kvicsek.__version__
    manifest = json.loads(write_manifest(tmp_path, "kinetic", 0, {}).read_text())
    assert manifest["code_version"] == kvicsek.__version__


def _bench_workloads():
    """bench/workloads.py, imported from its file (bench/ is not a package)."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("size", ["smoke", "full"])
@pytest.mark.parametrize("name", ["kinetic", "sweep", "agents", "compare"])
def test_bench_workload_matches_reference(tmp_path, name, size):
    """Each bench workload at seed 0 passes its output checks and its recorded reference."""
    workloads = _bench_workloads()
    workload = workloads.WORKLOADS[name]
    out = workload.run(workload.setup(0, workload.sizes[size], tmp_path))
    assert workload.check(out, workload.sizes[size]) == []
    ref = json.loads((ROOT / "bench" / "reference" / f"{name}-{size}.json").read_text())
    assert workloads.compare_reference(workloads.output_tables(out), ref) == []
