"""Config parsing, rate fitting, presets, CLI exit codes, determinism."""

import ast
import hashlib
import importlib.util
import inspect
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import kvicsek
from kvicsek.cli import _collect_options, build_parser, main
from kvicsek.config import parse_config, resolve_options, write_csv, write_manifest
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
        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = ExperimentConfig(
                preset="agents",
                options={"n": "256", "t_end": "1.0", "dt": "0.02", "snapshot_every": "25"},
                out_dir=out,
                seed=2,
            )
            paths = run_preset(cfg)
            digests.append(hashlib.sha256((out / "agents.csv").read_bytes()).hexdigest())
            dumps = [p for p in paths if p.suffix == ".bin"]
            assert dumps
            payload = dumps[0].read_bytes()
            header, _, rest = payload.partition(b"\n")
            meta = json.loads(header)
            assert meta["n"] == 256
            assert len(rest) == 256 * 3 * 8
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
            ["homogeneous", "--set", "kapa=0.5"],
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
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
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
