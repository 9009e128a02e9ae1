import json
import re
import subprocess
import sys

import pytest
from conftest import cli_env

from deepesn.cli import dump_report, main, strip_timing
from deepesn.config import (
    DEFAULTS,
    build_grid_spec,
    build_ip_config,
    build_reservoir_config,
    resolve_config,
)
from deepesn.data import make_synthetic_dataset, save_dataset
from deepesn.errors import ConfigError


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("DEEPESN_SEED", "DEEPESN_WORKERS", "DEEPESN_OUT"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "ds.json"
    save_dataset(make_synthetic_dataset(seed=3), path)
    return str(path)


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


SMALL = {
    "reservoir": {"n_layers": 2, "units_per_layer": 20, "connectivity": 0.2},
    "readout": {"ridge": 1e-3},
    "grid": {
        "spectral_radii": [0.5, 0.9],
        "leaky_rates": [0.5],
        "input_scalings": [1.0],
        "ridges": [1e-3, 1e-1],
        "n_guesses": 2,
    },
}


# JSON has no NaN or infinity, but Python's json reads and writes them
# as NaN and Infinity.
NAN, INF = float("nan"), float("inf")

# One case per rule a configuration file can break: (id, file content,
# pattern the error message must match once the file's path is removed).
REJECTED_CONFIGS = [
    ("top-level-list", [1], r"top level"),
    ("section-not-object", {"reservoir": 5}, r"reservoir"),
    ("unknown-top-level", {"bogus": 1}, r"bogus"),
    ("unknown-reservoir", {"reservoir": {"bogus": 1}}, r"reservoir.*bogus"),
    ("unknown-ip", {"ip": {"bogus": 1}}, r"ip.*bogus"),
    ("unknown-readout", {"readout": {"bogus": 1}}, r"readout.*bogus"),
    ("unknown-grid", {"grid": {"bogus": 1}}, r"grid.*bogus"),
    ("preset-not-string", {"preset": 5}, r"preset"),
    ("dataset-not-string", {"dataset": 5}, r"dataset"),
    ("string-for-number", {"reservoir": {"leaky_rate": "0.5"}},
     r"reservoir\.leaky_rate"),
    ("bool-for-integer", {"reservoir": {"n_layers": True}},
     r"reservoir\.n_layers"),
    ("enabled-not-bool", {"ip": {"enabled": 1}}, r"ip\.enabled"),
    ("tune-threshold-not-bool", {"readout": {"tune_threshold": "yes"}},
     r"readout\.tune_threshold"),
    ("grid-entry-not-list", {"grid": {"ridges": 0.1}}, r"grid\.ridges"),
    ("grid-item-not-number", {"grid": {"ridges": ["a"]}}, r"grid\.ridges"),
    ("seed-minimum", {"seed": -1}, r"seed"),
    ("workers-minimum", {"workers": 0}, r"workers"),
    ("washout-minimum", {"washout": -1}, r"washout"),
    ("n-layers-minimum", {"reservoir": {"n_layers": 0}}, r"reservoir\.n_layers"),
    ("units-minimum", {"reservoir": {"units_per_layer": 0}},
     r"reservoir\.units_per_layer"),
    ("leaky-rate-exclusive-minimum", {"reservoir": {"leaky_rate": 0}},
     r"reservoir\.leaky_rate"),
    ("leaky-rate-maximum", {"reservoir": {"leaky_rate": 1.5}},
     r"reservoir\.leaky_rate"),
    ("radius-exclusive-minimum", {"reservoir": {"spectral_radius": 0}},
     r"reservoir\.spectral_radius"),
    ("radius-maximum", {"reservoir": {"spectral_radius": 1.5}},
     r"reservoir\.spectral_radius"),
    ("input-scaling-exclusive-minimum", {"reservoir": {"input_scaling": 0}},
     r"reservoir\.input_scaling"),
    ("connectivity-exclusive-minimum", {"reservoir": {"connectivity": 0}},
     r"reservoir\.connectivity"),
    ("connectivity-maximum", {"reservoir": {"connectivity": 1.5}},
     r"reservoir\.connectivity"),
    ("target-std-exclusive-minimum", {"ip": {"target_std": 0}},
     r"ip\.target_std"),
    ("learning-rate-exclusive-minimum", {"ip": {"learning_rate": 0}},
     r"ip\.learning_rate"),
    ("epochs-minimum", {"ip": {"epochs": 0}}, r"ip\.epochs"),
    ("ridge-minimum", {"readout": {"ridge": -1}}, r"readout\.ridge"),
    ("threshold-minimum", {"readout": {"threshold": -0.1}},
     r"readout\.threshold"),
    ("threshold-maximum", {"readout": {"threshold": 1.1}},
     r"readout\.threshold"),
    ("grid-radius-exclusive-minimum", {"grid": {"spectral_radii": [0]}},
     r"grid\.spectral_radii"),
    ("grid-radius-maximum", {"grid": {"spectral_radii": [1.5]}},
     r"grid\.spectral_radii"),
    ("grid-leaky-rate-exclusive-minimum", {"grid": {"leaky_rates": [0]}},
     r"grid\.leaky_rates"),
    ("grid-leaky-rate-maximum", {"grid": {"leaky_rates": [1.5]}},
     r"grid\.leaky_rates"),
    ("grid-input-scaling-exclusive-minimum", {"grid": {"input_scalings": [0]}},
     r"grid\.input_scalings"),
    ("grid-ridge-minimum", {"grid": {"ridges": [-1]}}, r"grid\.ridges"),
    ("n-guesses-minimum", {"grid": {"n_guesses": 0}}, r"grid\.n_guesses"),
    ("empty-radii", {"grid": {"spectral_radii": []}}, r"grid\.spectral_radii"),
    ("empty-leaky-rates", {"grid": {"leaky_rates": []}}, r"grid\.leaky_rates"),
    ("empty-input-scalings", {"grid": {"input_scalings": []}},
     r"grid\.input_scalings"),
    ("empty-ridges", {"grid": {"ridges": []}}, r"grid\.ridges"),
    ("input-scaling-nan", {"reservoir": {"input_scaling": NAN}},
     r"reservoir\.input_scaling must be finite"),
    ("input-scaling-infinite", {"reservoir": {"input_scaling": INF}},
     r"reservoir\.input_scaling must be finite"),
    ("target-mean-nan", {"ip": {"target_mean": NAN}}, r"ip\.target_mean"),
    ("target-mean-infinite", {"ip": {"target_mean": -INF}}, r"ip\.target_mean"),
    ("target-std-nan", {"ip": {"target_std": NAN}}, r"ip\.target_std"),
    ("target-std-infinite", {"ip": {"target_std": INF}}, r"ip\.target_std"),
    ("learning-rate-nan", {"ip": {"learning_rate": NAN}}, r"ip\.learning_rate"),
    ("learning-rate-infinite", {"ip": {"learning_rate": INF}},
     r"ip\.learning_rate"),
    ("ridge-nan", {"readout": {"ridge": NAN}}, r"readout\.ridge"),
    ("ridge-infinite", {"readout": {"ridge": INF}}, r"readout\.ridge .*inf\)"),
    ("grid-input-scaling-nan", {"grid": {"input_scalings": [NAN]}},
     r"grid\.input_scalings"),
    ("grid-input-scaling-infinite", {"grid": {"input_scalings": [INF]}},
     r"grid\.input_scalings"),
    ("grid-ridge-nan", {"grid": {"ridges": [NAN]}}, r"grid\.ridges"),
    ("grid-ridge-infinite", {"grid": {"ridges": [INF]}}, r"grid\.ridges"),
]


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config(env={})
        assert cfg == DEFAULTS

    def test_preset_overrides_defaults(self):
        cfg = resolve_config(preset="deepesn-paper", env={})
        assert cfg["reservoir"]["n_layers"] == 30
        assert cfg["reservoir"]["units_per_layer"] == 200
        assert cfg["ip"]["enabled"] is True
        # untouched fields keep their defaults
        assert cfg["reservoir"]["leaky_rate"] == 1.0

    def test_esn_preset(self):
        cfg = resolve_config(preset="esn-paper", env={})
        assert cfg["reservoir"]["n_layers"] == 1
        assert cfg["reservoir"]["units_per_layer"] == 6000

    def test_file_overrides_preset(self, tmp_path):
        path = write_config(
            tmp_path,
            {"preset": "deepesn-paper", "reservoir": {"n_layers": 3}},
        )
        cfg = resolve_config(path, env={})
        assert cfg["reservoir"]["n_layers"] == 3
        assert cfg["reservoir"]["units_per_layer"] == 200  # still the preset

    def test_env_overrides_file(self, tmp_path):
        path = write_config(tmp_path, {"seed": 5, "workers": 3})
        cfg = resolve_config(path, env={"DEEPESN_SEED": "9"})
        assert cfg["seed"] == 9
        assert cfg["workers"] == 3

    def test_flags_override_env(self, tmp_path):
        path = write_config(tmp_path, {"seed": 5})
        cfg = resolve_config(
            path, env={"DEEPESN_SEED": "9", "DEEPESN_WORKERS": "8"},
            seed=2, workers=4, dataset="d.json",
        )
        assert cfg["seed"] == 2
        assert cfg["workers"] == 4
        assert cfg["dataset"] == "d.json"

    def test_rejects_bad_env(self):
        with pytest.raises(ConfigError, match="DEEPESN_SEED"):
            resolve_config(env={"DEEPESN_SEED": "nine"})

    def test_rejects_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            resolve_config(preset="nope", env={})

    def test_rejects_schema_violation(self, tmp_path):
        path = write_config(tmp_path, {"reservoir": {"n_layers": 0}})
        with pytest.raises(ConfigError, match="reservoir.n_layers"):
            resolve_config(path, env={})

    def test_rejects_unknown_key(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            resolve_config(path, env={})

    @pytest.mark.parametrize(
        "obj, pattern",
        [case[1:] for case in REJECTED_CONFIGS],
        ids=[case[0] for case in REJECTED_CONFIGS],
    )
    def test_rejection_table(self, tmp_path, obj, pattern):
        path = write_config(tmp_path, obj)
        with pytest.raises(ConfigError) as info:
            resolve_config(path, env={})
        assert re.search(pattern, str(info.value).replace(path, ""))

    @pytest.mark.parametrize(
        "obj, key",
        [({"reservoir": {"n_layers": 2.0}}, "reservoir.n_layers"),
         ({"seed": 3.0}, "seed")],
        ids=["n_layers", "seed"],
    )
    def test_rejects_integral_float(self, tmp_path, obj, key):
        # JSON Schema counts 2.0 as an integer; the reservoir cannot
        path = write_config(tmp_path, obj)
        with pytest.raises(ConfigError, match=re.escape(key)):
            resolve_config(path, env={})

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="not valid JSON"):
            resolve_config(str(path), env={})


class TestBuilders:
    def test_reservoir_config(self):
        cfg = resolve_config(env={})
        rc = build_reservoir_config(cfg, input_dim=24)
        assert rc.input_dim == 24
        assert rc.units_per_layer == 100
        assert rc.seed == 0

    def test_radius_boundary_clipped(self):
        cfg = resolve_config(env={})
        cfg["reservoir"]["spectral_radius"] = 1.0
        rc = build_reservoir_config(cfg, input_dim=4)
        assert 0.0 < rc.spectral_radius_target < 1.0

    def test_ip_disabled_is_none(self):
        assert build_ip_config(resolve_config(env={})) is None

    def test_ip_enabled(self):
        cfg = resolve_config(preset="deepesn-paper", env={})
        ip = build_ip_config(cfg)
        assert ip is not None and ip.target_std == 0.1

    def test_grid_spec(self):
        grid = build_grid_spec(resolve_config(env={}))
        assert grid.n_configs == 432


class TestReportHelpers:
    def test_strip_timing_recursive(self):
        report = {
            "timing": {"seconds": 1.0},
            "trials": [{"x": 1, "timing": {"seconds": 2.0}}],
            "nested": {"timing": {"seconds": 3.0}, "keep": True},
        }
        stripped = strip_timing(report)
        assert stripped == {"trials": [{"x": 1}], "nested": {"keep": True}}
        # the original is untouched
        assert "timing" in report

    def test_dump_report_canonical(self):
        text = dump_report({"b": 1, "a": {"d": 2, "c": 3}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')


class TestMainCommands:
    def test_validate_data(self, dataset_file, capsys):
        assert main(["validate-data", dataset_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True
        assert report["summary"]["dim"] == 24

    def test_validate_data_rejects_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": 1}')
        assert main(["validate-data", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_writes_report(self, dataset_file, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "report.json")
        code = main(["run", dataset_file, "--config", cfg, "--seed", "1",
                     "--out", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["kind"] == "run"
        assert report["config"]["seed"] == 1
        assert 0.0 <= report["results"]["test_acc"] <= 1.0
        assert report["timing"]["seconds"] > 0

    def test_run_report_deterministic_after_strip(self, dataset_file, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        texts = []
        for name in ("r1.json", "r2.json"):
            out = str(tmp_path / name)
            assert main(["run", dataset_file, "--config", cfg, "--out", out]) == 0
            texts.append(dump_report(strip_timing(json.loads(open(out).read()))))
        assert texts[0] == texts[1]

    def test_grid_reports_trials_and_best(self, dataset_file, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = str(tmp_path / "grid.json")
        code = main(["grid", dataset_file, "--config", cfg, "--workers", "2",
                     "--out", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["kind"] == "grid"
        assert len(report["trials"]) == 8
        assert report["best"]["mean_valid_acc"] > 0.5
        assert all("timing" in t for t in report["trials"])

    def test_out_env_variable(self, dataset_file, tmp_path, monkeypatch):
        out = tmp_path / "env_report.json"
        monkeypatch.setenv("DEEPESN_OUT", str(out))
        assert main(["validate-data", dataset_file]) == 0
        assert json.loads(out.read_text())["valid"] is True

    @pytest.mark.parametrize("command", ["run", "grid"])
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_unwritable_destination_exits_2_before_work(
        self, dataset_file, tmp_path, capsys, monkeypatch, command, via_env
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the destination was checked")

        monkeypatch.setattr("deepesn.cli.run_model", no_work)
        monkeypatch.setattr("deepesn.cli.grid_search", no_work)
        out = str(tmp_path / "no" / "such" / "dir" / "r.json")
        argv = [command, dataset_file, "--config", write_config(tmp_path, SMALL)]
        if via_env:
            monkeypatch.setenv("DEEPESN_OUT", out)
        else:
            argv += ["--out", out]
        assert main(argv) == 2
        assert out in capsys.readouterr().err

    def test_directory_destination_exits_2(self, dataset_file, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        assert main(["run", dataset_file, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        assert main(["run", str(tmp_path / "nope.json"), "--config", cfg]) == 2

    def test_no_dataset_anywhere_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        assert main(["run", "--config", cfg]) == 2
        assert "no dataset" in capsys.readouterr().err

    def test_bad_config_exits_2(self, dataset_file, tmp_path):
        cfg = write_config(tmp_path, {"bogus": True})
        assert main(["run", dataset_file, "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "command, flags, env, key",
        [("run", ["--seed", "-1"], {}, "seed"),
         ("grid", ["--workers", "0"], {}, "workers"),
         ("grid", [], {"DEEPESN_WORKERS": "-3"}, "workers")],
        ids=["seed-flag", "workers-flag", "workers-env"],
    )
    def test_bad_flag_or_env_exits_2(
        self, dataset_file, tmp_path, capsys, monkeypatch, command, flags, env,
        key,
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cfg = write_config(tmp_path, SMALL)
        assert main([command, dataset_file, "--config", cfg, *flags]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-data", "run"])
    def test_non_utf8_file_exits_2(self, dataset_file, tmp_path, capsys, command):
        path = tmp_path / "noise.bin"
        path.write_bytes(bytes(range(128, 256)))  # 0x80 cannot start UTF-8
        if command == "validate-data":
            argv = ["validate-data", str(path)]
        else:
            argv = ["run", dataset_file, "--config", str(path)]
        assert main(argv) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_washout_without_training_step_exits_2(
        self, dataset_file, tmp_path, capsys
    ):
        cfg = write_config(tmp_path, {**SMALL, "washout": 1000})
        assert main(["run", dataset_file, "--config", cfg]) == 2
        assert "washout" in capsys.readouterr().err

    def test_washout_without_valid_step_exits_2(
        self, dataset_file, tmp_path, capsys
    ):
        # the longest valid sequence of the seed-3 dataset has 56 frames
        cfg = write_config(tmp_path, {**SMALL, "washout": 55})
        assert main(["run", dataset_file, "--config", cfg]) == 2
        assert "washout 55 leaves no valid step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "valid", [[], [[[1]], [[2, 3]]]], ids=["empty", "single-frames"]
    )
    def test_split_without_a_step_exits_2(self, dataset_file, tmp_path, capsys, valid):
        # the format allows such a split; no washout can make it usable
        with open(dataset_file, encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["splits"]["valid"] = valid
        path = tmp_path / "short.json"
        path.write_text(json.dumps(obj))
        assert main(["validate-data", str(path)]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, SMALL)
        assert main(["run", str(path), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "no valid sequence has two frames" in err
        assert "washout" not in err

    def test_grid_without_successful_trial_exits_1(
        self, dataset_file, tmp_path, capsys
    ):
        cfg = write_config(tmp_path, {**SMALL, "washout": 1000})
        out = tmp_path / "grid.json"
        code = main(["grid", dataset_file, "--config", cfg, "--workers", "1",
                     "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["best"] is None
        assert report["trials"]
        assert all(t["status"] == "failed" for t in report["trials"])
        assert "error: no grid trial succeeded" in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, dataset_file, tmp_path, capsys):
        # 5 units at 1% connectivity leaves zero recurrent weights,
        # which only surfaces when the reservoir is built
        cfg = write_config(
            tmp_path,
            {"reservoir": {"units_per_layer": 5, "connectivity": 0.01}},
        )
        assert main(["run", dataset_file, "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, dataset_file):
        proc = subprocess.run(
            [sys.executable, "-m", "deepesn", "validate-data", dataset_file],
            env=cli_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["valid"] is True

    def test_config_errors_without_jsonschema(self, tmp_path):
        cfg = write_config(tmp_path, {"reservoir": {"n_layers": 0}})
        script = (
            "import sys\n"
            "sys.modules['jsonschema'] = None\n"
            "import deepesn.cli\n"
            "from deepesn.config import resolve_config\n"
            "from deepesn.errors import ConfigError\n"
            "try:\n"
            "    resolve_config(sys.argv[1], env={})\n"
            "except ConfigError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    sys.exit('no ConfigError')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, cfg],
            env=cli_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "reservoir.n_layers" in proc.stdout
