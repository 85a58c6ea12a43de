import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import threshold_arena
import threshold_arena.arena as arena_mod
from threshold_arena import (
    AdversarySpec,
    GameConfig,
    Trajectory,
    register_adversary,
    register_algorithm,
    run_game,
    write_trajectory_csv,
)
from threshold_arena.adversaries import Adversary, save_sample_sequence
from threshold_arena.arena import trajectory_csv_header, trajectory_csv_text
from threshold_arena.cli import main, parse_component
from threshold_arena.estimators import MidpointBaseline


class TestSpecParsing:
    def test_bare_name(self):
        assert parse_component("cdfest") == ("cdfest", {})

    def test_positional_value(self):
        assert parse_component("point-mass:1") == ("point-mass", {"j": 1})
        assert parse_component("quantile:0.75") == ("quantile", {"tau": 0.75})

    def test_key_values(self):
        name, params = parse_component("cdf-lb:epsilon=0.05,sigma=+")
        assert name == "cdf-lb" and params == {"epsilon": 0.05, "sigma": "+"}

    def test_unknown_positional_rejected(self):
        from threshold_arena import ValidationError

        with pytest.raises(ValidationError):
            parse_component("uniform:3")


class TestRun:
    def test_meanest_summary_satisfies_mse_bound(self, tmp_path):
        code = main([
            "run", "--algo", "meanest", "--adv", "uniform", "--n", "16", "--T", "1024",
            "--runs", "500", "--seed", "7", "--out-dir", str(tmp_path), "--workers", "1",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text())
        finals = np.asarray(payload["final_errors"])
        mse = payload["mse"][-1]
        se = np.std(finals**2) / np.sqrt(len(finals))
        assert mse <= 1 / (4 * 1024) + 3 * se
        csv = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "run_id,t,query,feedback,error"
        assert len(csv) == 1 + 500 * 1024

    def test_point_mass_single_round_feedback(self, tmp_path):
        code = main([
            "run", "--algo", "cdfest", "--adv", "point-mass:1", "--n", "2", "--T", "1",
            "--runs", "1", "--seed", "3", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        row = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
        run_id, t, query, feedback, err = row.split(",")
        assert feedback == "1"

    def test_reproducible_bytes(self, tmp_path):
        args = ["run", "--algo", "cdfest", "--adv", "uniform", "--n", "8", "--T", "32",
                "--runs", "20", "--seed", "5", "--workers", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_invalid_family_epsilon_exits_2(self, tmp_path, capsys):
        code = main([
            "run", "--algo", "cdfest", "--adv", "cdf-lb:epsilon=0.3", "--n", "4", "--T", "8",
            "--runs", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "nonnegativity" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()  # no partial output

    def test_missing_field_exits_2(self, tmp_path, capsys):
        assert main(["run", "--algo", "cdfest", "--n", "4", "--T", "8"]) == 2
        assert "--adv" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "algo": "meanest", "adv": "uniform", "n": 8, "T": 64, "runs": 4, "seed": 1,
            "workers": 1,
        }))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--T", "16", "--out-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "summary.json").read_text())
        assert len(payload["mse"]) == 16  # flag wins over file
        assert payload["config"]["seed"] == 1

    @pytest.mark.parametrize(
        "algo", [{"params": {}}, {"name": "cdfest", "params": [1, 2]}], ids=["no-name", "list-params"]
    )
    def test_malformed_config_spec_exits_2(self, tmp_path, capsys, algo):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"algo": algo, "adv": "uniform", "n": 4, "T": 8, "workers": 1}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert "as an algorithm spec" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THRESHOLD_ARENA_SEED", "99")
        env_out = tmp_path / "env"
        flag_out = tmp_path / "flag"
        args = ["run", "--algo", "cdfest", "--adv", "uniform", "--n", "4", "--T", "8",
                "--runs", "2", "--workers", "1"]
        assert main(args + ["--out-dir", str(env_out)]) == 0
        assert main(args + ["--seed", "99", "--out-dir", str(flag_out)]) == 0
        assert (env_out / "trajectory.csv").read_bytes() == (flag_out / "trajectory.csv").read_bytes()

    def test_malformed_env_seed_is_not_read_when_a_seed_is_given(self, tmp_path, monkeypatch):
        args = ["run", "--algo", "cdfest", "--adv", "uniform", "--n", "4", "--T", "8",
                "--runs", "2", "--seed", "5", "--workers", "1"]
        assert main(args + ["--out-dir", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("THRESHOLD_ARENA_SEED", "abc")
        assert main(args + ["--out-dir", str(tmp_path / "env")]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    @pytest.mark.parametrize("eps", ["nan", "-1"])
    def test_invalid_eps_exits_2(self, tmp_path, capsys, eps):
        code = main([
            "run", "--algo", "cdfest", "--adv", "uniform", "--n", "4", "--T", "8",
            "--eps", eps, "--workers", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "epsilon must be a nonnegative number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no summary.json, no CSV

    def test_reveal_samples_column(self, tmp_path):
        code = main([
            "run", "--algo", "cdfest", "--adv", "uniform", "--n", "4", "--T", "4",
            "--runs", "1", "--out-dir", str(tmp_path), "--reveal-samples",
        ])
        assert code == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header.endswith(",sample")


class TestBreaker:
    @pytest.mark.parametrize("baseline", ["midpoint", "halving"])
    def test_breaks_baseline(self, baseline, tmp_path, capsys):
        code = main(["breaker", "--baseline", baseline, "--n", "16", "--T", "160",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "breaker.json").read_text())
        assert report["feedback_identical"] is True
        assert report["max_error"] >= 1 / 16
        assert report["broken"] is True

    def test_randomized_baseline_rejected(self, capsys):
        assert main(["breaker", "--baseline", "cdfest", "--n", "16", "--T", "160"]) == 2

    def test_baseline_that_draws_exits_3(self, capsys):
        class _DrawingMidpoint(MidpointBaseline):  # claims determinism, queries off the rng
            def _query(self, rng):
                return int(rng.integers(1, self.n + 1))

        register_algorithm("drawing-midpoint", lambda p, n, h, rng: _DrawingMidpoint(n))
        assert main(["breaker", "--baseline", "drawing-midpoint", "--n", "16", "--T", "160"]) == 3
        assert "protocol violation" in capsys.readouterr().err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        fields = {"baseline": "halving", "n": 16, "T": 160, "out_dir": str(tmp_path / "file")}
        cfg.write_text(json.dumps(fields))
        assert main(["breaker", "--config", str(cfg)]) == 0
        assert main(["breaker", "--baseline", "halving", "--n", "16", "--T", "160",
                     "--out-dir", str(tmp_path / "flags")]) == 0
        written = (tmp_path / "file" / "breaker.json").read_bytes()
        assert written == (tmp_path / "flags" / "breaker.json").read_bytes()
        cfg.write_text(json.dumps({**fields, "n": "x"}))
        with pytest.raises(SystemExit) as exit_:
            main(["breaker", "--config", str(cfg)])
        assert exit_.value.code == 2
        assert "argument --n: invalid int value: 'x'" in capsys.readouterr().err


class TestReplay:
    def test_round_trip(self, tmp_path):
        seq = tmp_path / "seq.txt"
        save_sample_sequence(seq, [2, 3, 1, 4, 4, 2, 1, 3])
        code = main(["replay", "--file", str(seq), "--algo", "cdfest", "--n", "4",
                     "--runs", "2", "--seed", "4", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "replay.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 8
        payload = json.loads((tmp_path / "replay-summary.json").read_text())
        assert payload["config"]["adversary"]["name"] == "sequence"

    def test_horizon_beyond_file_rejected(self, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        save_sample_sequence(seq, [1, 2])
        code = main(["replay", "--file", str(seq), "--algo", "cdfest", "--n", "4",
                     "--T", "5", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_missing_field_exits_2(self, capsys):
        assert main(["replay", "--algo", "cdfest", "--n", "4"]) == 2
        assert "--file" in capsys.readouterr().err

    def test_zero_runs_exit_2_and_keep_the_earlier_output(self, tmp_path, capsys):
        seq = tmp_path / "seq.txt"
        save_sample_sequence(seq, [2, 3, 1, 4, 4, 2, 1, 3])
        argv = ["replay", "--file", str(seq), "--algo", "cdfest", "--n", "4", "--seed", "4",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert main(argv + ["--runs", "0"]) == 2
        assert "runs must be >= 1" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before

    def test_replay_is_run_against_the_file(self, tmp_path):
        samples = [(5 * t) % 7 + 1 for t in range(30)]
        seq = tmp_path / "seq.txt"
        save_sample_sequence(seq, samples)
        flags = ["--algo", "cdfest", "--n", "6", "--T", "30", "--runs", "33", "--seed", "8",
                 "--reveal-samples"]
        assert main(["replay", "--file", str(seq), *flags, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", "--adv", f"sequence:{seq}", "--workers", "1", *flags,
                     "--out-dir", str(tmp_path / "b")]) == 0
        replayed, run = tmp_path / "a" / "replay.csv", tmp_path / "b" / "trajectory.csv"
        assert replayed.read_bytes() == run.read_bytes()


@pytest.mark.parametrize("command", ["run", "replay"])
def test_config_file_spellings(tmp_path, monkeypatch, command):
    # a config file may spell out_dir, reveal_samples and T as well as the flags
    samples = [(3 * t) % 5 + 1 for t in range(20)]
    seq = tmp_path / "seq.txt"
    save_sample_sequence(seq, samples)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "algo": "cdfest", "adv": "uniform", "file": str(seq), "n": 4, "T": 12, "runs": 2,
        "seed": 3, "workers": 1, "out_dir": str(tmp_path / "out"), "reveal_samples": True,
    }))
    monkeypatch.chdir(tmp_path)  # a wrong spelling would write to ./arena-out
    assert main([command, "--config", str(cfg)]) == 0
    csv_name, json_name = {"run": ("trajectory.csv", "summary.json"),
                           "replay": ("replay.csv", "replay-summary.json")}[command]
    lines = (tmp_path / "out" / csv_name).read_text().splitlines()
    assert lines[0].endswith(",sample") and len(lines) == 1 + 2 * 12
    payload = json.loads((tmp_path / "out" / json_name).read_text())
    assert payload["config"]["horizon"] == 12 and len(payload["mse"]) == 12
    assert not (tmp_path / "arena-out").exists()


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"n": "abc"}, "argument --n: invalid int value: 'abc'"),
        ({"runs": 2.9}, "argument --runs: invalid int value: '2.9'"),
        ({"reveal_samples": "false"}, "config field reveal_samples: expected true or false"),
        (["algo", "cdfest"], "does not hold a JSON object"),
    ],
    ids=["n-text", "runs-float", "switch-text", "list"],
)
def test_malformed_config_file_exits_2(tmp_path, capsys, fields, message):
    # a config field is typed by its flag, so it fails as the flag would
    cfg = tmp_path / "exp.json"
    base = {"algo": "cdfest", "adv": "uniform", "n": 4, "T": 8, "workers": 1}
    cfg.write_text(json.dumps({**base, **fields} if isinstance(fields, dict) else fields))
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MALFORMED_PARAMETERS = {
    "stochastic-cdf-trials-0": (["--algo", "stochastic-cdf:trials=0", "--adv", "uniform"], "trials"),
    "stochastic-cdf-trials-float": (["--algo", "stochastic-cdf:trials=2.5", "--adv", "uniform"], "trials"),
    "stochastic-cdf-budget-text": (["--algo", "stochastic-cdf:budget=x", "--adv", "uniform"], "budget"),
    "stochastic-cdf-budget-negative": (["--algo", "stochastic-cdf:budget=-5", "--adv", "uniform"], "budget"),
    "boosted-delta-text": (["--algo", "boosted:delta=abc", "--adv", "uniform"], "delta"),
    "boosted-copies-float": (["--algo", "boosted:delta=0.1,copies=2.5", "--adv", "uniform"], "copies"),
    "boosted-copies-text": (["--algo", "boosted:delta=0.1,copies=x", "--adv", "uniform"], "copies"),
    "quantile-tau-text": (["--algo", "quantile:tau=abc", "--adv", "uniform"], "tau"),
    "point-mass-j-text": (["--algo", "cdfest", "--adv", "point-mass:j=abc"], "parameter j "),
    "cdf-lb-epsilon-text": (["--algo", "cdfest", "--adv", "cdf-lb:epsilon=abc"], "epsilon"),
    "cdf-lb-sigma-int": (["--algo", "cdfest", "--adv", "cdf-lb:epsilon=0.05,sigma=5"], "sigma"),
    "median-lb-k-text": (["--algo", "cdfest", "--adv", "median-lb:k=abc,m=1,epsilon=0", "--n", "16"], "parameter k "),
    "median-lb-epsilon-text": (
        ["--algo", "cdfest", "--adv", "median-lb:k=4,m=1,epsilon=abc", "--n", "16"], "epsilon"
    ),
    "amplified-t0-text": (["--algo", "cdfest", "--adv", "amplified:inner=uniform,t0=abc"], "t0"),
    "stochastic-pmf-text": (["--algo", "cdfest", "--adv", "stochastic:pmf=abc"], "pmf"),
    "sequence-missing-path": (["--algo", "cdfest", "--adv", "sequence:path=/nonexistent"], "/nonexistent"),
    "sequence-samples-int": (["--algo", "cdfest", "--adv", "sequence:samples=5"], "samples"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_PARAMETERS))
def test_malformed_component_parameter_exits_2(tmp_path, capsys, case):
    flags, parameter = _MALFORMED_PARAMETERS[case]
    out = tmp_path / "out"
    base = ["run", "--n", "8", "--T", "50", "--runs", "1", "--workers", "1", "--out-dir", str(out)]
    assert main(base + flags) == 2  # a later --n overrides the 8
    err = capsys.readouterr().err
    assert err.startswith("invalid specification: ") and parameter in err
    assert not list(out.glob("*"))  # no summary.json, no CSV


def test_replay_of_a_missing_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "missing.txt"
    assert main(["replay", "--file", str(missing), "--algo", "cdfest", "--n", "8",
                 "--out-dir", str(out)]) == 2
    assert f"cannot read sequence file {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_env_seed_names_the_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THRESHOLD_ARENA_SEED", "abc")
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--algo", "cdfest", "--adv", "uniform", "--n", "4", "--T", "8",
              "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed" in err and "THRESHOLD_ARENA_SEED" in err and "'abc'" in err
    assert not (tmp_path / "out").exists()


def test_config_metric_is_checked_against_the_choices(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"algo": "cdfest", "adv": "uniform", "n": 4, "T": 8, "metric": "bogus"}))
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert "config field metric: invalid choice: 'bogus' (choose from 'cdf'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_codes_of_the_process(tmp_path):
    # argparse exits the process itself, which main()-level tests cannot see
    env = {**os.environ, "PYTHONPATH": str(Path(threshold_arena.__file__).parents[1])}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"n": "abc"}))
    base = [sys.executable, "-m", "threshold_arena.cli", "run", "--algo", "cdfest", "--adv",
            "uniform", "--T", "8", "--workers", "1", "--out-dir", str(tmp_path / "out")]
    for extra, code in ((["--n", "4"], 0), (["--n", "abc"], 2), (["--config", str(cfg)], 2)):
        done = subprocess.run(base + extra, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr


@pytest.mark.parametrize(
    "algo,metric", [("cdfest", None), ("cdfest", "median"), ("meanest", None)]
)
def test_csv_equals_export_of_run_game(tmp_path, algo, metric):
    # run and replay export through monte_carlo's chunk workers; their bytes
    # must equal the export of round-loop trajectories for the same seed
    samples = [(3 * t) % 9 + 1 for t in range(40)]
    seq = tmp_path / "seq.txt"
    save_sample_sequence(seq, samples)
    flags = ["--algo", algo, "--n", "8", "--runs", "35", "--seed", "6", "--reveal-samples"]
    flags += ["--metric", metric] if metric else []
    assert main(["run", "--adv", "mirror", "--T", "40", "--workers", "2", *flags,
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["replay", "--file", str(seq), *flags, "--out-dir", str(tmp_path / "replay")]) == 0
    for adversary, produced in (
        ("mirror", tmp_path / "run" / "trajectory.csv"),
        (AdversarySpec("sequence", {"samples": samples}), tmp_path / "replay" / "replay.csv"),
    ):
        config = GameConfig(n=8, horizon=40, algorithm=algo, adversary=adversary, metric=metric, seed=6)
        expected = tmp_path / "expected.csv"
        write_trajectory_csv(expected, [(r, run_game(config, r)) for r in range(35)], reveal_samples=True)
        assert produced.read_bytes() == expected.read_bytes()


class TestComplexity:
    def test_meanest_sweep_table(self, tmp_path):
        code = main(["complexity", "--algo", "meanest", "--adv", "uniform", "--n", "16",
                     "--eps", "0.25", "--runs", "200", "--seed", "2", "--workers", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        table = json.loads((tmp_path / "complexity.json").read_text())
        (cell,) = table["cells"]
        assert cell["resolved"] and 1 <= cell["t_hat"] <= cell["reference_mean_budget"] == 16
        assert cell["reference_cdf_budget"] == int(np.ceil(3 * 16 * np.log(128) / 0.25**2))

    def test_config_file_equals_flags(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "algo": "meanest", "adv": "uniform", "n": "8,16", "eps": 0.25, "runs": 200,
            "seed": 2, "target": 0.8, "t-cap": 4, "workers": 1, "out_dir": str(tmp_path / "file"),
        }))
        assert main(["complexity", "--config", str(cfg)]) == 0
        assert main(["complexity", "--algo", "meanest", "--adv", "uniform", "--n", "8,16",
                     "--eps", "0.25", "--runs", "200", "--seed", "2", "--target", "0.8",
                     "--t-cap", "4", "--workers", "1", "--out-dir", str(tmp_path / "flags")]) == 0
        file_table, flag_table = (tmp_path / d / "complexity.json" for d in ("file", "flags"))
        assert file_table.read_bytes() == flag_table.read_bytes()
        cells = json.loads(file_table.read_text())["cells"]
        assert [cell["n"] for cell in cells] == [8, 16]
        assert not any(cell["resolved"] for cell in cells)  # the file's t-cap held

    @pytest.mark.parametrize("from_file", [False, True])
    def test_malformed_n_list_exits_2(self, tmp_path, capsys, from_file):
        argv = ["complexity", "--algo", "meanest", "--adv", "uniform", "--eps", "0.25"]
        if from_file:
            cfg = tmp_path / "exp.json"
            cfg.write_text(json.dumps({"n": "8,x"}))
            argv += ["--config", str(cfg)]
        else:
            argv += ["--n", "8,x"]
        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--out-dir", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert "argument --n: invalid comma-separated int value: '8,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("t_cap", ["0", "-5"])
    def test_cap_below_one_exits_2(self, tmp_path, capsys, t_cap):
        code = main(["complexity", "--algo", "cdfest", "--adv", "uniform", "--n", "8",
                     "--eps", "0.2", "--t-cap", t_cap, "--workers", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"t_cap must be >= 1, got {t_cap}" in capsys.readouterr().err
        assert not (tmp_path / "complexity.json").exists()

    def test_unreachable_target_exits_2_before_any_probe(self, tmp_path, capsys, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("a probe ran")

        monkeypatch.setattr(arena_mod, "monte_carlo", no_probe)
        code = main(["complexity", "--algo", "meanest", "--adv", "uniform", "--n", "8",
                     "--eps", "0.25", "--runs", "200", "--target", "75", "--workers", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "target must lie in (0, 1], got 75.0" in capsys.readouterr().err


def reference_csv_text(run_id, trajectory, reveal_samples=False):
    """The CSV formatter as it was before the sliced one: one % format per row."""
    columns = [
        range(1, trajectory.horizon + 1),
        trajectory.queries.tolist(),
        trajectory.feedback.tolist(),
        trajectory.errors.tolist(),
    ]
    line = f"{run_id},".replace("%", "%%") + "%d,%d,%d,%r"
    if reveal_samples:
        columns.append(trajectory.samples.tolist())
        line += ",%d"
    line += "\n"
    return "".join([line % values for values in zip(*columns)])


def assert_same_text(produced, expected):
    """produced == expected, reporting the first line that differs (pytest's own
    diff of two long texts can take minutes)."""
    if produced != expected:
        a, b = produced.splitlines(), expected.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i + 1}: {a[i : i + 1]} != {b[i : i + 1]}; {len(a)} and {len(b)} lines")


def _columns(n, queries, samples, errors):
    queries, samples = np.asarray(queries, dtype=np.int64), np.asarray(samples, dtype=np.int64)
    feedback = (samples <= queries).astype(np.int64)
    errors = np.asarray(errors, dtype=np.float64)
    return Trajectory(n, "cdf", 0.5, queries, samples, feedback, errors, np.ones_like(queries))


_FORMATTER_CASES = {
    "one-round": _columns(4, [2], [3], [0.25]),
    "n=1": _columns(1, [1] * 6, [1, 2, 2, 1, 2, 1], np.linspace(0, 0.5, 6)),
    "n=1024-edges": _columns(1024, [1024, 1, 1024, 512], [1025, 1, 1024, 1025], [0.5, 0.25, 0.125, 1.0]),
    "special-errors": _columns(4, [1, 2, 3, 4], [5, 1, 3, 4], [0.0, 1.0, 5e-324, 0.1 + 0.2]),
    "game": run_game(GameConfig(n=16, horizon=3000, algorithm="cdfest", adversary="uniform", seed=4)),
}


@pytest.mark.parametrize("reveal", [False, True])
@pytest.mark.parametrize("run_id", [0, 31, "a%d%%b"])
@pytest.mark.parametrize("case", sorted(_FORMATTER_CASES))
def test_csv_text_matches_the_percent_format_reference(case, run_id, reveal):
    trajectory = _FORMATTER_CASES[case]
    text = trajectory_csv_text(run_id, trajectory, reveal)
    assert_same_text(text, reference_csv_text(run_id, trajectory, reveal))
    assert text.count("\n") == trajectory.horizon


@pytest.mark.parametrize("algo", ["cdfest", "stochastic-cdf", "halving"])
@pytest.mark.parametrize("reveal", [False, True])
@pytest.mark.parametrize("runs", [1, 33])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_csv_bytes_equal_the_reference_export(tmp_path, algo, reveal, runs, workers):
    # the chunk workers format the CSV (cdfest replays as arrays, the others
    # play the round loop); 33 runs leave a one-run last chunk
    config = GameConfig(n=8, horizon=40, algorithm=algo, adversary="uniform", seed=9)
    argv = ["run", "--algo", algo, "--adv", "uniform", "--n", "8", "--T", "40", "--runs", str(runs),
            "--seed", "9", "--workers", str(workers), "--out-dir", str(tmp_path)]
    assert main(argv + (["--reveal-samples"] if reveal else [])) == 0
    expected = trajectory_csv_header(reveal) + "\n"
    expected += "".join(reference_csv_text(r, run_game(config, r), reveal) for r in range(runs))
    assert_same_text((tmp_path / "trajectory.csv").read_bytes().decode(), expected)


class _LateBadSample(Adversary):
    """Samples 1, except n+5 in round 3, live and in sample_batch alike."""

    def __init__(self, n):
        self.n = n

    def next_sample(self, past):
        return self.n + 5 if len(past) == 2 else 1

    def sample_batch(self, queries):
        samples = np.ones(len(queries), dtype=np.int64)
        samples[2:3] = self.n + 5
        return samples


@pytest.mark.parametrize("algo", ["cdfest", "halving"])
def test_protocol_error_in_a_pool_worker_exits_3(tmp_path, capsys, algo):
    register_adversary("late-bad-sample", lambda p, n, h, rng: _LateBadSample(n))
    argv = ["run", "--algo", algo, "--adv", "late-bad-sample", "--n", "4", "--T", "8",
            "--runs", "33", "--workers", "2", "--out-dir", str(tmp_path)]
    assert main(argv) == 3
    assert "adversary at round 3: sample 9 outside 1..5" in capsys.readouterr().err


def test_failed_run_keeps_the_earlier_output(tmp_path):
    register_adversary("late-bad-sample", lambda p, n, h, rng: _LateBadSample(n))
    flags = ["--algo", "cdfest", "--n", "4", "--T", "8", "--runs", "33", "--workers", "2",
             "--out-dir", str(tmp_path)]
    assert main(["run", "--adv", "uniform", *flags]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["run", "--adv", "late-bad-sample", *flags]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_complexity_sweep_holds_one_pool(tmp_path, monkeypatch):
    made = []
    open_pool = arena_mod._open_pool

    def counted(workers):
        made.append(workers)
        return open_pool(workers)

    monkeypatch.setattr(arena_mod, "_open_pool", counted)
    argv = ["complexity", "--algo", "meanest", "--adv", "uniform", "--n", "8,16",
            "--eps", "0.5,0.25", "--runs", "200", "--seed", "3", "--workers", "2"]
    assert main(argv + ["--out-dir", str(tmp_path / "shared")]) == 0
    assert len(made) == 1
    # when the sweep's pool is not lent to the searches, every cell's search opens its own
    search = arena_mod.estimate_query_complexity
    monkeypatch.setattr(
        arena_mod, "estimate_query_complexity", lambda *args, _pool=None, **kw: search(*args, **kw)
    )
    assert main(argv + ["--out-dir", str(tmp_path / "per-cell")]) == 0
    assert len(made) == 1 + 1 + 4  # the sweep's own pool, then one per cell
    shared, per_cell = (tmp_path / name / "complexity.json" for name in ("shared", "per-cell"))
    assert shared.read_bytes() == per_cell.read_bytes()


def test_importing_the_package_imports_no_process_pool():
    # a pool is imported where one is opened, so startup does not pay for it
    env = {**os.environ, "PYTHONPATH": str(Path(threshold_arena.__file__).parents[1])}
    code = (
        "import sys, threshold_arena, threshold_arena.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
