"""CLI dispatch, config precedence, provenance, determinism."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import distill_ssl
from distill_ssl.cli import (
    build_parser,
    encoder_config,
    probe_config,
    resolve_config,
    run,
    train_config,
)
from distill_ssl.contrastive import EncoderConfig, TrainConfig
from distill_ssl.data import generic_spec, target_spec
from distill_ssl.eval import ProbeConfig

SMALL = {
    "steps": 12,
    "batch_size": 8,
    "queue_size": 16,
    "target_frames_per_phase": 12,
    "generic_frames_per_phase": 8,
    "probe_steps": 40,
    "probe_seeds": "0,1",
    "label_fraction": 0.5,
    "seed": 7,
}


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, small_config):
    out = tmp_path_factory.mktemp("data")
    assert run(["gen-data", "--config", small_config, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def generic_ckpt(tmp_path_factory, small_config, data_dir):
    out = tmp_path_factory.mktemp("gen")
    code = run([
        "pretrain-generic", "--config", small_config,
        "--data", str(data_dir / "generic"), "--out", str(out),
    ])
    assert code == 0
    return out / "checkpoint"


@pytest.fixture(scope="module")
def teacher_ckpt(tmp_path_factory, small_config, data_dir, generic_ckpt):
    out = tmp_path_factory.mktemp("teach")
    code = run([
        "adapt-teacher", "--config", small_config,
        "--data", str(data_dir / "target"), "--generic", str(generic_ckpt),
        "--out", str(out),
    ])
    assert code == 0
    return out / "checkpoint"


class TestDispatch:
    def test_unknown_subcommand_nonzero_with_usage(self, capsys):
        code = run(["definitely-not-a-command"])
        captured = capsys.readouterr()
        assert code != 0
        assert "usage:" in captured.err

    def test_no_subcommand_nonzero(self, capsys):
        assert run([]) != 0
        assert "usage:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run(["pretrain-generic"]) != 0
        err = capsys.readouterr().err
        assert "usage:" in err and "--data" in err

    def test_missing_config_file(self, capsys, tmp_path):
        assert run(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) != 0
        assert "usage:" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_key": 1}')
        assert run(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) != 0
        assert "no_such_key" in capsys.readouterr().err

    def test_invalid_value_nonzero(self, capsys, tmp_path, data_dir, small_config):
        code = run([
            "pretrain-generic", "--config", small_config, "--data", str(data_dir / "generic"),
            "--out", str(tmp_path / "o"), "--tau", "-1.0",
        ])
        assert code != 0
        assert "usage:" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, small_config):
        args = build_parser().parse_args(["gen-data", "--config", small_config])
        cfg = resolve_config(args)
        assert cfg["steps"] == 12  # file beats default 500
        args = build_parser().parse_args(
            ["gen-data", "--config", small_config, "--steps", "3"]
        )
        assert resolve_config(args)["steps"] == 3  # flag beats file

    def test_env_seed_is_last_resort(self, monkeypatch, small_config):
        monkeypatch.setenv("DISTILL_SSL_SEED", "1234")
        args = build_parser().parse_args(["gen-data"])
        assert resolve_config(args)["seed"] == 1234
        args = build_parser().parse_args(["gen-data", "--seed", "5"])
        assert resolve_config(args)["seed"] == 5
        args = build_parser().parse_args(["gen-data", "--config", small_config])
        assert resolve_config(args)["seed"] == 7

    def test_defaults_without_any_source(self, monkeypatch):
        monkeypatch.delenv("DISTILL_SSL_SEED", raising=False)
        cfg = resolve_config(build_parser().parse_args(["gen-data"]))
        assert cfg["seed"] == 7 and cfg["tau"] == 0.07 and cfg["lambda"] == 5.0

    def test_defaults_build_the_dataclass_defaults(self, monkeypatch):
        monkeypatch.delenv("DISTILL_SSL_SEED", raising=False)
        cfg = resolve_config(build_parser().parse_args(["gen-data"]))
        assert train_config(cfg) == TrainConfig()
        assert encoder_config(cfg) == EncoderConfig()
        assert probe_config(cfg, 1.0, 0) == ProbeConfig()
        size = (cfg["image_size"], cfg["image_size"])
        target = target_spec(cfg["target_phases"], cfg["target_frames_per_phase"], size)
        generic = generic_spec(cfg["generic_classes"], cfg["generic_frames_per_phase"], size)
        assert target == target_spec() and generic == generic_spec()

    @pytest.mark.parametrize("key,value", [
        ("steps", 3.7),
        ("batch_size", True),
        ("conv_channels", [8, 16]),
        ("seed", "7"),
        ("tau", "0.07"),
        ("lambda", False),
        ("probe_seeds", 0),
        ("mode", {"name": "student"}),
        ("distill", 1),
    ])
    def test_file_value_of_wrong_json_type_rejected(self, key, value, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        assert run(["gen-data", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "usage:" in err
        assert not out.exists()

    def test_float_key_accepts_json_integer(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"tau": 1, "lambda": 0, "distill_tau": None}))
        cfg = resolve_config(build_parser().parse_args(["gen-data", "--config", str(path)]))
        assert type(cfg["tau"]) is float and cfg["tau"] == 1.0
        assert type(cfg["lambda"]) is float and cfg["lambda"] == 0.0
        assert cfg["distill_tau"] is None

    def test_unreadable_env_seed_rejected(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("DISTILL_SSL_SEED", "seven")
        assert run(["gen-data", "--out", str(tmp_path / "o")]) == 2
        assert "DISTILL_SSL_SEED" in capsys.readouterr().err

    def test_removed_generic_data_key_rejected(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"generic_data": None}))
        assert run(["gen-data", "--config", str(old), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config key 'generic_data'" in capsys.readouterr().err


class TestProvenance:
    def test_config_json_written_with_command(self, data_dir):
        record = json.loads((data_dir / "config.json").read_text())
        assert record["command"] == "gen-data"
        assert record["steps"] == 12
        assert "seed" in record and "tau" in record

    def test_checkpoint_records_encoder_config_as_json(self, generic_ckpt):
        manifest = json.loads((generic_ckpt.parent / "checkpoint.json").read_text())
        assert manifest["config"]["encoder"] == {
            "in_channels": 1, "input_size": [32, 32], "conv_channels": [8, 16], "kernel_size": 3,
            "stride": 2, "pad": 1, "d_backbone": 64, "d": 32,
        }

    def test_training_outputs_complete(self, generic_ckpt):
        out = generic_ckpt.parent
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.json").exists()
        assert (out / "checkpoint.bin").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,loss,l_con,l_dis"

    def test_inputs_not_mutated(self, small_config, data_dir, tmp_path):
        before = (data_dir / "target.bin").read_bytes()
        out = tmp_path / "o"
        assert run([
            "pretrain-student", "--config", small_config,
            "--data", str(data_dir / "target"), "--out", str(out),
        ]) == 0
        assert (data_dir / "target.bin").read_bytes() == before


class TestDeterminism:
    def test_identical_seeded_runs_bitwise(self, small_config, data_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run([
                "pretrain-student", "--config", small_config,
                "--data", str(data_dir / "target"), "--out", str(out),
            ]) == 0
            outs.append(out)
        assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()
        assert (outs[0] / "checkpoint.json").read_text() == (outs[1] / "checkpoint.json").read_text()
        assert (outs[0] / "metrics.csv").read_text() == (outs[1] / "metrics.csv").read_text()

    def test_gen_data_runs_bitwise(self, small_config, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["gen-data", "--config", small_config, "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "target.bin").read_bytes() == (outs[1] / "target.bin").read_bytes()
        assert (outs[0] / "generic.bin").read_bytes() == (outs[1] / "generic.bin").read_bytes()

    def test_blas_thread_count_does_not_change_bits(self, data_dir, tmp_path):
        # default batch and queue, so the conv GEMMs are large enough to split over threads
        src = os.path.dirname(os.path.dirname(distill_ssl.__file__))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "distill_ssl", "pretrain-student", "--steps", "3",
                 "--seed", "7", "--data", str(data_dir / "target"), "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outs.append(out)
        assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()
        assert (outs[0] / "metrics.csv").read_text() == (outs[1] / "metrics.csv").read_text()

    def test_artifact_reproducible_from_its_config_json(self, small_config, data_dir, tmp_path):
        first = tmp_path / "first"
        assert run([
            "pretrain-student", "--config", small_config,
            "--data", str(data_dir / "target"), "--out", str(first),
        ]) == 0
        replay = tmp_path / "replay"
        assert run([
            "pretrain-student", "--config", str(first / "config.json"), "--out", str(replay),
        ]) == 0
        assert (first / "checkpoint.bin").read_bytes() == (replay / "checkpoint.bin").read_bytes()

    def test_stdout_stays_clean(self, small_config, tmp_path, capsys):
        assert run(["gen-data", "--config", small_config, "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gen-data" in captured.err


class TestStages:
    def test_distilled_student_and_probe(self, small_config, data_dir, teacher_ckpt, tmp_path):
        stud = tmp_path / "stud"
        assert run([
            "pretrain-student", "--config", small_config, "--data", str(data_dir / "target"),
            "--distill", "--teacher", str(teacher_ckpt), "--out", str(stud),
        ]) == 0
        metrics = (stud / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 1 + SMALL["steps"]
        # distilled runs carry a nonzero distillation term
        first = metrics[1].split(",")
        assert float(first[3]) > 0.0

        probe = tmp_path / "probe"
        assert run([
            "linear-probe", "--config", small_config, "--data", str(data_dir / "target"),
            "--ckpt", str(stud / "checkpoint"), "--mode", "student", "--out", str(probe),
        ]) == 0
        rows = (probe / "metrics.csv").read_text().splitlines()
        assert rows[0] == "encoder,mode,fraction,seed,accuracy,precision,recall,jaccard"
        assert len(rows) == 1 + 2  # two probe seeds

    def test_distill_requires_teacher(self, small_config, data_dir, tmp_path, capsys):
        code = run([
            "pretrain-student", "--config", small_config, "--data", str(data_dir / "target"),
            "--distill", "--out", str(tmp_path / "x"),
        ])
        assert code != 0
        assert "--teacher" in capsys.readouterr().err

    def test_sweep_emits_all_arms(self, small_config, data_dir, teacher_ckpt, generic_ckpt, tmp_path):
        out = tmp_path / "sweep"
        assert run([
            "sweep-labels", "--config", small_config, "--data", str(data_dir / "target"),
            "--teacher", str(teacher_ckpt), "--plain", str(generic_ckpt),
            "--distilled", str(generic_ckpt), "--init-student", str(generic_ckpt),
            "--fractions", "1.0", "--probe-seeds", "0", "--out", str(out),
        ]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        arms = {line.split(",")[0] for line in rows[1:]}
        assert {"teacher", "plain", "addition", "concatenation", "initialization", "distillation"} <= arms
        assert (out / "summary.json").exists()
        assert (out / "accuracy.svg").exists()

    def test_distill_tau_flag_reaches_training_as_float(
        self, small_config, data_dir, teacher_ckpt, tmp_path
    ):
        stud = tmp_path / "stud"
        assert run([
            "pretrain-student", "--config", small_config, "--data", str(data_dir / "target"),
            "--distill", "--teacher", str(teacher_ckpt), "--distill-tau", "0.5",
            "--steps", "3", "--out", str(stud),
        ]) == 0
        resolved = json.loads((stud / "config.json").read_text())
        assert resolved["distill_tau"] == 0.5 and isinstance(resolved["distill_tau"], float)
        metrics = (stud / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 1 + 3
        assert all(float(row.split(",")[3]) > 0.0 for row in metrics[1:])

    def test_zero_steps_writes_header_only_metrics(self, small_config, data_dir, tmp_path, capsys):
        out = tmp_path / "zero"
        assert run([
            "pretrain-student", "--config", small_config, "--data", str(data_dir / "target"),
            "--steps", "0", "--out", str(out),
        ]) == 0
        assert (out / "metrics.csv").read_text() == "step,loss,l_con,l_dis\n"
        assert (out / "checkpoint.bin").exists()
        assert "0 steps" in capsys.readouterr().err

    def test_probe_metrics_independent_of_checkpoint_directory(
        self, small_config, data_dir, teacher_ckpt, tmp_path
    ):
        outputs = []
        for where in ("a", "b/deeper"):
            ckpt = tmp_path / where / "checkpoint"
            ckpt.parent.mkdir(parents=True)
            for suffix in (".json", ".bin"):
                shutil.copy(teacher_ckpt.with_suffix(suffix), ckpt.with_suffix(suffix))
            out = tmp_path / f"probe_{where.replace('/', '_')}"
            assert run([
                "linear-probe", "--config", small_config, "--data", str(data_dir / "target"),
                "--ckpt", str(ckpt), "--teacher", str(ckpt), "--mode", "addition",
                "--out", str(out),
            ]) == 0
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]
        rows = outputs[0].decode().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"addition"}

    @pytest.mark.parametrize(
        "args, named",
        (
            (["--mode", "nonsense"], "mode must be one of"),
            (["--mode", "student"], "--ckpt"),
            (["--mode", "teacher"], "--teacher"),
            (["--mode", "addition", "--ckpt", "ckpt"], "--teacher"),
        ),
    )
    def test_linear_probe_mode_rules(self, args, named, data_dir, tmp_path, capsys):
        code = run(["linear-probe", "--data", str(data_dir / "target"),
                    "--out", str(tmp_path / "probe"), *args])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage:" in err and named in err

    def test_linear_probe_rejects_holdout_fraction_above_one(
        self, small_config, data_dir, teacher_ckpt, tmp_path, capsys
    ):
        out = tmp_path / "probe"
        code = run([
            "linear-probe", "--config", small_config, "--data", str(data_dir / "target"),
            "--ckpt", str(teacher_ckpt), "--holdout-fraction", "1.5", "--out", str(out),
        ])
        assert code != 0
        assert "holdout_fraction" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        (
            ("linear-probe", "--probe-seeds", ""),
            ("linear-probe", "--probe-seeds", "0,x"),
            ("sweep-labels", "--probe-seeds", ""),
            ("sweep-labels", "--fractions", "0.5,x"),
            ("sweep-labels", "--fractions", ","),
            ("pretrain-generic", "--conv-channels", "8,x"),
        ),
    )
    def test_list_values_parse_or_exit_2_naming_the_key(
        self, command, flag, value, data_dir, tmp_path, capsys
    ):
        # The checkpoints do not exist: list values are read before any is loaded.
        missing = str(tmp_path / "missing")
        args = {
            "linear-probe": ["--data", str(data_dir / "target"), "--ckpt", missing],
            "sweep-labels": ["--data", str(data_dir / "target"), "--teacher", missing],
            "pretrain-generic": ["--data", str(data_dir / "generic"), "--steps", "1"],
        }[command]
        out = tmp_path / "out"
        code = run([command, *args, flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage:" in err and flag[2:].replace("-", "_") in err
        assert not (out / "metrics.csv").exists()

    def test_gradcheck_writes_report(self, tmp_path):
        from distill_ssl.gradcheck import run_gradcheck

        out = tmp_path / "gc"
        assert run(["gradcheck", "--gradcheck-instances", "3", "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "op,max_rel_err,instances"
        assert len(lines) > 5
        ops = [line.split(",")[0] for line in lines[1:]]
        assert ops == list(run_gradcheck(instances=1))
