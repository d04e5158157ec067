"""CLI dispatch, config precedence, provenance, determinism."""

import ctypes
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import distill_ssl
from distill_ssl import cli
from distill_ssl.cli import (
    build_parser,
    encoder_config,
    probe_config,
    resolve_config,
    run,
    train_config,
)
from distill_ssl.contrastive import EncoderConfig, TrainConfig
from distill_ssl.data import (
    Dataset,
    generate_synthetic_dataset,
    generic_spec,
    save_dataset,
    target_spec,
)
from distill_ssl.eval import MODES, ProbeConfig, split_indices

from reads import assert_no_read_covers_every_row, holds_open, log_row_reads, row_reads

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
        args = build_parser().parse_args(["pretrain-generic", "--config", small_config])
        cfg = resolve_config(args)
        assert cfg["steps"] == 12  # file beats default 500
        args = build_parser().parse_args(
            ["pretrain-generic", "--config", small_config, "--steps", "3"]
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
        cfg = resolve_config(build_parser().parse_args(["pretrain-student"]))
        assert cfg["seed"] == 7 and cfg["tau"] == 0.07 and cfg["lambda"] == 5.0

    def test_defaults_build_the_dataclass_defaults(self, monkeypatch):
        monkeypatch.delenv("DISTILL_SSL_SEED", raising=False)

        def defaults(command):
            return resolve_config(build_parser().parse_args([command]))

        # every training command builds the same TrainConfig: only
        # pretrain-student takes lambda and distill_tau, the others their defaults
        for command in ("pretrain-generic", "adapt-teacher", "pretrain-student"):
            assert train_config(defaults(command)) == TrainConfig()
        # only the commands that make a new encoder take its keys
        for command in ("pretrain-generic", "pretrain-student"):
            assert encoder_config(defaults(command)) == EncoderConfig()
        for command in ("linear-probe", "sweep-labels"):
            assert probe_config(defaults(command)) == ProbeConfig()
        cfg = defaults("gen-data")
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
        # null stands only for a key whose default is None
        ("seed", None),
        ("steps", None),
        ("tau", None),
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
        cfg = resolve_config(build_parser().parse_args(["pretrain-student", "--config", str(path)]))
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

    @pytest.mark.parametrize("key, value", (("in_channels", 1), ("input_size", 32)))
    def test_removed_encoder_key_rejected(self, key, value, data_dir, tmp_path, capsys):
        # a pretrain-student config.json written while the encoder took these keys
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"command": "pretrain-student", "steps": 1, key: value}))
        out = tmp_path / "o"
        assert run(["pretrain-student", "--config", str(old), "--data", str(data_dir / "target"),
                    "--out", str(out)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()


class TestProvenance:
    def test_config_json_written_with_command(self, generic_ckpt):
        record = json.loads((generic_ckpt.parent / "config.json").read_text())
        assert record["command"] == "pretrain-generic"
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

    def test_blas_thread_count_does_not_change_bits(self, data_dir, teacher_ckpt, tmp_path):
        # default batch and queue, so the conv GEMMs are large enough to split over threads;
        # the distilled run's teacher encodes run in the forked view worker
        src = os.path.dirname(os.path.dirname(distill_ssl.__file__))
        for arm, extra in (("plain", []), ("distilled", ["--distill", "--teacher", str(teacher_ckpt)])):
            outs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{arm}{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
                subprocess.run(
                    [sys.executable, "-m", "distill_ssl", "pretrain-student", "--steps", "3",
                     "--seed", "7", "--data", str(data_dir / "target"), "--out", str(out), *extra],
                    env=env, check=True, capture_output=True,
                )
                outs.append(out)
            for name in ("checkpoint.bin", "metrics.csv"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (arm, name)

    @pytest.mark.parametrize("command, artifacts", (
        ("gen-data", ("target.bin", "generic.bin", "metrics.csv")),
        ("pretrain-student", ("checkpoint.bin", "metrics.csv")),
        ("linear-probe", ("metrics.csv",)),
        ("sweep-labels", ("metrics.csv", "summary.json", "accuracy.svg")),
    ))
    def test_artifact_reproducible_from_its_config_json(
        self, command, artifacts, small_config, data_dir, generic_ckpt, tmp_path
    ):
        inputs = {
            "gen-data": [],
            "pretrain-student": ["--data", str(data_dir / "target")],
            "linear-probe": ["--data", str(data_dir / "target"), "--ckpt", str(generic_ckpt)],
            "sweep-labels": ["--data", str(data_dir / "target"), "--plain", str(generic_ckpt),
                             "--fractions", "0.5,1.0"],
        }[command]
        first = tmp_path / "first"
        assert run([command, "--config", small_config, *inputs, "--out", str(first)]) == 0
        record = json.loads((first / "config.json").read_text())
        assert set(record) == {"command", *cli.COMMANDS[command][1]}
        assert record["command"] == command
        replay = tmp_path / "replay"
        assert run([command, "--config", str(first / "config.json"), "--out", str(replay)]) == 0
        for name in artifacts:
            assert (first / name).read_bytes() == (replay / name).read_bytes(), name

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

    def test_diverged_probe_exits_1_and_writes_no_metrics(
        self, small_config, data_dir, teacher_ckpt, tmp_path, capsys
    ):
        out = tmp_path / "probe"
        assert run(["linear-probe", "--config", small_config, "--data", str(data_dir / "target"),
                    "--ckpt", str(teacher_ckpt), "--probe-lr", "1e200", "--out", str(out)]) == 1
        assert "DivergenceError: the linear probe diverged" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, used, unused", (("student", "ckpt", "teacher"),
                                                    ("teacher", "teacher", "ckpt")))
    def test_linear_probe_reads_only_the_checkpoints_its_mode_uses(
        self, mode, used, unused, small_config, data_dir, teacher_ckpt, tmp_path
    ):
        common = ["linear-probe", "--config", small_config, "--data", str(data_dir / "target"),
                  "--mode", mode, f"--{used}", str(teacher_ckpt)]
        assert run([*common, "--out", str(tmp_path / "alone")]) == 0
        # the other checkpoint flag would be recorded in config.json but never read
        extra = tmp_path / "extra"
        assert run([*common, f"--{unused}", str(tmp_path / "missing"), "--out", str(extra)]) == 2
        assert not extra.exists()

    @pytest.mark.parametrize("command, ckpt_flag", (("linear-probe", "--ckpt"),
                                                    ("sweep-labels", "--plain")))
    def test_holdout_that_empties_a_class_names_it(
        self, command, ckpt_flag, small_config, data_dir, teacher_ckpt, tmp_path, capsys
    ):
        out = tmp_path / "probe"
        code = run([
            command, "--config", small_config, "--data", str(data_dir / "target"),
            ckpt_flag, str(teacher_ckpt), "--holdout-fraction", "0.99", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert ("SamplingError: holdout_fraction 0.99 splits class 0 into 0 train and 12 "
                "held-out frames") in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command, args, named",
        (
            ("linear-probe", ["--holdout-fraction", "1.5"], "holdout_fraction"),
            ("linear-probe", ["--label-fraction", "1.5"], "label_fraction"),
            ("linear-probe", ["--probe-steps", "-3"], "steps"),
            ("sweep-labels", ["--holdout-fraction", "0"], "holdout_fraction"),
            ("sweep-labels", ["--probe-steps", "-1"], "steps"),
            ("sweep-labels", ["--probe-weight-decay", "-1"], "weight_decay"),
            ("sweep-labels", ["--fractions", "1.5"], "label_fraction"),
            ("pretrain-student", ["--batch-size", "0"], "batch_size"),
            ("pretrain-student", ["--tau", "0"], "tau"),
            ("pretrain-student", ["--queue-size", "30"], "queue_size"),
            ("pretrain-student", ["--conv-channels", "8"], "conv_channels"),
            ("pretrain-student", ["--queue-size", "0"], "queue_size 0 must be"),
            ("pretrain-student", ["--queue-size", "-32"], "queue_size -32 must be"),
            ("pretrain-student", ["--embed-dim", "0"], "d must be >= 1"),
            ("pretrain-student", ["--kernel-size", "0"], "kernel_size must be >= 1"),
            ("pretrain-student", ["--d-backbone", "0"], "d_backbone must be >= 1"),
            ("pretrain-student", ["--conv-stride", "0"], "stride must be >= 1"),
            ("pretrain-student", ["--view-size", "0"], "output_size must be >= 1"),
            # a kernel must fit every conv layer's padded input: the views, which are
            # also the encoder's input size, the side of the resized frames for probing
            ("pretrain-student", ["--kernel-size", "40"], "larger than conv1's padded input 34x34"),
            ("pretrain-student", ["--kernel-size", "20"], "larger than conv2's padded input 10x10"),
            ("pretrain-student", ["--view-size", "16", "--kernel-size", "12"], "conv2's"),
            # in each command that makes an encoder
            ("pretrain-generic", ["--kernel-size", "40"], "larger than conv1's padded input 34x34"),
            ("pretrain-generic", ["--view-size", "16", "--kernel-size", "12"],
             "conv2's padded input 6x6 at input size 16x16"),
            ("pretrain-generic", ["--kernel-size", "20"], "larger than conv2's padded input 10x10"),
            # a probe command takes no encoder key: a checkpoint brings its architecture
            ("linear-probe", ["--kernel-size", "40"], "unrecognized arguments: --kernel-size 40"),
            ("linear-probe", ["--view-size", "16", "--kernel-size", "12"],
             "unrecognized arguments: --view-size 16 --kernel-size 12"),
            ("sweep-labels", ["--kernel-size", "20"], "unrecognized arguments: --kernel-size 20"),
            ("adapt-teacher", ["--conv-stride", "1"], "unrecognized arguments: --conv-stride 1"),
            # --data does not exist either: the kernel and the split fraction are
            # checked before it is read
            ("pretrain-student", ["--data", "{missing}", "--kernel-size", "40"], "conv1's"),
            ("pretrain-student", ["--data", "{missing}", "--view-size", "8", "--kernel-size", "9"],
             "conv2's padded input 3x3 at input size 8x8"),
            ("linear-probe", ["--data", "{missing}", "--holdout-fraction", "1.5"],
             "holdout_fraction"),
            ("sweep-labels", ["--data", "{missing}", "--holdout-fraction", "0"],
             "holdout_fraction"),
            # a distilled student starts from scratch: an initial checkpoint is not read
            ("pretrain-student", ["--distill", "--teacher", "{missing}", "--init-from", "{missing}"],
             "--init-from"),
            # a plain student reads no teacher: without --distill it would be ignored
            ("pretrain-student", ["--teacher", "{missing}"],
             "pretrain-student without --distill takes no --teacher"),
            # the training commands other than pretrain-student take no student-only key
            ("pretrain-generic", ["--init-from", "{missing}"], "unrecognized arguments: --init-from"),
            ("pretrain-generic", ["--distill"], "unrecognized arguments: --distill"),
            ("pretrain-generic", ["--teacher", "{missing}"], "unrecognized arguments: --teacher"),
            ("pretrain-generic", ["--data", "{missing}", "--init-from", "{missing}", "--distill",
                                  "--teacher", "{missing}"],
             "unrecognized arguments: --init-from"),
            ("adapt-teacher", ["--init-from", "{missing}"], "unrecognized arguments: --init-from"),
            ("adapt-teacher", ["--distill"], "unrecognized arguments: --distill"),
            ("adapt-teacher", ["--teacher", "{missing}"], "unrecognized arguments: --teacher"),
            # a repeated fraction or probe seed would repeat rows and merge summary entries
            ("sweep-labels", ["--fractions", "0.05,0.05"], "fractions lists a value more than once"),
            ("sweep-labels", ["--fractions", "0.5,1,0.50"], "fractions lists a value more than once"),
            ("sweep-labels", ["--probe-seeds", "0,0"], "probe_seeds lists a value more than once"),
            ("sweep-labels", ["--data", "{missing}", "--fractions", "0.05,0.05", "--probe-seeds",
                              "0,0"], "lists a value more than once"),
            ("linear-probe", ["--probe-seeds", "1,2,1"], "probe_seeds lists a value more than once"),
            ("linear-probe", ["--data", "{missing}", "--probe-seeds", "3,3"], "probe_seeds lists"),
            # the dataset specs are built before --out is made
            ("gen-data", ["--target-phases", "0"], "num_phases and frames_per_phase"),
            ("gen-data", ["--target-frames-per-phase", "0"], "num_phases and frames_per_phase"),
            ("gen-data", ["--generic-classes", "9"], "8 frequency bands, got 9 classes"),
            ("gen-data", ["--image-size", "0"], "image_size and channels must be >= 1"),
            ("gen-data", ["--image-size", "-2"], "image_size and channels must be >= 1"),
            ("gradcheck", ["--gradcheck-instances", "0"], "gradcheck_instances must be >= 1"),
            ("gradcheck", ["--gradcheck-instances", "-1"], "gradcheck_instances must be >= 1"),
            # a float range refuses NaN and infinity, and a learning rate a negative value
            ("pretrain-student", ["--tau", "nan"], "tau must be positive and finite, got nan"),
            ("pretrain-student", ["--tau", "inf"], "tau must be positive and finite, got inf"),
            ("pretrain-student", ["--lambda", "nan"], "lambda must be finite and >= 0"),
            ("pretrain-student", ["--lr", "nan"], "lr must be finite and >= 0, got nan"),
            ("pretrain-student", ["--lr", "-1"], "lr must be finite and >= 0, got -1.0"),
            ("pretrain-student", ["--weight-decay", "inf"], "weight_decay must be finite and >= 0"),
            ("pretrain-student", ["--distill-tau", "nan"],
             "distill_tau must be positive and finite"),
            ("pretrain-student", ["--brightness-delta", "inf"],
             "brightness_delta must be finite and >= 0"),
            ("pretrain-student", ["--contrast-hi", "inf"], "contrast_range must satisfy"),
            ("pretrain-student", ["--aug-noise-sigma", "nan"], "noise_sigma must be finite"),
            ("linear-probe", ["--probe-lr", "nan"], "lr must be finite and >= 0, got nan"),
            ("linear-probe", ["--probe-lr", "-1"], "lr must be finite and >= 0, got -1.0"),
            ("sweep-labels", ["--probe-weight-decay", "inf"], "weight_decay must be finite"),
            # a probe reads only the checkpoints its mode names (--ckpt is given here)
            ("linear-probe", ["--teacher", "{missing}"],
             "linear-probe --mode student takes no --teacher"),
            ("linear-probe", ["--mode", "teacher", "--teacher", "{missing}"],
             "linear-probe --mode teacher takes no --ckpt"),
        ),
    )
    def test_bad_value_fails_before_any_load_and_leaves_no_out(
        self, command, args, named, data_dir, tmp_path, capsys
    ):
        # The checkpoints do not exist, so the value must be checked before
        # any is read; the training runs would fail only after loading --data.
        missing = str(tmp_path / "missing")
        args = [a.replace("{missing}", missing) for a in args]
        inputs = {
            "linear-probe": ["--data", str(data_dir / "target"), "--ckpt", missing],
            "sweep-labels": ["--data", str(data_dir / "target"), "--plain", missing],
            "pretrain-student": ["--data", str(data_dir / "target"), "--steps", "1"],
            "pretrain-generic": ["--data", str(data_dir / "generic"), "--steps", "1"],
            "adapt-teacher": ["--data", str(data_dir / "target"), "--generic", missing,
                              "--steps", "1"],
            "gen-data": [],
            "gradcheck": [],
        }[command]
        out = tmp_path / "out"
        code = run([command, *inputs, *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"usage: distill-ssl {command} [-h]" in err
        assert named in err and "missing manifest" not in err
        assert not out.exists()

    def test_init_from_refuses_another_architecture(
        self, monkeypatch, small_config, data_dir, teacher_ckpt, tmp_path, capsys
    ):
        # the teacher has the default stride 2 and padding 1
        from distill_ssl import pipeline

        steps = []
        monkeypatch.setattr(pipeline, "moco_train_step", lambda *args: steps.append(args))
        out = tmp_path / "init"
        code = run(["pretrain-student", "--config", small_config, "--data", str(data_dir / "target"),
                    "--init-from", str(teacher_ckpt), "--conv-stride", "1", "--conv-pad", "0",
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{teacher_ckpt} holds an encoder with stride 2 (config: 1), pad 1 (config: 0)" in err
        assert "usage: distill-ssl pretrain-student [-h]" in err
        assert steps == [] and not out.exists()

    def test_a_wider_teacher_brings_its_own_architecture(
        self, monkeypatch, small_config, data_dir, generic_ckpt, tmp_path, capsys
    ):
        from distill_ssl import eval as E
        from distill_ssl import pipeline

        common = ["--config", small_config, "--data", str(data_dir / "target")]
        assert run(["pretrain-generic", "--config", small_config, "--data", str(data_dir / "generic"),
                    "--conv-channels", "16,32", "--d-backbone", "128", "--embed-dim", "64",
                    "--out", str(tmp_path / "generic")]) == 0
        # no encoder flag from here on: each loaded checkpoint records the wide encoder
        assert run(["adapt-teacher", *common, "--generic", str(tmp_path / "generic" / "checkpoint"),
                    "--out", str(tmp_path / "teacher")]) == 0
        teacher = tmp_path / "teacher" / "checkpoint"
        manifest = json.loads(teacher.with_suffix(".json").read_text())
        assert manifest["config"]["encoder"] == {**EncoderConfig().to_dict(), "input_size": [32, 32],
                                                 "conv_channels": [16, 32], "d_backbone": 128,
                                                 "d": 64}
        loaded, load = [], pipeline._loaded_state
        monkeypatch.setattr(pipeline, "_loaded_state",
                            lambda *args, **kw: loaded.append(load(*args, **kw)) or loaded[-1])
        assert run(["pretrain-student", *common, "--distill", "--teacher", str(teacher),
                    "--out", str(tmp_path / "student")]) == 0
        assert loaded[0].queue.rows.shape == (SMALL["queue_size"], 64)
        rows = (tmp_path / "student" / "metrics.csv").read_text().splitlines()[1:]
        losses = [float(v) for row in rows for v in row.split(",")[1:]]
        assert len(rows) == SMALL["steps"] and np.isfinite(losses).all()
        assert min(float(row.split(",")[3]) for row in rows) > 0.0
        student = json.loads((tmp_path / "student" / "checkpoint.json").read_text())
        assert student["config"]["encoder"]["d"] == 32  # the student keeps its own flags
        assert run(["linear-probe", *common, "--mode", "teacher", "--teacher", str(teacher),
                    "--out", str(tmp_path / "probe")]) == 0
        # the addition arm needs equal widths: the sweep is refused before any backbone pass
        passes = []
        monkeypatch.setattr(E, "forward_backbone", lambda *args: passes.append(args))
        capsys.readouterr()
        out = tmp_path / "sweep"
        assert run(["sweep-labels", *common, "--teacher", str(teacher), "--plain",
                    str(generic_ckpt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "addition needs matching feature dims, got 128 and 64" in err
        assert "usage:" not in err  # a runtime error (exit 1) prints its one line alone
        assert passes == [] and not out.exists()

    def test_color_frames_train_and_probe_with_no_encoder_flag(
        self, small_config, generic_ckpt, tmp_path
    ):
        rng = np.random.default_rng(4)
        save_dataset(Dataset(rng.random((48, 3, 32, 32)), np.repeat(np.arange(4), 12)),
                     tmp_path / "color")
        common = ["--config", small_config, "--data", str(tmp_path / "color")]
        assert run(["pretrain-generic", *common, "--out", str(tmp_path / "gen")]) == 0
        manifest = json.loads((tmp_path / "gen" / "checkpoint.json").read_text())
        assert manifest["config"]["encoder"]["in_channels"] == 3
        assert run(["linear-probe", *common, "--ckpt", str(tmp_path / "gen" / "checkpoint"),
                    "--out", str(tmp_path / "probe")]) == 0
        # the generic checkpoint was trained on 1-channel frames
        out = tmp_path / "init"
        assert run(["pretrain-student", *common, "--init-from", str(generic_ckpt),
                    "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", (
        ("adapt-teacher", ["--generic", "{generic}"]),
        ("pretrain-student", ["--distill", "--teacher", "{teacher}"]),
        ("linear-probe", ["--ckpt", "{generic}"]),
        ("sweep-labels", ["--plain", "{generic}"]),
        ("pretrain-student", ["--init-from", "{generic}"]),
    ))
    def test_a_checkpoint_of_another_channel_count_is_refused_before_any_fork(
        self, command, flags, monkeypatch, small_config, generic_ckpt, teacher_ckpt, tmp_path,
        capsys
    ):
        from distill_ssl import worker

        # both checkpoints were trained on 1-channel frames
        rng = np.random.default_rng(4)
        save_dataset(Dataset(rng.random((48, 3, 32, 32)), np.repeat(np.arange(4), 12)),
                     tmp_path / "color")
        flags = [f.format(generic=generic_ckpt, teacher=teacher_ckpt) for f in flags]
        forks, fork = [], worker.os.fork
        monkeypatch.setattr(worker.os, "fork", lambda: forks.append(1) or fork())
        out = tmp_path / "out"
        code = run([command, "--config", small_config, "--data", str(tmp_path / "color"), *flags,
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{flags[-1]} holds an encoder for 1-channel frames; the data's frames have " \
               f"3 channels" in err
        assert f"usage: distill-ssl {command} [-h]" in err
        assert forks == [] and not out.exists()

    def test_linear_probe_fits_one_probe_per_distinct_subset(
        self, monkeypatch, small_config, data_dir, generic_ckpt, tmp_path
    ):
        fits, fit = [], cli.fit_linear_probe
        monkeypatch.setattr(cli, "fit_linear_probe",
                            lambda fs, probe, k: fits.append(probe.seed) or fit(fs, probe, k))
        out = tmp_path / "probe"
        assert run(["linear-probe", "--config", small_config, "--data", str(data_dir / "target"),
                    "--ckpt", str(generic_ckpt), "--label-fraction", "1.0", "--probe-seeds",
                    "0,1,2", "--out", str(out)]) == 0
        # every seed draws the whole split: one row, the first seed's
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [["student", "student", "1.0", "0"]]
        assert fits == [0]

    def test_a_new_encoder_takes_the_view_size_as_its_input_size(
        self, small_config, data_dir, tmp_path
    ):
        out = tmp_path / "student"
        assert run(["pretrain-student", "--config", small_config, "--data", str(data_dir / "target"),
                    "--view-size", "16", "--steps", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "checkpoint.json").read_text())
        assert manifest["config"]["encoder"]["input_size"] == [16, 16]

    def test_commands_call_the_benchmark_main_hooks(
        self, monkeypatch, small_config, data_dir, generic_ckpt, tmp_path
    ):
        from distill_ssl import cli
        from distill_ssl import eval as E

        calls = {}
        for module, name in ((cli, "generate_synthetic_dataset"), (cli, "fit_linear_probe"),
                             (cli, "label_efficiency_sweep"), (E, "fit_linear_probe")):
            original = getattr(module, name)
            key = f"{module.__name__.rpartition('.')[2]}.{name}"

            def counted(*args, _key=key, _original=original, **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert run(["gen-data", "--config", small_config, "--out", str(tmp_path / "data")]) == 0
        common = ["--config", small_config, "--data", str(data_dir / "target")]
        assert run(["linear-probe", *common, "--ckpt", str(generic_ckpt),
                    "--out", str(tmp_path / "probe")]) == 0
        # four arms share two encoders; the benchmark takes each hooked
        # eval.fit_linear_probe call as one sweep step and needs one per row.
        # Both seeds draw the whole split at fraction 1.0: one probe there
        assert run(["sweep-labels", *common, "--plain", str(generic_ckpt), "--teacher",
                    str(generic_ckpt), "--fractions", "0.5,1.0", "--probe-seeds", "0,1",
                    "--out", str(tmp_path / "sweep")]) == 0
        rows = (tmp_path / "sweep" / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 * (2 + 1)
        assert calls == {"cli.generate_synthetic_dataset": 2, "cli.fit_linear_probe": 2,
                         "cli.label_efficiency_sweep": 1, "eval.fit_linear_probe": len(rows)}

    def test_a_sweep_forks_no_process(self, monkeypatch, small_config, data_dir, generic_ckpt,
                                      tmp_path):
        from distill_ssl import worker

        forks, fork = [], worker.os.fork
        monkeypatch.setattr(worker.os, "fork", lambda: forks.append(1) or fork())
        assert run(["sweep-labels", "--config", small_config, "--data", str(data_dir / "target"),
                    "--plain", str(generic_ckpt), "--teacher", str(generic_ckpt),
                    "--out", str(tmp_path / "sweep")]) == 0
        assert forks == []

    @pytest.mark.parametrize("command", ["pretrain-student", "sweep-labels"])
    def test_a_command_holds_no_frames_by_its_first_step(
        self, command, monkeypatch, small_config, data_dir, generic_ckpt, tmp_path
    ):
        # the rows are read a batch's at a time: in a training run by the forked
        # worker alone, in a sweep by the command's own process before its first fit;
        # either way the command has closed every handle on the blob by its first step
        from distill_ssl import eval as E
        from distill_ssl import pipeline

        module, name = (pipeline, "moco_train_step") if command == "pretrain-student" else \
            (E, "fit_linear_probe")
        real, held = getattr(module, name), []

        def step(*args):
            held.append(holds_open(data_dir / "target.bin"))
            return real(*args)

        monkeypatch.setattr(module, name, step)
        log_row_reads(monkeypatch, tmp_path / "reads")
        extra = ["--plain", str(generic_ckpt), "--fractions", "1.0"] \
            if command == "sweep-labels" else []
        assert run([command, "--config", small_config, "--data", str(data_dir / "target"),
                    "--out", str(tmp_path / "out"), *extra]) == 0
        assert held and not any(held)
        assert_no_read_covers_every_row(tmp_path / "reads",
                                        worker_only=command == "pretrain-student")

    def test_linear_probe_reads_the_rows_a_batch_at_a_time(
        self, monkeypatch, small_config, data_dir, generic_ckpt, tmp_path
    ):
        log_row_reads(monkeypatch, tmp_path / "reads")
        assert run(["linear-probe", "--config", small_config, "--data", str(data_dir / "target"),
                    "--ckpt", str(generic_ckpt), "--out", str(tmp_path / "out")]) == 0
        assert_no_read_covers_every_row(tmp_path / "reads", worker_only=False)
        assert not holds_open(data_dir / "target.bin")

    def test_gradcheck_writes_report(self, tmp_path):
        from distill_ssl.gradcheck import run_gradcheck

        out = tmp_path / "gc"
        assert run(["gradcheck", "--gradcheck-instances", "3", "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "op,max_rel_err,instances"
        assert len(lines) > 5
        ops = [line.split(",")[0] for line in lines[1:]]
        assert ops == list(run_gradcheck(instances=1))


class _Reads(dict):
    """A resolved config that records the keys a command reads.  A ``get``
    of a key the command does not take falls back to a default: no read."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            self.read.add(key)
        return super().get(key, default)


class TestCommandKeys:
    def test_the_table_has_110_command_flag_pairs(self):
        # 7 commands x 53 keys = 371 before each command took only its own, 138
        # before the commands that load an encoder dropped its 8 keys, and 114
        # before a new encoder took its channels from the data and its size from the views
        assert sum(len(keys) for _, keys in cli.COMMANDS.values()) == 110

    def test_every_schema_key_is_taken_by_a_command(self):
        # a key no command takes could be set in a config file and never read
        assert set(cli.CONFIG_SCHEMA) == {key for _, keys in cli.COMMANDS.values() for key in keys}

    def test_each_command_reads_exactly_its_keys(
        self, monkeypatch, small_config, data_dir, generic_ckpt, teacher_ckpt, tmp_path
    ):
        configs = []
        resolve = cli.resolve_config

        def recording(args):
            configs.append((args.command, _Reads(resolve(args))))
            return configs[-1][1]

        monkeypatch.setattr(cli, "resolve_config", recording)
        target, generic = str(data_dir / "target"), str(generic_ckpt)
        student = ["pretrain-student", "--data", target, "--steps", "1"]
        runs = [
            ["gen-data"],
            ["pretrain-generic", "--data", str(data_dir / "generic"), "--steps", "1"],
            ["adapt-teacher", "--data", target, "--generic", generic, "--steps", "1"],
            student,
            [*student, "--distill", "--teacher", str(teacher_ckpt)],
            *(["linear-probe", "--data", target, "--mode", mode,
               *([] if mode == "teacher" else ["--ckpt", generic]),
               *([] if mode == "student" else ["--teacher", generic])] for mode in MODES),
            ["sweep-labels", "--data", target, "--teacher", generic, "--plain", generic,
             "--distilled", generic, "--init-student", generic, "--fractions", "1.0"],
            ["gradcheck", "--gradcheck-instances", "1"],
        ]
        for i, argv in enumerate(runs):
            assert run([*argv, "--config", small_config, "--out", str(tmp_path / str(i))]) == 0
        read = {}
        for command, cfg in configs:
            assert set(cfg) == set(cli.COMMANDS[command][1]), command
            read.setdefault(command, set()).update(cfg.read)
        assert read == {command: set(keys) for command, (_, keys) in cli.COMMANDS.items()}

    @pytest.mark.parametrize("command, args, named", (
        # flags a command would ignore
        ("linear-probe", ["--steps", "10", "--lambda", "3", "--lr", "9"],
         "unrecognized arguments: --steps 10 --lambda 3 --lr 9"),
        ("gen-data", ["--teacher", "nowhere", "--lambda", "4"],
         "unrecognized arguments: --teacher nowhere --lambda 4"),
        # abbreviations of flags the command takes
        ("linear-probe", ["--probe-step", "10", "--label", "0.5", "--hold", "0.3"],
         "unrecognized arguments: --probe-step 10 --label 0.5 --hold 0.3"),
        ("pretrain-student", ["--init", "{ckpt}"], "unrecognized arguments: --init"),
        ("pretrain-student", ["--distill", "--teach", "{ckpt}"], "unrecognized arguments: --teach"),
        # encoder keys, which only the commands that make an encoder take
        ("linear-probe", ["--d-backbone", "40"], "unrecognized arguments: --d-backbone 40"),
        ("adapt-teacher", ["--embed-dim", "64"], "unrecognized arguments: --embed-dim 64"),
        # keys no command takes: a new encoder's come from the data and the views
        ("pretrain-student", ["--in-channels", "3", "--input-size", "40"],
         "unrecognized arguments: --in-channels 3 --input-size 40"),
    ))
    def test_a_flag_the_command_does_not_take_is_a_usage_error(
        self, command, args, named, data_dir, generic_ckpt, tmp_path, capsys
    ):
        inputs = {
            "linear-probe": ["--data", str(data_dir / "target"), "--ckpt", str(generic_ckpt)],
            "pretrain-student": ["--data", str(data_dir / "target"), "--steps", "1"],
            "adapt-teacher": ["--data", str(data_dir / "target"), "--generic", str(generic_ckpt),
                              "--steps", "1"],
            "gen-data": [],
        }[command]
        args = [a.replace("{ckpt}", str(generic_ckpt)) for a in args]
        out = tmp_path / "out"
        assert run([command, *inputs, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        # the command's own usage, which lists the flags it does take
        assert f"usage: distill-ssl {command} [-h]" in err and named in err
        assert "distill-ssl [-h] command" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_lists_exactly_the_commands_keys(self, command, capsys):
        assert run([command, "--help"]) == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        expected = {"--help", "--config"}
        for key in cli.COMMANDS[command][1]:
            expected.add("--" + key.replace("_", "-"))
            if cli.CONFIG_SCHEMA[key][0] is bool:
                expected.add("--no-" + key.replace("_", "-"))
        assert flags == expected


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_step_page_faults_do_not_hang_on_the_loader(tmp_path):
    # an 80-frame dataset frees too small a file buffer to raise glibc's own
    # mmap threshold; with the CLI's fixed policy its steps still reuse the heap
    assert run(["gen-data", "--target-frames-per-phase", "20", "--generic-frames-per-phase", "1",
                "--out", str(tmp_path / "data")]) == 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(distill_ssl.__file__)))
    faults = {}
    for steps in (10, 40):
        with open(tmp_path / f"err{steps}", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "distill_ssl", "pretrain-student", "--steps", str(steps),
                 "--data", str(tmp_path / "data" / "target"), "--out", str(tmp_path / str(steps))],
                env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
            # the usage of the process and of the view worker it reaped
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, (tmp_path / f"err{steps}").read_text()
        faults[steps] = usage.ru_minflt
    assert (faults[40] - faults[10]) / 30 < 100, faults


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_a_library_caller_gets_the_allocator_policy(tmp_path):
    # the policy is applied when the package is imported, so a caller that
    # never runs the CLI reuses the heap as well
    script = ("import sys\n"
              "from distill_ssl import pipeline\n"
              "from distill_ssl.contrastive import EncoderConfig, TrainConfig\n"
              "from distill_ssl.data import generate_synthetic_dataset, target_spec\n"
              "dataset = generate_synthetic_dataset(target_spec(4, 20), 7)\n"
              "pipeline.pretrain(dataset, EncoderConfig(), TrainConfig(steps=int(sys.argv[1])))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(distill_ssl.__file__)))
    faults = {}
    for steps in (10, 40):
        with open(tmp_path / f"err{steps}", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", script, str(steps)], env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, (tmp_path / f"err{steps}").read_text()
        faults[steps] = usage.ru_minflt
    assert (faults[40] - faults[10]) / 30 < 100, faults


def test_a_diverging_run_stops_at_the_first_overflow(tmp_path, capsys):
    # at --lr 1e6 the parameters grow about 100x a step; backprop overflows at
    # step 9, seven steps before the key embeddings collapse
    assert run(["gen-data", "--target-frames-per-phase", "20", "--generic-frames-per-phase", "1",
                "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    assert run(["pretrain-student", "--lr", "1e6", "--steps", "30",
                "--data", str(tmp_path / "data" / "target"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DivergenceError: overflow encountered in multiply "
                          "in the backward pass at step 9\n"), err
    assert not (tmp_path / "out").exists()


class TestProbeSplit:
    """``_probe_inputs`` splits the dataset it loaded by row index: each split
    reads its rows from the blob as they are asked for."""

    @staticmethod
    def probe_inputs(path, holdout):
        """The class count and the two splits."""
        cfg = {key: spec[1] for key, spec in cli.CONFIG_SCHEMA.items()}
        cfg.update(data=str(path), holdout_fraction=holdout, seed=3)
        return cli._probe_inputs(cfg)[2:]

    @pytest.mark.parametrize("holdout", [0.5, 0.3])
    def test_splits_hold_the_rows_split_indices_picks(self, holdout, tmp_path):
        rng = np.random.default_rng(2)
        labels = rng.permutation(np.repeat(np.arange(4), [7, 13, 5, 10]))  # unequal classes
        frames = rng.random((35, 1, 32, 32))
        save_dataset(Dataset(frames, labels), tmp_path / "d")
        num_classes, *got = self.probe_inputs(tmp_path / "d", holdout)
        assert num_classes == 4
        for split, rows in zip(got, split_indices(labels, holdout, seed=3)):
            with split:
                assert split.frames.tobytes() == frames[rows].tobytes()
                assert split.labels.tobytes() == labels[rows].tobytes()

    def test_load_and_split_hold_no_frames(self, tmp_path, monkeypatch):
        save_dataset(generate_synthetic_dataset(target_spec(4, 3), 1), tmp_path / "small")
        for split in self.probe_inputs(tmp_path / "small", 0.5)[1:]:  # numpy's lazy imports
            split.release_frames()  # are not the split's
        save_dataset(generate_synthetic_dataset(target_spec(), 1), tmp_path / "d")  # 1200 frames
        log_row_reads(monkeypatch, tmp_path / "reads")
        tracemalloc.start()
        try:
            splits = self.probe_inputs(tmp_path / "d", 0.5)[1:]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for split in splits:
            split.release_frames()
        assert peak < 0.05 * 1200 * 32 * 32 * 8, peak
        assert row_reads(tmp_path / "reads") == []
