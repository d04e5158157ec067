"""CLI dispatch, config precedence, provenance, determinism."""

import ctypes
import json
import os
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
from distill_ssl.eval import ProbeConfig, split_indices

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
        assert probe_config(cfg) == ProbeConfig()
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

    @pytest.mark.parametrize("mode, used, unused", (("student", "ckpt", "teacher"),
                                                    ("teacher", "teacher", "ckpt")))
    def test_linear_probe_reads_only_the_checkpoints_its_mode_uses(
        self, mode, used, unused, small_config, data_dir, teacher_ckpt, tmp_path
    ):
        common = ["linear-probe", "--config", small_config, "--data", str(data_dir / "target"),
                  "--mode", mode, f"--{used}", str(teacher_ckpt)]
        assert run([*common, "--out", str(tmp_path / "alone")]) == 0
        assert run([*common, f"--{unused}", str(tmp_path / "missing"),
                    "--out", str(tmp_path / "extra")]) == 0
        alone = (tmp_path / "alone" / "metrics.csv").read_bytes()
        assert (tmp_path / "extra" / "metrics.csv").read_bytes() == alone

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
            # a kernel must fit every conv layer's padded input: the views for training
            ("pretrain-student", ["--kernel-size", "40"], "larger than conv1's padded input 34x34"),
            ("pretrain-student", ["--kernel-size", "20"], "larger than conv2's padded input 10x10"),
            ("pretrain-student", ["--view-size", "16", "--kernel-size", "12"], "conv2's"),
            # and the resized frames for probing
            ("linear-probe", ["--kernel-size", "40"], "larger than conv1's padded input 34x34"),
            ("linear-probe", ["--input-size", "16", "--kernel-size", "12"], "conv2's"),
            ("sweep-labels", ["--kernel-size", "20"], "larger than conv2's padded input 10x10"),
            # --data does not exist either: the kernel and the split fraction are
            # checked before it is read
            ("pretrain-student", ["--data", "{missing}", "--kernel-size", "40"], "conv1's"),
            ("sweep-labels", ["--data", "{missing}", "--input-size", "8", "--kernel-size", "9"],
             "conv2's"),
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
            # the training commands other than pretrain-student read no student-only key
            ("pretrain-generic", ["--init-from", "{missing}"], "pretrain-generic takes no --init-from"),
            ("pretrain-generic", ["--distill"], "pretrain-generic takes no --distill"),
            ("pretrain-generic", ["--teacher", "{missing}"], "pretrain-generic takes no --teacher"),
            ("pretrain-generic", ["--data", "{missing}", "--init-from", "{missing}", "--distill",
                                  "--teacher", "{missing}"],
             "takes no --init-from --distill --teacher"),
            ("adapt-teacher", ["--init-from", "{missing}"], "adapt-teacher takes no --init-from"),
            ("adapt-teacher", ["--distill"], "adapt-teacher takes no --distill"),
            ("adapt-teacher", ["--teacher", "{missing}"], "adapt-teacher takes no --teacher"),
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
        assert "usage:" in err
        assert named in err and "missing manifest" not in err
        assert not out.exists()

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
        # eval.fit_linear_probe call as one sweep step and needs one per row
        assert run(["sweep-labels", *common, "--plain", str(generic_ckpt), "--teacher",
                    str(generic_ckpt), "--fractions", "0.5,1.0", "--probe-seeds", "0,1",
                    "--out", str(tmp_path / "sweep")]) == 0
        rows = (tmp_path / "sweep" / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 * 2 * 2
        assert calls == {"cli.generate_synthetic_dataset": 2, "cli.fit_linear_probe": 2,
                         "cli.label_efficiency_sweep": 1, "eval.fit_linear_probe": len(rows)}

    @pytest.mark.parametrize("command", ["pretrain-student", "sweep-labels"])
    def test_a_command_holds_no_frames_by_its_first_step(
        self, command, monkeypatch, small_config, data_dir, generic_ckpt, tmp_path
    ):
        # the forked worker reads the rows, a batch's at a time; the command's own
        # process reads none, and has closed every handle on the blob by its first step
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
        assert_no_read_covers_every_row(tmp_path / "reads", worker_only=True)

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
        return cli._probe_inputs(cfg)[3:]

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
