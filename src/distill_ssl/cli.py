"""Command-line orchestration of the training and evaluation pipeline.

Configuration is a flat JSON schema; command-line flags override file
values, which override built-in defaults (flag > file > env > default
for the seed).  Every command writes its resolved config.json plus its
metrics and checkpoints under --out.  Progress goes to stderr; files
carry the machine-readable results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .augment import AugmentConfig
from .contrastive import EncoderConfig, TrainConfig, load_encoders
from .data import (
    generate_synthetic_dataset,
    generic_spec,
    load_dataset,
    save_dataset,
    target_spec,
)
from .eval import (
    MODES,
    ProbeConfig,
    SweepEncoder,
    compute_phase_metrics,
    extract_features,
    fit_linear_probe,
    label_efficiency_sweep,
    split_dataset,
    write_accuracy_svg,
    write_results_csv,
    write_summary_json,
)
from .gradcheck import main_check
from . import pipeline

SEED_ENV = "DISTILL_SSL_SEED"

_TRAIN = TrainConfig()
_AUG = _TRAIN.augment
_ENC = EncoderConfig()
_PROBE = ProbeConfig()
_TARGET = target_spec()
_GENERIC = generic_spec()

# key: (type, default, help); list-valued keys are comma-separated strings.
# Keys that build a config dataclass or a dataset spec take its default.
CONFIG_SCHEMA: dict[str, tuple] = {
    "seed": (int, _TRAIN.seed, "run seed (flag > file > env DISTILL_SSL_SEED > default)"),
    "tau": (float, _TRAIN.tau, "similarity temperature"),
    "m": (float, _TRAIN.m, "key-encoder momentum coefficient"),
    "lambda": (float, _TRAIN.lam, "distillation loss weight"),
    "batch_size": (int, _TRAIN.batch_size, "frames per training step"),
    "queue_size": (int, _TRAIN.queue_size, "key queue capacity (multiple of batch_size)"),
    "lr": (float, _TRAIN.lr, "SGD learning rate"),
    "sgd_momentum": (float, _TRAIN.momentum, "SGD momentum"),
    "weight_decay": (float, _TRAIN.weight_decay, "SGD weight decay"),
    "steps": (int, _TRAIN.steps, "training steps per stage"),
    "distill_tau": (float, _TRAIN.distill_tau, "distillation temperature (defaults to tau)"),
    "in_channels": (int, _ENC.in_channels, "encoder input channels"),
    "conv_channels": (str, ",".join(map(str, _ENC.conv_channels)), "conv layer channel counts"),
    "kernel_size": (int, _ENC.kernel_size, "conv kernel size"),
    "conv_stride": (int, _ENC.stride, "conv stride"),
    "conv_pad": (int, _ENC.pad, "conv zero padding"),
    "d_backbone": (int, _ENC.d_backbone, "backbone feature dimension"),
    "embed_dim": (int, _ENC.d, "projection head output dimension"),
    "input_size": (int, _ENC.input_size[0], "encoder input side length"),
    "crop_scale_lo": (float, _AUG.crop_scale_range[0], "random crop minimum area fraction"),
    "crop_scale_hi": (float, _AUG.crop_scale_range[1], "random crop maximum area fraction"),
    "flip_prob": (float, _AUG.flip_prob, "horizontal flip probability"),
    "brightness_delta": (float, _AUG.brightness_delta, "brightness jitter half-range"),
    "contrast_lo": (float, _AUG.contrast_range[0], "contrast jitter lower bound"),
    "contrast_hi": (float, _AUG.contrast_range[1], "contrast jitter upper bound"),
    "aug_noise_sigma": (float, _AUG.noise_sigma, "gaussian pixel noise sigma"),
    "view_size": (int, _AUG.output_size[0], "augmented view side length"),
    "target_phases": (int, _TARGET.num_phases, "target-domain phase count"),
    "target_frames_per_phase": (int, _TARGET.frames_per_phase, "target-domain frames per phase"),
    "generic_classes": (int, _GENERIC.num_phases, "generic-domain class count"),
    "generic_frames_per_phase": (int, _GENERIC.frames_per_phase, "generic-domain frames per class"),
    "image_size": (int, _TARGET.image_size[0], "synthetic image side length"),
    "probe_lr": (float, _PROBE.lr, "linear probe learning rate"),
    "probe_steps": (int, _PROBE.steps, "linear probe gradient-descent steps"),
    "probe_weight_decay": (float, _PROBE.weight_decay, "linear probe L2 penalty"),
    "label_fraction": (float, 0.1, "labelled fraction for linear-probe"),
    "probe_seeds": (str, "0,1,2", "probe subset seeds"),
    "holdout_fraction": (float, 0.5, "held-out split fraction for probing"),
    "fractions": (str, "0.05,0.1,0.5,1.0", "label fractions for sweep-labels"),
    "gradcheck_instances": (int, 100, "random instances per op in gradcheck"),
    "out": (str, None, "output directory"),
    "data": (str, None, "dataset file (base path of .json/.bin pair)"),
    "generic": (str, None, "generic pretraining checkpoint"),
    "teacher": (str, None, "teacher checkpoint"),
    "ckpt": (str, None, "encoder checkpoint to evaluate"),
    "plain": (str, None, "plain student checkpoint (sweep arms)"),
    "distilled": (str, None, "distilled student checkpoint (sweep arms)"),
    "init_student": (str, None, "teacher-initialized student checkpoint"),
    "init_from": (str, None, "checkpoint to initialize the student from"),
    "mode": (str, "student", f"feature transfer mode, one of {MODES}"),
    "distill": (bool, False, "train the student with the distillation objective"),
    "freeze_backbone": (bool, True, "freeze the teacher backbone during adaptation"),
}

class CliError(RuntimeError):
    pass


# The JSON types a config-file value may take, by key type; a boolean is no integer.
_JSON_TYPES = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}


def _parse_value(key: str, kind, raw):
    if raw is None:
        return None
    accepted, name = _JSON_TYPES[kind]
    if not isinstance(raw, accepted) or (isinstance(raw, bool) and kind is not bool):
        raise CliError(f"config key {key!r} must be {name}, got {json.dumps(raw)}")
    return kind(raw)


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < command-line flags; env seed as fallback."""
    config = {key: default for key, (_, default, _) in CONFIG_SCHEMA.items()}
    file_has_seed = False
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise CliError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise CliError(f"config file {args.config} must hold a JSON object")
        for key, value in loaded.items():
            if key == "command":  # provenance marker in emitted config.json
                continue
            if key not in CONFIG_SCHEMA:
                raise CliError(f"unknown config key {key!r} in {args.config}")
            kind = CONFIG_SCHEMA[key][0]
            config[key] = _parse_value(key, kind, value)
        file_has_seed = "seed" in loaded
    flag_has_seed = False
    for key in CONFIG_SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
            if key == "seed":
                flag_has_seed = True
    if not flag_has_seed and not file_has_seed and SEED_ENV in os.environ:
        try:
            config["seed"] = int(os.environ[SEED_ENV])
        except ValueError:
            raise CliError(f"{SEED_ENV}: cannot read {os.environ[SEED_ENV]!r} as int")
    return config


def _list(cfg: dict, key: str, kind) -> list:
    """A comma-separated config value as a non-empty list of ``kind``."""
    try:
        values = [kind(tok) for tok in str(cfg[key]).split(",") if tok.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise CliError(f"{key} must be a comma-separated list of {kind.__name__}s, got {cfg[key]!r}")
    return values


def encoder_config(cfg: dict) -> EncoderConfig:
    channels = tuple(_list(cfg, "conv_channels", int))
    if len(channels) != 2:
        raise CliError(f"conv_channels must name two layers, got {cfg['conv_channels']!r}")
    return EncoderConfig(
        in_channels=cfg["in_channels"],
        input_size=(cfg["input_size"], cfg["input_size"]),
        conv_channels=channels,
        kernel_size=cfg["kernel_size"],
        stride=cfg["conv_stride"],
        pad=cfg["conv_pad"],
        d_backbone=cfg["d_backbone"],
        d=cfg["embed_dim"],
    )


def augment_config(cfg: dict) -> AugmentConfig:
    return AugmentConfig(
        crop_scale_range=(cfg["crop_scale_lo"], cfg["crop_scale_hi"]),
        flip_prob=cfg["flip_prob"],
        brightness_delta=cfg["brightness_delta"],
        contrast_range=(cfg["contrast_lo"], cfg["contrast_hi"]),
        noise_sigma=cfg["aug_noise_sigma"],
        output_size=(cfg["view_size"], cfg["view_size"]),
    )


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        tau=cfg["tau"],
        m=cfg["m"],
        lam=cfg["lambda"],
        batch_size=cfg["batch_size"],
        queue_size=cfg["queue_size"],
        lr=cfg["lr"],
        momentum=cfg["sgd_momentum"],
        weight_decay=cfg["weight_decay"],
        steps=cfg["steps"],
        seed=cfg["seed"],
        distill_tau=cfg["distill_tau"],
        augment=augment_config(cfg),
    )


def probe_config(cfg: dict, fraction: float, seed: int) -> ProbeConfig:
    return ProbeConfig(
        lr=cfg["probe_lr"],
        steps=cfg["probe_steps"],
        weight_decay=cfg["probe_weight_decay"],
        label_fraction=fraction,
        seed=seed,
    )


def _require(cfg: dict, command: str, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise CliError(f"{command} requires --{' --'.join(m.replace('_', '-') for m in missing)}")


def _out_dir(cfg: dict, command: str) -> Path:
    _require(cfg, command, "out")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_provenance(out: Path, command: str, cfg: dict) -> None:
    record = {"command": command}
    record.update(cfg)
    (out / "config.json").write_text(json.dumps(record, indent=1, sort_keys=True))


def _write_train_metrics(out: Path, run: pipeline.TrainRun) -> None:
    lines = ["step,loss,l_con,l_dis"]
    for i, r in enumerate(run.steps):
        lines.append(f"{i},{r.total!r},{r.l_con!r},{r.l_dis!r}")
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _query_encoder(path, enc_cfg: EncoderConfig):
    """The checkpoint's query encoder, or None when no checkpoint is named."""
    return load_encoders(path, enc_cfg, ("query",))[0] if path else None


def cmd_gen_data(cfg: dict) -> int:
    out = _out_dir(cfg, "gen-data")
    tspec = target_spec(cfg["target_phases"], cfg["target_frames_per_phase"],
                        (cfg["image_size"], cfg["image_size"]))
    gspec = generic_spec(cfg["generic_classes"], cfg["generic_frames_per_phase"],
                         (cfg["image_size"], cfg["image_size"]))
    rows = ["dataset,frames,classes"]
    for name, spec, seed in (("target", tspec, cfg["seed"]), ("generic", gspec, cfg["seed"] + 1)):
        dataset = generate_synthetic_dataset(spec, seed)
        save_dataset(dataset, out / name, config={"seed": seed, "domain": spec.domain_tag})
        rows.append(f"{name},{len(dataset)},{spec.num_phases}")
        _progress(f"gen-data: wrote {name} ({len(dataset)} frames)")
    (out / "metrics.csv").write_text("\n".join(rows) + "\n")
    _write_provenance(out, "gen-data", cfg)
    return 0


def _run_training(cfg: dict, command: str, run_fn) -> int:
    out = _out_dir(cfg, command)
    run = run_fn()
    _write_train_metrics(out, run)
    pipeline.save_model(run.state, out / "checkpoint",
                        config={"encoder": encoder_config(cfg).to_dict(), "seed": cfg["seed"]})
    _write_provenance(out, command, cfg)
    losses = f", loss {run.steps[0].total:.4f} -> {run.steps[-1].total:.4f}" if run.steps else ""
    _progress(f"{command}: {len(run.steps)} steps{losses}")
    return 0


def cmd_pretrain_generic(cfg: dict) -> int:
    _require(cfg, "pretrain-generic", "data")
    dataset, _ = load_dataset(cfg["data"])
    return _run_training(
        cfg, "pretrain-generic",
        lambda: pipeline.pretrain(dataset, encoder_config(cfg), train_config(cfg)),
    )


def cmd_adapt_teacher(cfg: dict) -> int:
    _require(cfg, "adapt-teacher", "data", "generic")
    dataset, _ = load_dataset(cfg["data"])
    return _run_training(
        cfg, "adapt-teacher",
        lambda: pipeline.adapt_teacher(
            dataset, cfg["generic"], encoder_config(cfg), train_config(cfg),
            freeze_backbone=cfg["freeze_backbone"],
        ),
    )


def cmd_pretrain_student(cfg: dict) -> int:
    _require(cfg, "pretrain-student", "data")
    dataset, _ = load_dataset(cfg["data"])
    if cfg["distill"]:
        _require(cfg, "pretrain-student --distill", "teacher")
        run_fn = lambda: pipeline.pretrain_distilled(
            dataset, cfg["teacher"], encoder_config(cfg), train_config(cfg)
        )
    else:
        run_fn = lambda: pipeline.pretrain(
            dataset, encoder_config(cfg), train_config(cfg), init_from=cfg["init_from"]
        )
    return _run_training(cfg, "pretrain-student", run_fn)


def cmd_linear_probe(cfg: dict) -> int:
    _require(cfg, "linear-probe", "data", "out")
    mode = cfg["mode"]
    if mode not in MODES:
        raise CliError(f"mode must be one of {MODES}, got {mode!r}")
    if mode in ("student", "addition", "concatenation"):
        _require(cfg, "linear-probe", "ckpt")
    if mode in ("teacher", "addition", "concatenation"):
        _require(cfg, "linear-probe", "teacher")
    probe_seeds = _list(cfg, "probe_seeds", int)
    out = _out_dir(cfg, "linear-probe")
    enc_cfg = encoder_config(cfg)
    dataset, _ = load_dataset(cfg["data"])
    num_classes = int(dataset.labels.max()) + 1
    student = _query_encoder(cfg["ckpt"], enc_cfg)
    teacher = _query_encoder(cfg["teacher"], enc_cfg)
    train_set, test_set = split_dataset(dataset, cfg["holdout_fraction"], seed=cfg["seed"])
    ftr = extract_features(student, teacher, train_set, mode)
    fte = extract_features(student, teacher, test_set, mode)
    rows = []
    for seed in probe_seeds:
        probe = fit_linear_probe(ftr, probe_config(cfg, cfg["label_fraction"], seed), num_classes)
        metrics = compute_phase_metrics(probe.predict(fte.features), fte.labels, num_classes)
        rows.append({"encoder": mode, "mode": mode, "fraction": cfg["label_fraction"],
                     "seed": seed, **asdict(metrics)})
        _progress(f"linear-probe: seed {seed} accuracy {metrics.accuracy:.4f}")
    write_results_csv(rows, out / "metrics.csv")
    _write_provenance(out, "linear-probe", cfg)
    return 0


def cmd_sweep_labels(cfg: dict) -> int:
    _require(cfg, "sweep-labels", "data", "out")
    fractions, probe_seeds = _list(cfg, "fractions", float), _list(cfg, "probe_seeds", int)
    out = _out_dir(cfg, "sweep-labels")
    enc_cfg = encoder_config(cfg)
    dataset, _ = load_dataset(cfg["data"])
    num_classes = int(dataset.labels.max()) + 1
    encoders: list[SweepEncoder] = []
    teacher = _query_encoder(cfg["teacher"], enc_cfg)
    plain = _query_encoder(cfg["plain"], enc_cfg)
    if teacher is not None:
        encoders.append(SweepEncoder("teacher", "teacher", teacher=teacher))
    if plain is not None:
        encoders.append(SweepEncoder("plain", "student", student=plain))
    if teacher is not None and plain is not None:
        encoders.append(SweepEncoder("addition", "addition", student=plain, teacher=teacher))
        encoders.append(
            SweepEncoder("concatenation", "concatenation", student=plain, teacher=teacher)
        )
    if cfg["init_student"]:
        encoders.append(
            SweepEncoder("initialization", "student", student=_query_encoder(cfg["init_student"], enc_cfg))
        )
    if cfg["distilled"]:
        encoders.append(
            SweepEncoder("distillation", "student", student=_query_encoder(cfg["distilled"], enc_cfg))
        )
    if not encoders:
        raise CliError("sweep-labels needs at least one checkpoint "
                       "(--teacher/--plain/--distilled/--init-student)")
    train_set, test_set = split_dataset(dataset, cfg["holdout_fraction"], seed=cfg["seed"])
    rows, summary = label_efficiency_sweep(
        encoders, fractions, probe_seeds, train_set, test_set, num_classes,
        probe=probe_config(cfg, 1.0, 0),
    )
    write_results_csv(rows, out / "metrics.csv")
    write_summary_json(summary, out / "summary.json")
    write_accuracy_svg(summary, out / "accuracy.svg")
    _write_provenance(out, "sweep-labels", cfg)
    _progress(f"sweep-labels: {len(rows)} rows over {len(encoders)} encoders")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    out = _out_dir(cfg, "gradcheck")
    ok, report, text, elapsed = main_check(instances=cfg["gradcheck_instances"])
    _progress(text)
    _progress(f"gradcheck: {'all ok' if ok else 'FAILED'} in {elapsed:.1f}s")
    lines = ["op,max_rel_err,instances"]
    for op, entry in report.items():
        lines.append(f"{op},{entry['max_rel_err']:.3e},{entry['instances']}")
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    _write_provenance(out, "gradcheck", cfg)
    return 0 if ok else 1


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "pretrain-generic": cmd_pretrain_generic,
    "adapt-teacher": cmd_adapt_teacher,
    "pretrain-student": cmd_pretrain_student,
    "linear-probe": cmd_linear_probe,
    "sweep-labels": cmd_sweep_labels,
    "gradcheck": cmd_gradcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distill-ssl",
        description="Deterministic desk-scale contrastive pretraining with teacher distillation",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command in _HANDLERS:
        p = sub.add_parser(command, help=f"{command} stage")
        p.add_argument("--config", help="JSON config file (flat schema)")
        for key, (kind, default, help_text) in CONFIG_SCHEMA.items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                group = p.add_mutually_exclusive_group()
                group.add_argument(flag, dest=key, action="store_true", default=None,
                                   help=help_text)
                group.add_argument("--no-" + key.replace("_", "-"), dest=key,
                                   action="store_false", default=None,
                                   help=f"disable {key.replace('_', ' ')}")
            else:
                p.add_argument(flag, dest=key, type=kind, default=None,
                               help=f"{help_text} (default {default})")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = resolve_config(args)
        return _HANDLERS[args.command](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except Exception as exc:  # surface domain errors with usage context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
