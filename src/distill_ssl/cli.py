"""Command-line orchestration of the training and evaluation pipeline.

Configuration is a flat JSON schema.  Each command takes only the keys it
reads (``COMMANDS``), and one config file may hold those of the whole
pipeline; a loaded checkpoint brings its own architecture, so only the
commands that make an encoder take its keys, and a new one takes its
channels from --data and its input side from --view-size.  Flags override
file values, which override built-in defaults (flag > file > env > default
for the seed).  Every command checks its keys, builds its configs, loads
--data (and splits it, for probing), loads checkpoints and runs, and only
then creates --out to write its resolved config.json plus its metrics and
checkpoints there, so bad input fails before any load and leaves nothing
behind.  A flag the command does not take, a value that cannot be parsed
or that a config rejects, and an --init-from of another architecture are
usage errors: the command exits 2 and prints its own usage.  Progress
goes to stderr; files carry the machine-readable results.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, replace
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
    check_holdout_fraction,
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
    "conv_channels": (str, ",".join(map(str, _ENC.conv_channels)), "conv layer channel counts"),
    "kernel_size": (int, _ENC.kernel_size, "conv kernel size"),
    "conv_stride": (int, _ENC.stride, "conv stride"),
    "conv_pad": (int, _ENC.pad, "conv zero padding"),
    "d_backbone": (int, _ENC.d_backbone, "backbone feature dimension"),
    "embed_dim": (int, _ENC.d, "projection head output dimension"),
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


def _parse_value(key: str, raw):
    """A config file's value checked against the key's type; null stands
    only for a key whose default is None (the paths and distill_tau)."""
    kind, default, _ = CONFIG_SCHEMA[key]
    if raw is None and default is None:
        return None
    accepted, name = _JSON_TYPES[kind]
    if not isinstance(raw, accepted) or (isinstance(raw, bool) and kind is not bool):
        raise CliError(f"config key {key!r} must be {name}, got {json.dumps(raw)}")
    return kind(raw)


def _load_config_file(path: str) -> dict:
    """A config file's values, each checked against the schema; one file
    may hold the keys of every command."""
    try:
        loaded = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    values = {}
    for key, value in loaded.items():
        if key == "command":  # provenance marker in emitted config.json
            continue
        if key not in CONFIG_SCHEMA:
            raise CliError(f"unknown config key {key!r} in {path}")
        values[key] = _parse_value(key, value)
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """The command's keys: defaults < config file < command-line flags; env seed as fallback."""
    config = {key: CONFIG_SCHEMA[key][1] for key in COMMANDS[args.command][1]}
    loaded = _load_config_file(args.config) if args.config is not None else {}
    flags = {key: getattr(args, key) for key in config if getattr(args, key) is not None}
    if "seed" in config and "seed" not in loaded and "seed" not in flags and SEED_ENV in os.environ:
        try:
            config["seed"] = int(os.environ[SEED_ENV])
        except ValueError:
            raise CliError(f"{SEED_ENV}: cannot read {os.environ[SEED_ENV]!r} as int")
    config.update((key, value) for key, value in loaded.items() if key in config)
    config.update(flags)
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


def _distinct(cfg: dict, key: str, kind) -> list:
    """``_list``, refusing a value given twice (it would repeat or merge rows)."""
    values = _list(cfg, key, kind)
    if len(set(values)) < len(values):
        raise CliError(f"{key} lists a value more than once, got {cfg[key]!r}")
    return values


def _usage_error(build):
    """``build`` with a ValueError (a value the config it builds rejects)
    raised as a CliError, so the command exits 2 with usage."""

    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            raise CliError(str(exc)) from exc

    return checked


@_usage_error
def encoder_config(cfg: dict) -> EncoderConfig:
    """A new encoder of the views, of the default channel count until the
    data is loaded; ``EncoderConfig`` refuses one whose kernels do not fit."""
    return EncoderConfig(
        input_size=(cfg["view_size"], cfg["view_size"]),
        conv_channels=tuple(_list(cfg, "conv_channels", int)),
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


@_usage_error
def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        tau=cfg["tau"],
        m=cfg["m"],
        lam=cfg.get("lambda", _TRAIN.lam),  # only pretrain-student takes the distill keys
        batch_size=cfg["batch_size"],
        queue_size=cfg["queue_size"],
        lr=cfg["lr"],
        momentum=cfg["sgd_momentum"],
        weight_decay=cfg["weight_decay"],
        steps=cfg["steps"],
        seed=cfg["seed"],
        distill_tau=cfg.get("distill_tau", _TRAIN.distill_tau),
        augment=augment_config(cfg),
    )


@_usage_error
def probe_config(cfg: dict, **fields) -> ProbeConfig:
    return ProbeConfig(lr=cfg["probe_lr"], steps=cfg["probe_steps"],
                       weight_decay=cfg["probe_weight_decay"], **fields)


def _require(cfg: dict, command: str, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise CliError(f"{command} requires --{' --'.join(m.replace('_', '-') for m in missing)}")


def _refuse(cfg: dict, command: str, *keys: str) -> None:
    """A usage error for each key given to a command in a mode that does not read it."""
    given = [k for k in keys if cfg.get(k)]
    if given:
        raise CliError(f"{command} takes no --{' --'.join(k.replace('_', '-') for k in given)}")


def _out_dir(cfg: dict) -> Path:
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


def _query_encoder(path):
    """The checkpoint's query encoder, or None when no checkpoint is named."""
    return load_encoders(path, ("query",))[0] if path else None


def cmd_gen_data(cfg: dict) -> int:
    _require(cfg, "gen-data", "out")
    size = (cfg["image_size"], cfg["image_size"])
    tspec = _usage_error(target_spec)(cfg["target_phases"], cfg["target_frames_per_phase"], size)
    gspec = _usage_error(generic_spec)(cfg["generic_classes"], cfg["generic_frames_per_phase"],
                                       size)
    out = _out_dir(cfg)
    rows = ["dataset,frames,classes"]
    for name, spec, seed in (("target", tspec, cfg["seed"]), ("generic", gspec, cfg["seed"] + 1)):
        dataset = generate_synthetic_dataset(spec, seed)
        save_dataset(dataset, out / name, config={"seed": seed, "domain": spec.domain_tag})
        rows.append(f"{name},{len(dataset)},{spec.num_phases}")
        _progress(f"gen-data: wrote {name} ({len(dataset)} frames)")
    (out / "metrics.csv").write_text("\n".join(rows) + "\n")
    _write_provenance(out, "gen-data", cfg)
    return 0


def _train(cfg: dict, command: str, stage, *checkpoints: str, **options) -> int:
    """Run ``stage(dataset, *checkpoint paths, cfg=train_cfg, **options)``,
    plus ``enc_cfg`` (the views' side, the data's channels) for a command
    that makes an encoder, and write its metrics, checkpoint and provenance.
    The stage takes the loaded dataset over and releases it once its worker
    has forked; a stage that fails before then leaves it to the ``with`` block."""
    _require(cfg, command, "data", "out", *checkpoints)
    train_cfg = train_config(cfg)  # the view size is checked before the encoder is fitted to it
    enc_cfg = encoder_config(cfg) if "embed_dim" in cfg else None
    with load_dataset(cfg["data"])[0] as dataset:
        if enc_cfg is not None:
            options["enc_cfg"] = replace(enc_cfg, in_channels=dataset.shape[1])
        run = stage(dataset, *(cfg[key] for key in checkpoints), cfg=train_cfg, **options)
    out = _out_dir(cfg)
    _write_train_metrics(out, run)
    pipeline.save_model(run.state, out / "checkpoint", config={"seed": cfg["seed"]})
    _write_provenance(out, command, cfg)
    losses = f", loss {run.steps[0].total:.4f} -> {run.steps[-1].total:.4f}" if run.steps else ""
    _progress(f"{command}: {len(run.steps)} steps{losses}")
    return 0


def cmd_pretrain_generic(cfg: dict) -> int:
    return _train(cfg, "pretrain-generic", pipeline.pretrain)


def cmd_adapt_teacher(cfg: dict) -> int:
    return _train(cfg, "adapt-teacher", pipeline.adapt_teacher, "generic",
                  freeze_backbone=cfg["freeze_backbone"])


def cmd_pretrain_student(cfg: dict) -> int:
    if cfg["distill"]:
        _require(cfg, "pretrain-student --distill", "teacher")
        _refuse(cfg, "pretrain-student --distill", "init_from")
        return _train(cfg, "pretrain-student", pipeline.pretrain_distilled, "teacher")
    _refuse(cfg, "pretrain-student without --distill", "teacher")
    return _train(cfg, "pretrain-student", pipeline.pretrain, init_from=cfg["init_from"])


def _probe_inputs(cfg: dict, **probe_fields):
    """Probe config, probe seeds, class count, and the train/holdout split
    of --data; every value is checked before --data or any checkpoint is
    read.  Each split reads its rows from the blob, through a handle of its
    own, only as they are asked for; the caller releases both."""
    probe = probe_config(cfg, **probe_fields)
    seeds = _distinct(cfg, "probe_seeds", int)
    _usage_error(check_holdout_fraction)(cfg["holdout_fraction"])
    with load_dataset(cfg["data"])[0] as dataset:
        train_set, test_set = split_dataset(dataset, cfg["holdout_fraction"], cfg["seed"])
    return probe, seeds, int(dataset.labels.max()) + 1, train_set, test_set


def cmd_linear_probe(cfg: dict) -> int:
    mode = cfg["mode"]
    if mode not in MODES:
        raise CliError(f"mode must be one of {MODES}, got {mode!r}")
    keys = {"student": ("ckpt",), "teacher": ("teacher",)}.get(mode, ("ckpt", "teacher"))
    _require(cfg, "linear-probe", "data", "out", *keys)
    _refuse(cfg, f"linear-probe --mode {mode}", *(k for k in ("ckpt", "teacher") if k not in keys))
    probe, seeds, num_classes, train_set, test_set = _probe_inputs(
        cfg, label_fraction=cfg["label_fraction"]
    )
    with train_set, test_set:
        student, teacher = (_query_encoder(cfg[key]) for key in ("ckpt", "teacher"))
        ftr = extract_features(student, teacher, train_set, mode)
        fte = extract_features(student, teacher, test_set, mode)
    rows = []
    for seed in seeds:
        model = fit_linear_probe(ftr, replace(probe, seed=seed), num_classes)
        metrics = compute_phase_metrics(model.predict(fte.features), fte.labels, num_classes)
        rows.append({"encoder": mode, "mode": mode, "fraction": probe.label_fraction,
                     "seed": seed, **asdict(metrics)})
        _progress(f"linear-probe: seed {seed} accuracy {metrics.accuracy:.4f}")
    out = _out_dir(cfg)
    write_results_csv(rows, out / "metrics.csv")
    _write_provenance(out, "linear-probe", cfg)
    return 0


# Sweep arms as (name, mode, student key, teacher key); an arm runs when
# every checkpoint it names is given.
_SWEEP_ARMS = (
    ("teacher", "teacher", None, "teacher"),
    ("plain", "student", "plain", None),
    ("addition", "addition", "plain", "teacher"),
    ("concatenation", "concatenation", "plain", "teacher"),
    ("initialization", "student", "init_student", None),
    ("distillation", "student", "distilled", None),
)


def cmd_sweep_labels(cfg: dict) -> int:
    _require(cfg, "sweep-labels", "data", "out")
    arms = [arm for arm in _SWEEP_ARMS if all(cfg[key] for key in arm[2:] if key)]
    if not arms:
        raise CliError("sweep-labels needs at least one checkpoint "
                       "(--teacher/--plain/--distilled/--init-student)")
    fractions = _distinct(cfg, "fractions", float)
    for fraction in fractions:  # ProbeConfig holds the range check
        probe_config(cfg, label_fraction=fraction)
    probe, seeds, num_classes, train_set, test_set = _probe_inputs(cfg)
    with train_set, test_set:  # the sweep releases them once its worker has forked
        # Each checkpoint key has an arm of its own, so every given one is used.
        loaded = {key: _query_encoder(cfg[key])
                  for key in ("teacher", "plain", "init_student", "distilled")}
        encoders = [SweepEncoder(name, mode, loaded.get(s), loaded.get(t))
                    for name, mode, s, t in arms]
        rows, summary = label_efficiency_sweep(
            encoders, fractions, seeds, train_set, test_set, num_classes, probe=probe
        )
    out = _out_dir(cfg)
    write_results_csv(rows, out / "metrics.csv")
    write_summary_json(summary, out / "summary.json")
    write_accuracy_svg(summary, out / "accuracy.svg")
    _write_provenance(out, "sweep-labels", cfg)
    _progress(f"sweep-labels: {len(rows)} rows over {len(encoders)} encoders")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    _require(cfg, "gradcheck", "out")
    if cfg["gradcheck_instances"] < 1:
        raise CliError(f"gradcheck_instances must be >= 1, got {cfg['gradcheck_instances']}")
    ok, report, text, elapsed = main_check(instances=cfg["gradcheck_instances"])
    _progress(text)
    _progress(f"gradcheck: {'all ok' if ok else 'FAILED'} in {elapsed:.1f}s")
    lines = ["op,max_rel_err,instances"]
    for op, entry in report.items():
        lines.append(f"{op},{entry['max_rel_err']:.3e},{entry['instances']}")
    out = _out_dir(cfg)
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    _write_provenance(out, "gradcheck", cfg)
    return 0 if ok else 1


# The keys each config builder reads; a command takes those of the builders it calls.
_ENCODER_KEYS = ("conv_channels", "kernel_size", "conv_stride", "conv_pad", "d_backbone",
                 "embed_dim")
_AUGMENT_KEYS = ("crop_scale_lo", "crop_scale_hi", "flip_prob", "brightness_delta",
                 "contrast_lo", "contrast_hi", "aug_noise_sigma", "view_size")
_TRAIN_KEYS = ("data", "out", "seed", "tau", "m", "batch_size", "queue_size", "lr",
               "sgd_momentum", "weight_decay", "steps", *_AUGMENT_KEYS)
_PROBE_KEYS = ("data", "out", "seed", "probe_lr", "probe_steps", "probe_weight_decay",
               "probe_seeds", "holdout_fraction")

# command: (handler, the keys it reads); its parser takes only those.
COMMANDS = {
    "gen-data": (cmd_gen_data, ("out", "seed", "image_size", "target_phases",
                                "target_frames_per_phase", "generic_classes",
                                "generic_frames_per_phase")),
    "pretrain-generic": (cmd_pretrain_generic, (*_TRAIN_KEYS, *_ENCODER_KEYS)),
    "adapt-teacher": (cmd_adapt_teacher, (*_TRAIN_KEYS, "generic", "freeze_backbone")),
    "pretrain-student": (cmd_pretrain_student, (*_TRAIN_KEYS, *_ENCODER_KEYS, "lambda",
                                                "distill_tau", "distill", "teacher", "init_from")),
    "linear-probe": (cmd_linear_probe, (*_PROBE_KEYS, "label_fraction", "mode", "ckpt",
                                        "teacher")),
    "sweep-labels": (cmd_sweep_labels, (*_PROBE_KEYS, "fractions", "teacher", "plain",
                                        "distilled", "init_student")),
    "gradcheck": (cmd_gradcheck, ("out", "gradcheck_instances")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distill-ssl",
        description="Deterministic desk-scale contrastive pretraining with teacher distillation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=f"{command} stage", allow_abbrev=False)
        p.set_defaults(print_usage=p.print_usage)  # usage errors show the command's own
        p.add_argument("--config", help="JSON config file (flat schema)")
        for key in keys:
            kind, default, help_text = CONFIG_SCHEMA[key]
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
        args, unknown = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if unknown:
            raise CliError(f"unrecognized arguments: {' '.join(unknown)}")
        return COMMANDS[args.command][0](resolve_config(args))
    except (CliError, pipeline.ArchitectureError) as exc:
        code, message = 2, str(exc)
    except Exception as exc:  # surface domain errors with usage context
        code, message = 1, f"{type(exc).__name__}: {exc}"
    print(f"error: {message}", file=sys.stderr)
    args.print_usage(sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
