"""distill-ssl benchmark: one workload at one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (the package is not installed:
``src/`` is put on the path of every process).  Inputs are generated from
the seed before any timed process starts.  Then the workload is repeated,
each repeat in fresh ``distill-ssl`` CLI processes launched through
``perfbench/child.py``, until ``--seconds`` have passed and at least the
workload's minimum number of repeats ran.  Every repeat must reproduce
the first one's artifacts bit for bit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and prints the per-layer metrics, including
the tracing overhead.  Progress and details go to stdout as lines that
start with ``perfbench``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when every
check passed, 1 when one failed, 2 when the checkout has no package.
"""

from __future__ import annotations

import os

# Pinned for this process before numpy loads, and passed to every child.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

from spans import now_ns  # noqa: E402
import layers  # noqa: E402

TRAIN_STEPS = 100  # per process: two repeats leave >= 10 steps beyond p95
# Per training stage of the quickstart pipeline.  At 40 steps the
# adapt-teacher loss has not yet moved (momentum SGD is still warming up).
PIPELINE_STEPS = 80
# Four balanced classes: chance is 0.25.  After 80-step stages the distilled
# student scores 0.40-0.99 over 80 seeds, so the floor catches collapse only.
PROBE_ACCURACY_FLOOR = 0.3
MIN_REPEATS = {"train_plain": 2, "train_distill": 2, "pipeline_cli": 3, "eval_sweep": 3}
RUN_BUDGET_S = 150.0  # no repeat starts that could end past this
INPUT_STREAM = 0xBE7C  # derives the generated checkpoints from the seed

END_TO_END = (
    ("samples_per_s", "frames/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PIPE = "distill_ssl.pipeline:"
CLI = "distill_ssl.cli:"


@dataclass
class Stage:
    name: str
    argv: list[str]
    out: Path
    main: str  # hook whose first call ends set-up
    step: str | None  # hook whose calls are the loop iterations
    kind: str  # train | sweep | probe | gen
    # Head-only adaptation: the checkpoint whose query backbone both sides
    # of this stage's checkpoint must keep bit for bit.
    frozen_from: Path | None = None

    @property
    def loops(self) -> bool:
        return self.kind in ("train", "sweep")


@dataclass
class Loop:
    start: int
    end: int
    intervals: list[int]

    @property
    def steps(self) -> int:
        return len(self.intervals)


@dataclass
class StageRun:
    stage: Stage
    rc: int
    launch_ns: int
    exit_ns: int
    maxrss_kib: int
    record: dict | None
    log: Path
    frames_per_step: float = 0.0

    @property
    def wall_ns(self) -> int:
        return self.exit_ns - self.launch_ns

    def calls(self, target: str | None) -> list:
        if target is None or self.record is None:
            return []
        return self.record["hooks"].get(target, [])

    @property
    def setup_ns(self) -> int | None:
        main = self.calls(self.stage.main)
        return main[0][0] - self.launch_ns if main else None

    def loop(self) -> Loop | None:
        main, steps = self.calls(self.stage.main), self.calls(self.stage.step)
        if not self.stage.loops or not main or not steps:
            return None
        ends = [end for _, end in steps]
        starts = [main[0][0]] + ends[:-1]
        return Loop(main[0][0], ends[-1], [b - a for a, b in zip(starts, ends)])


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    probe_accuracy: list[float] = field(default_factory=list)

    def fail(self, message: str, weight: int = 1) -> None:
        self.problems.append(message)
        self.failed += weight


# ---------------------------------------------------------------------------
# workloads


def _train(name, command, data, out, seed, steps, hook, *extra) -> Stage:
    argv = [command, "--data", str(data), "--out", str(out), "--seed", str(seed),
            "--steps", str(steps), *map(str, extra)]
    return Stage(name, argv, out, PIPE + hook, PIPE + hook, "train")


def stages_for(workload: str, seed: int, inputs: Path, rdir: Path) -> list[Stage]:
    target = inputs / "target"
    if workload == "train_plain":
        return [_train("pretrain_student", "pretrain-student", target, rdir / "student", seed,
                       TRAIN_STEPS, "moco_train_step")]
    if workload == "train_distill":
        return [_train("pretrain_student", "pretrain-student", target, rdir / "student", seed,
                       TRAIN_STEPS, "distilled_train_step", "--distill", "--teacher",
                       inputs / "teacher")]
    if workload == "pipeline_cli":
        data = rdir / "data"
        return [
            Stage("gen_data", ["gen-data", "--out", str(data), "--seed", str(seed)], data,
                  CLI + "generate_synthetic_dataset", None, "gen"),
            _train("pretrain_generic", "pretrain-generic", data / "generic", rdir / "generic",
                   seed, PIPELINE_STEPS, "moco_train_step"),
            replace(_train("adapt_teacher", "adapt-teacher", data / "target", rdir / "teacher",
                           seed, PIPELINE_STEPS, "teacher_adapt_step", "--generic",
                           rdir / "generic" / "checkpoint"),
                    frozen_from=rdir / "generic" / "checkpoint"),
            _train("pretrain_student", "pretrain-student", data / "target", rdir / "student",
                   seed, PIPELINE_STEPS, "distilled_train_step", "--distill", "--teacher",
                   rdir / "teacher" / "checkpoint"),
            Stage("linear_probe", ["linear-probe", "--data", str(data / "target"), "--ckpt",
                                   str(rdir / "student" / "checkpoint"), "--mode", "student",
                                   "--out", str(rdir / "probe"), "--seed", str(seed)],
                  rdir / "probe", CLI + "fit_linear_probe", None, "probe"),
        ]
    if workload == "eval_sweep":
        argv = ["sweep-labels", "--data", str(target), "--out", str(rdir / "sweep"),
                "--seed", str(seed)]
        for flag, name in (("--teacher", "teacher"), ("--plain", "plain"),
                           ("--distilled", "distilled"), ("--init-student", "init")):
            argv += [flag, str(inputs / name)]
        return [Stage("sweep_labels", argv, rdir / "sweep", CLI + "label_efficiency_sweep",
                      "distill_ssl.eval:fit_linear_probe", "sweep")]
    raise ValueError(workload)


WORKLOADS = ("train_plain", "train_distill", "pipeline_cli", "eval_sweep")
CHECKPOINT_INPUTS = {
    "train_plain": (),
    "train_distill": ("teacher",),
    "pipeline_cli": (),
    "eval_sweep": ("teacher", "plain", "distilled", "init"),
}


def build_inputs(workload: str, seed: int, dest: Path) -> int:
    """Default target dataset and encoder checkpoints from the seed.

    Checkpoints are freshly initialized encoders: step and probe cost do
    not depend on weight values.  Returns the dataset's frame count.
    """
    from distill_ssl import cli, contrastive, data, rng

    if workload == "pipeline_cli":  # the gen-data stage makes its own
        return 0
    cfg = {key: spec[1] for key, spec in cli.CONFIG_SCHEMA.items()}
    spec = data.target_spec(cfg["target_phases"], cfg["target_frames_per_phase"],
                            (cfg["image_size"], cfg["image_size"]))
    dataset = data.generate_synthetic_dataset(spec, seed)
    data.save_dataset(dataset, dest / "target", config={"seed": seed})
    enc_cfg = cli.encoder_config(cfg)
    for i, name in enumerate(CHECKPOINT_INPUTS[workload]):
        enc = contrastive.init_encoder(enc_cfg, rng.Rng(seed).derive(INPUT_STREAM, i))
        sets = {"backbone": enc.backbone, "head": enc.head}
        named = {f"{side}.{key}": ps for side in ("query", "key") for key, ps in sets.items()}
        data.save_checkpoint(named, dest / name, config={"encoder": enc_cfg.to_dict()})
    return len(dataset)


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)  # carries the pinned thread counts
    env.pop("DISTILL_SSL_SEED", None)  # the seed is always passed as a flag
    return env


def launch(stage: Stage, traced: bool, logdir: Path, deadline: float) -> StageRun:
    tag = f"{stage.name}-{'t' if traced else 'u'}-{now_ns()}"
    record, log = logdir / f"{tag}.json", logdir / f"{tag}.log"
    cmd = [sys.executable, str(CHILD), "--record", str(record), "--main", stage.main,
           "--trace", str(int(traced))]
    if stage.step is not None:
        cmd += ["--step", stage.step]
    cmd += ["--", *stage.argv]
    with open(log, "wb") as fh:
        start = now_ns()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = now_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        data = json.loads(record.read_text())
    except (OSError, json.JSONDecodeError):  # no record: the stage fails its checks
        data = None
    return StageRun(stage, proc.returncode, start, end, usage.ru_maxrss, data, log)


def run_repeat(stages: list[Stage], traced: bool, logdir: Path, deadline: float) -> list[StageRun]:
    runs = []
    for stage in stages:
        run = launch(stage, traced, logdir, deadline)
        runs.append(run)
        if run.rc != 0:
            break
    return runs


# ---------------------------------------------------------------------------
# checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def checkpoint_reloads_bitwise(base: Path, scratch: Path) -> bool:
    from distill_ssl import data

    named, config = data.load_checkpoint(base)
    data.save_checkpoint(named, scratch, config)
    return scratch.with_suffix(".bin").read_bytes() == base.with_suffix(".bin").read_bytes()


def head_only_update(base: Path, adapted: Path) -> str | None:
    """Why ``adapted`` is not a head-only update of ``base``'s query encoder."""
    import numpy as np
    from distill_ssl import data

    before, _ = data.load_checkpoint(base)
    after, _ = data.load_checkpoint(adapted)
    for side in ("query", "key"):
        for name, t in before["query.backbone"].items():
            if not np.array_equal(t.data, after[f"{side}.backbone"][name].data):
                return f"{side} backbone tensor {name} changed"
    if all(np.array_equal(t.data, after["query.head"][name].data)
           for name, t in before["query.head"].items()):
        return "query head did not change"
    return None


def check_stage(run: StageRun, outcome: Outcome, dataset_frames: int, scratch: Path) -> dict:
    """Correctness checks of one stage process; returns its artifact hashes."""
    stage = run.stage
    outcome.attempted += 1
    if run.rc != 0:
        tail = run.log.read_text(errors="replace").strip().splitlines()[-5:]
        outcome.fail(f"{stage.name}: exit code {run.rc}: " + " | ".join(tail))
        return {}
    if run.record is None or not run.calls(stage.main):
        outcome.fail(f"{stage.name}: main-loop hook {stage.main} was never called")
        return {}
    hashes = {}
    for artifact in ("checkpoint.bin", "metrics.csv"):
        if (stage.out / artifact).exists():
            hashes[f"{stage.name}/{artifact}"] = sha256(stage.out / artifact)
    if not (stage.out / "metrics.csv").exists():
        outcome.fail(f"{stage.name}: no metrics.csv written")
        return hashes
    rows = read_rows(stage.out / "metrics.csv")
    loop = run.loop()
    if stage.kind == "train":
        cfg = json.loads((stage.out / "config.json").read_text())
        run.frames_per_step = cfg["batch_size"]
        losses = [float(r["loss"]) for r in rows]
        outcome.attempted += len(losses)
        if loop is None or loop.steps != cfg["steps"] or len(losses) != cfg["steps"]:
            outcome.fail(f"{stage.name}: expected {cfg['steps']} steps, hooked "
                         f"{loop.steps if loop else 0}, logged {len(losses)}")
        bad = sum(1 for x in losses if not math.isfinite(x))
        if bad:
            outcome.fail(f"{stage.name}: {bad} non-finite losses", weight=bad)
        half = len(losses) // 2
        if stage.frozen_from is not None:
            # The head-only loss barely moves in a short stage (at seed 34
            # the last tenth's mean was above the first's), so check what
            # the stage must do instead.
            why = head_only_update(stage.frozen_from, stage.out / "checkpoint")
            if why:
                outcome.fail(f"{stage.name}: not a head-only adaptation: {why}")
        elif not bad and half and not statistics.fmean(losses[half:]) < statistics.fmean(losses[:half]):
            outcome.fail(f"{stage.name}: mean loss of the second half of steps is not "
                         "below that of the first half")
        if not checkpoint_reloads_bitwise(stage.out / "checkpoint", scratch / stage.name):
            outcome.fail(f"{stage.name}: checkpoint does not reload bitwise")
    elif stage.kind == "sweep":
        arms = {r["encoder"] for r in rows}
        run.frames_per_step = dataset_frames * len(arms) / max(1, len(rows))
        outcome.attempted += len(rows)
        accs = [float(r["accuracy"]) for r in rows]
        if loop is None or loop.steps != len(rows):
            outcome.fail(f"{stage.name}: {len(rows)} result rows but "
                         f"{loop.steps if loop else 0} hooked probe fits")
        if not all(0.0 <= a <= 1.0 for a in accs):
            outcome.fail(f"{stage.name}: accuracy outside [0, 1]")
    elif stage.kind == "probe":
        accs = [float(r["accuracy"]) for r in rows]
        outcome.attempted += len(accs)
        mean = statistics.fmean(accs) if accs else 0.0
        outcome.probe_accuracy.append(mean)
        if not mean >= PROBE_ACCURACY_FLOOR:
            outcome.fail(f"{stage.name}: probe accuracy {mean:.4f} below floor "
                         f"{PROBE_ACCURACY_FLOOR}")
    return hashes


def check_repeat(rep: list[StageRun], stages_per_repeat: int, outcome: Outcome,
                 dataset_frames: int, scratch: Path) -> dict:
    """Checks every stage of one repeat; returns the repeat's artifact hashes."""
    hashes = {}
    for run in rep:
        hashes.update(check_stage(run, outcome, dataset_frames, scratch))
    if len(rep) < stages_per_repeat:
        outcome.fail(f"{stages_per_repeat - len(rep)} stages not run after a failure")
    return hashes


def check_determinism(hashes: list[dict], outcome: Outcome) -> None:
    """Every repeat must reproduce the first repeat's artifacts bit for bit."""
    for other in hashes[1:]:
        if other != hashes[0]:
            diff = sorted(k for k in set(other) | set(hashes[0]) if other.get(k) != hashes[0].get(k))
            outcome.fail("determinism: artifacts differ between repeats: " + ", ".join(diff))


# ---------------------------------------------------------------------------
# metrics


def end_to_end(repeats: list[list[StageRun]]) -> dict:
    """End-to-end metrics of a list of repeats (see README.md).

    Step percentiles pool the steps of every repeat; the other metrics
    are medians of per-repeat values, so one disturbed repeat cannot move
    them far.
    """
    intervals, throughputs, setups, walls, rss = [], [], [], [], []
    for rep in repeats:
        frames, window = 0.0, 0
        for run in rep:
            loop = run.loop()
            if loop is not None:
                intervals += loop.intervals
                frames += run.frames_per_step * loop.steps
                window += loop.end - loop.start
        throughputs.append(frames / (window / layers.NS_PER_S) if window else 0.0)
        setups.append(sum(r.setup_ns or 0 for r in rep) / layers.NS_PER_S)
        walls.append(sum(r.wall_ns for r in rep) / layers.NS_PER_S)
        rss.append(max(r.maxrss_kib for r in rep) / 1024.0)
    p95 = statistics.quantiles(intervals, n=20, method="inclusive")[18] if len(intervals) > 1 else 0.0
    median = lambda values: statistics.median(values) if values else 0.0
    return {
        "samples_per_s": median(throughputs),
        "step_ms_p50": median(intervals) / layers.NS_PER_MS,
        "step_ms_p95": p95 / layers.NS_PER_MS,
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mb": median(rss),
        "steps": len(intervals),
        "beyond_p95": sum(1 for d in intervals if d > p95),
        "repeats": len(repeats),
    }


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def declared_metrics(trace: bool) -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    return [m["name"] for m in declared]


# ---------------------------------------------------------------------------
# main


def say(*parts) -> None:
    print("perfbench", *parts, flush=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    say("env", json.dumps(env, sort_keys=True))
    work = OUT / f"work-{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, logs, scratch = work / "inputs", work / "logs", work / "scratch"
        for d in (inputs, logs, scratch):
            d.mkdir()
        # Bytecode caches, as an installed package has them, even where the
        # environment stops Python from writing them.
        for tree in (SRC / "distill_ssl", HERE):
            compileall.compile_dir(tree, quiet=1)
        dataset_frames = build_inputs(workload, seed, inputs)
        t0 = time.monotonic()
        deadline = t0 + RUN_BUDGET_S + 20.0
        untraced, traced, hashes = [], [], []
        outcome = Outcome()
        modes = (False, True) if trace else (False,)
        min_repeats = 1 if trace else MIN_REPEATS[workload]
        # Every repeat runs in the same directory: artifacts may record paths.
        rdir = work / "run"
        stages = stages_for(workload, seed, inputs, rdir)
        while True:
            rep_start = time.monotonic()
            for mode in modes:
                shutil.rmtree(rdir, ignore_errors=True)
                rep = run_repeat(stages, mode, logs, deadline)
                (traced if mode else untraced).append(rep)
                rep_hashes = check_repeat(rep, len(stages), outcome, dataset_frames, scratch)
                if any(r.rc != 0 for r in rep):
                    break
                hashes.append(rep_hashes)
            now = time.monotonic()
            failed = any(r.rc != 0 for rep in untraced + traced for r in rep)
            done = len(untraced) >= min_repeats and now - t0 >= seconds
            if failed or done or now - t0 + (now - rep_start) > RUN_BUDGET_S:
                break
        check_determinism(hashes, outcome)
        hashes = hashes or [{}]
        for name, digest in sorted(hashes[0].items()):
            say("sha256", name, digest)
        summary = end_to_end(untraced)
        say(f"workload={workload} seed={seed} trace={int(trace)} repeats={len(untraced)} "
            f"untraced + {len(traced)} traced, measured {time.monotonic() - t0:.1f}s")
        if trace:
            values = layers.per_layer(workload, traced, untraced, end_to_end)
            units = dict(layers.PER_LAYER)
        else:
            values = {name: summary[name] for name, _ in END_TO_END}
            units = dict(END_TO_END)
            for name, unit in END_TO_END:
                note = ""
                if name.startswith("step_ms"):
                    note = f" (n={summary['steps']} steps, {summary['beyond_p95']} beyond p95)"
                elif name in ("setup_s", "wall_s", "peak_rss_mb"):
                    note = f" (median of {summary['repeats']} repeats)"
                say(f"{name} {values[name]:.6g} {unit}{note}")
        if outcome.probe_accuracy:
            say(f"probe_accuracy {statistics.fmean(outcome.probe_accuracy):.6f} fraction "
                f"(mean over {len(outcome.probe_accuracy)} repeats, floor {PROBE_ACCURACY_FLOOR})")
        attempted = max(1, outcome.attempted)
        say(f"error_rate {outcome.failed / attempted:.6g} ratio ({outcome.failed}/{attempted})")
        declared = declared_metrics(trace)
        if declared != list(values):
            outcome.fail("emitted metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(values))}")
        for problem in outcome.problems:
            say("FAIL", problem)
        correct = not outcome.problems
        say("detail", json.dumps({
            "workload": workload, "seed": seed, "trace": int(trace), "env": env,
            "hashes": hashes[0], "samples": {k: summary[k] for k in ("steps", "beyond_p95", "repeats")},
            "probe_accuracy": statistics.fmean(outcome.probe_accuracy) if outcome.probe_accuracy else None,
            "error_rate": outcome.failed / attempted, "problems": outcome.problems,
        }, sort_keys=True))
        metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": outcome.failed,
                          "metrics": metrics}), flush=True)
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "distill_ssl" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'distill_ssl'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
