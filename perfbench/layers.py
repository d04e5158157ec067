"""Per-layer metrics from the spans of traced runs.

A *step* is one iteration of a process's main loop: a training step, or
one probe fit of ``sweep-labels``.  Step intervals run from the end of
one iteration to the end of the next (the first from the loop's entry),
so the wait for the next batch belongs to the step that waits.  Per-step
metrics sum the spans that start and end inside the loop window and
divide by the number of steps; per-repeat metrics sum every span of one
repeat (all stage processes of it) and average over repeats.

Self time of a span is its duration minus its children's.  Over a loop
window, the self times of all layer spans plus ``trace.unattributed``
(time inside no layer span: hook glue and gaps) add up to the window.
"""

from __future__ import annotations

import statistics

from spans import HOOK

NS_PER_MS = 1e6
NS_PER_S = 1e9

OPS = ("conv2d", "affine", "relu", "global_avg_pool", "l2_normalize", "softmax_with_temperature")
SPAN_LAYERS = ("augment", "tensor", "contrastive", "distill", "data", "eval")
PIPELINE_STAGES = ("gen_data", "pretrain_generic", "adapt_teacher", "pretrain_student", "linear_probe")
TRAINING_STAGES = ("pretrain_generic", "adapt_teacher", "pretrain_student")

# metric -> span names whose in-window durations it sums, per step, in ms
PER_STEP_MS = {
    "augment.views_ms_per_step": ("augment.build_views",),
    **{f"tensor.{op}.fwd_ms_per_step": (f"tensor.{op}",) for op in OPS},
    **{f"tensor.{op}.bwd_ms_per_step": (f"tensor.{op}.bwd",) for op in OPS},
    "tensor.graph_backward_ms_per_step": ("tensor.graph_backward",),
    "tensor.sgd_step_ms_per_step": ("tensor.sgd_step",),
    "contrastive.encode_ms_per_step": ("contrastive.encode",),
    "contrastive.info_nce_ms_per_step": ("contrastive.info_nce_loss", "contrastive.info_nce_loss.bwd"),
    "contrastive.momentum_update_ms_per_step": ("contrastive.momentum_update",),
    "contrastive.queue_push_ms_per_step": ("contrastive.queue_push",),
    "distill.teacher_encode_ms_per_step": ("distill.teacher_encode",),
    "distill.soft_targets_ms_per_step": ("distill.soft_targets",),
    "distill.kl_ms_per_step": ("distill.kl_distillation_loss", "distill.kl_distillation_loss.bwd"),
}

# metric -> (span name, unit); total duration per repeat
PER_REPEAT_TIME = {
    "augment.resize_ms": ("augment.resize_to", "ms"),
    "contrastive.warm_up_queue_s": ("contrastive.warm_up_queue", "s"),
    "data.load_dataset_s": ("data.load_dataset", "s"),
    "data.generate_dataset_s": ("data.generate_dataset", "s"),
    "data.save_dataset_s": ("data.save_dataset", "s"),
    "data.save_checkpoint_ms": ("data.save_checkpoint", "ms"),
    "data.load_checkpoint_ms": ("data.load_checkpoint", "ms"),
    "eval.extract_features_s": ("eval.extract_features", "s"),
}

# metric -> span name; calls per repeat
PER_REPEAT_CALLS = {
    "eval.extract_features_calls": "eval.extract_features",
    "eval.backbone_forward_calls": "eval.backbone_forward",
    "eval.probe_calls": "eval.fit_linear_probe",
}

# Every per-layer metric, in output order, with its unit.
PER_LAYER = (
    ("rng.draw_calls_per_step", "count"),
    ("augment.views_ms_per_step", "ms"),
    ("augment.sample_view_calls_per_step", "count"),
    ("augment.resize_ms", "ms"),
    *((f"tensor.{op}.{side}_ms_per_step", "ms") for op in OPS for side in ("fwd", "bwd")),
    ("tensor.conv2d.fwd_flops", "flop"),
    ("tensor.conv2d.fwd_gflop_s", "GFLOP/s"),
    ("tensor.conv2d.bwd_gflop_s", "GFLOP/s"),
    ("tensor.graph_backward_ms_per_step", "ms"),
    ("tensor.tape_ops_per_step", "count"),
    ("tensor.sgd_step_ms_per_step", "ms"),
    ("contrastive.encode_ms_per_step", "ms"),
    ("contrastive.info_nce_ms_per_step", "ms"),
    ("contrastive.momentum_update_ms_per_step", "ms"),
    ("contrastive.queue_push_ms_per_step", "ms"),
    ("contrastive.warm_up_queue_s", "s"),
    ("distill.teacher_encode_ms_per_step", "ms"),
    ("distill.soft_targets_ms_per_step", "ms"),
    ("distill.kl_ms_per_step", "ms"),
    ("data.next_batch_ms_p50", "ms"),
    ("data.next_batch_ms_max", "ms"),
    ("data.load_dataset_s", "s"),
    ("data.generate_dataset_s", "s"),
    ("data.save_dataset_s", "s"),
    ("data.save_checkpoint_ms", "ms"),
    ("data.load_checkpoint_ms", "ms"),
    ("data.checkpoint_bytes", "bytes"),
    ("eval.extract_features_s", "s"),
    ("eval.extract_features_calls", "count"),
    ("eval.backbone_forward_calls", "count"),
    ("eval.fit_linear_probe_ms_p50", "ms"),
    ("eval.probe_calls", "count"),
    *((f"pipeline.{stage}.wall_s", "s") for stage in PIPELINE_STAGES),
    *((f"pipeline.{stage}.step_ms_p50", "ms") for stage in TRAINING_STAGES),
    ("cli.import_s", "s"),
    *((f"{layer}.self_ms_per_step", "ms") for layer in SPAN_LAYERS),
    ("trace.unattributed_ms_per_step", "ms"),
    ("trace.step_ms_mean", "ms"),
    ("trace.uncovered_share", "ratio"),
    ("trace.traced_samples_per_s", "frames/s"),
    ("trace.untraced_samples_per_s", "frames/s"),
    ("trace.overhead_share", "ratio"),
)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _per_process(run) -> dict:
    """Sums over one traced process: in-window by name, whole process by name."""
    spans = run.record["spans"]
    child_ns: dict[int, int] = {}
    for sid, parent, name, start, end, value in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    loop = run.loop()
    window = (loop.start, loop.end) if loop is not None else None
    out = {
        "steps": loop.steps if loop is not None else 0,
        "window_ns": loop.end - loop.start if loop is not None else 0,
        "in_ns": {}, "in_value": {}, "in_calls": {}, "in_durations": {},
        "all_ns": {}, "all_value": {}, "all_calls": {}, "all_durations": {},
        "self_ns": {layer: 0 for layer in SPAN_LAYERS},
    }
    for sid, parent, name, start, end, value in spans:
        dur = end - start
        scopes = ["all"]
        if window is not None and start >= window[0] and end <= window[1]:
            scopes.append("in")
            if not name.startswith(HOOK):
                layer = name.split(".", 1)[0]
                out["self_ns"][layer] = out["self_ns"].get(layer, 0) + dur - child_ns.get(sid, 0)
        for scope in scopes:
            out[f"{scope}_ns"][name] = out[f"{scope}_ns"].get(name, 0) + dur
            out[f"{scope}_value"][name] = out[f"{scope}_value"].get(name, 0) + value
            out[f"{scope}_calls"][name] = out[f"{scope}_calls"].get(name, 0) + 1
            out[f"{scope}_durations"].setdefault(name, []).append(dur)
    draws = run.record.get("loop_draws") or [None, None]
    out["draws"] = draws[1] - draws[0] if None not in draws else 0
    return out


def per_layer(workload: str, traced: list, untraced: list, e2e) -> dict[str, float]:
    """Every PER_LAYER metric for one run.

    ``traced`` / ``untraced`` are lists of repeats, each a list of stage
    runs; ``e2e(repeats)`` gives the end-to-end summary of a list of
    repeats (used for samples_per_s with and without tracing).
    """
    procs = [_per_process(run) for rep in traced for run in rep if run.record is not None]
    steps = sum(p["steps"] for p in procs)
    window_ns = sum(p["window_ns"] for p in procs)
    per_step = 1.0 / steps if steps else 0.0
    n_repeats = max(1, len(traced))

    def in_sum(kind: str, names) -> float:
        return sum(p[f"in_{kind}"].get(n, 0) for p in procs for n in names)

    def all_sum(kind: str, name: str) -> float:
        return sum(p[f"all_{kind}"].get(name, 0) for p in procs)

    def durations(scope: str, name: str) -> list[int]:
        return [d for p in procs for d in p[f"{scope}_durations"].get(name, [])]

    def rate(name: str) -> float:
        ns = all_sum("ns", name)
        return all_sum("value", name) / ns if ns else 0.0  # flop/ns == GFLOP/s

    m: dict[str, float] = {}
    m["rng.draw_calls_per_step"] = sum(p["draws"] for p in procs) * per_step
    for name, span_names in PER_STEP_MS.items():
        m[name] = in_sum("ns", span_names) / NS_PER_MS * per_step
    m["augment.sample_view_calls_per_step"] = in_sum("calls", ("augment.sample_view",)) * per_step
    for name, (span, unit) in PER_REPEAT_TIME.items():
        scale = NS_PER_MS if unit == "ms" else NS_PER_S
        m[name] = all_sum("ns", span) / scale / n_repeats
    for name, span in PER_REPEAT_CALLS.items():
        m[name] = all_sum("calls", span) / n_repeats
    m["data.checkpoint_bytes"] = all_sum("value", "data.save_checkpoint") / n_repeats
    m["tensor.conv2d.fwd_flops"] = in_sum("value", ("tensor.conv2d",)) * per_step
    m["tensor.conv2d.fwd_gflop_s"] = rate("tensor.conv2d")
    m["tensor.conv2d.bwd_gflop_s"] = rate("tensor.conv2d.bwd")
    m["tensor.tape_ops_per_step"] = in_sum("value", ("tensor.graph_backward",)) * per_step
    batch_waits = durations("in", "data.next_batch")
    m["data.next_batch_ms_p50"] = _median(batch_waits) / NS_PER_MS
    m["data.next_batch_ms_max"] = max(batch_waits, default=0) / NS_PER_MS
    m["eval.fit_linear_probe_ms_p50"] = _median(durations("all", "eval.fit_linear_probe")) / NS_PER_MS

    stage_runs = [run for rep in untraced for run in rep]
    for stage in PIPELINE_STAGES:
        runs = [r for r in stage_runs if r.stage.name == stage] if workload == "pipeline_cli" else []
        m[f"pipeline.{stage}.wall_s"] = _median([r.wall_ns / NS_PER_S for r in runs])
        if stage in TRAINING_STAGES:
            steps_ns = [d for r in runs if r.loop() is not None for d in r.loop().intervals]
            m[f"pipeline.{stage}.step_ms_p50"] = _median(steps_ns) / NS_PER_MS
    m["cli.import_s"] = _median([r.record["import_ns"] / NS_PER_S for r in stage_runs if r.record])

    layer_self = 0
    for layer in SPAN_LAYERS:
        ns = sum(p["self_ns"].get(layer, 0) for p in procs)
        layer_self += ns
        m[f"{layer}.self_ms_per_step"] = ns / NS_PER_MS * per_step
    unattributed = window_ns - layer_self
    m["trace.unattributed_ms_per_step"] = unattributed / NS_PER_MS * per_step
    m["trace.step_ms_mean"] = window_ns / NS_PER_MS * per_step
    m["trace.uncovered_share"] = unattributed / window_ns if window_ns else 0.0
    traced_sps = e2e(traced)["samples_per_s"]
    untraced_sps = e2e(untraced)["samples_per_s"]
    m["trace.traced_samples_per_s"] = traced_sps
    m["trace.untraced_samples_per_s"] = untraced_sps
    m["trace.overhead_share"] = 1.0 - traced_sps / untraced_sps if untraced_sps else 0.0
    return {name: float(m[name]) for name, _ in PER_LAYER}
