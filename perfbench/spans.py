"""Span recorder and call wrappers for one benchmarked distill-ssl process.

Every number comes from outside the package: a wrapper replaces a public
function or method in the namespaces that call it, records a span (name,
start, end, parent) around the call and hands the original result back
untouched.  Spans stay in memory and are written once, when the process
ends.  A wrapped name that no longer exists raises ``MissingHook``, so a
renamed function fails the run instead of reporting zero time.

Span names are ``<layer>.<what>``; the layer is the package module the
time belongs to.  Hook spans (the workload's main loop and its steps) are
named ``hook:<target>`` and belong to no layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# CLOCK_MONOTONIC on Linux, so parent and child timestamps compare.
now_ns = time.perf_counter_ns

HOOK = "hook:"

# (target, span name, scan): ``scan`` also replaces the function wherever a
# package module imported it by name.
TRACED = (
    ("distill_ssl.contrastive:build_views", "augment.build_views", True),
    ("distill_ssl.augment:sample_view", "augment.sample_view", True),
    ("distill_ssl.augment:resize_to", "augment.resize_to", True),
    ("distill_ssl.tensor:conv2d", "tensor.conv2d", True),
    ("distill_ssl.tensor:affine", "tensor.affine", True),
    ("distill_ssl.tensor:relu", "tensor.relu", True),
    ("distill_ssl.tensor:global_avg_pool", "tensor.global_avg_pool", True),
    ("distill_ssl.tensor:l2_normalize", "tensor.l2_normalize", True),
    ("distill_ssl.tensor:softmax_with_temperature", "tensor.softmax_with_temperature", True),
    ("distill_ssl.tensor:sgd_step", "tensor.sgd_step", True),
    ("distill_ssl.tensor:Graph.backward", "tensor.graph_backward", False),
    # distill imports encode only for the teacher's two forwards
    ("distill_ssl.distill:encode", "distill.teacher_encode", False),
    ("distill_ssl.contrastive:encode", "contrastive.encode", True),
    ("distill_ssl.contrastive:info_nce_loss", "contrastive.info_nce_loss", True),
    ("distill_ssl.contrastive:momentum_update", "contrastive.momentum_update", True),
    ("distill_ssl.contrastive:KeyQueue.push", "contrastive.queue_push", False),
    ("distill_ssl.contrastive:warm_up_queue", "contrastive.warm_up_queue", True),
    ("distill_ssl.distill:soft_targets", "distill.soft_targets", True),
    ("distill_ssl.distill:student_similarity_distribution", "distill.student_similarity", True),
    ("distill_ssl.distill:kl_distillation_loss", "distill.kl_distillation_loss", True),
    ("distill_ssl.data:BatchStream.next_batch", "data.next_batch", False),
    ("distill_ssl.data:load_dataset", "data.load_dataset", True),
    ("distill_ssl.data:generate_synthetic_dataset", "data.generate_dataset", True),
    ("distill_ssl.data:save_dataset", "data.save_dataset", True),
    ("distill_ssl.data:save_checkpoint", "data.save_checkpoint", True),
    ("distill_ssl.data:load_checkpoint", "data.load_checkpoint", True),
    # eval imports forward_backbone only for feature extraction
    ("distill_ssl.eval:forward_backbone", "eval.backbone_forward", False),
    ("distill_ssl.eval:extract_features", "eval.extract_features", True),
    ("distill_ssl.eval:fit_linear_probe", "eval.fit_linear_probe", True),
)

RNG_DRAWS = (
    "distill_ssl.rng:Rng.uniform",
    "distill_ssl.rng:Rng.normal",
    "distill_ssl.rng:Rng.integer",
)


class MissingHook(RuntimeError):
    """A function the benchmark wraps is gone from the package."""


def resolve(target: str):
    """``pkg.module:Name.attr`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingHook(f"{target}: cannot import {module_name} ({exc})") from exc
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise MissingHook(f"{target} no longer exists")
        owner = getattr(owner, name)
    if not callable(getattr(owner, attr, None)):
        raise MissingHook(f"{target} no longer exists")
    return owner, attr


def _conv_flops(args, result, frame) -> int:
    """Forward multiply-adds x2 from shapes; stashes the backward count.

    Backward always computes dW (same count as the forward) and computes
    dX when the input takes part in the graph.
    """
    x, kernels = args[0], args[1]
    cout, cin, k, _ = kernels.data.shape
    flops = 2 * (result.data.size // cout) * cout * cin * k * k
    needs_dx = x.requires_grad or getattr(x, "_node", False)
    frame[2] = flops * (2 if needs_dx else 1)
    return flops


def _tape_ops(args, result, frame) -> int:
    return len(args[0])


def _checkpoint_bytes(args, result, frame) -> int:
    return sum(t.data.nbytes for ps in args[0].values() for _, t in ps.items())


MEASURES = {
    "tensor.conv2d": _conv_flops,
    "tensor.graph_backward": _tape_ops,
    "data.save_checkpoint": _checkpoint_bytes,
}


class Recorder:
    """Hook timestamps always; spans and draw counts only when traced."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, value)
        self.hooks: dict[str, list[tuple[int, int]]] = {}
        self.rng_draws = 0
        self.loop_draws = [None, None]  # draw count at loop start / last step end
        self._stack: list[list] = []  # [id, name, backward value]
        self._next_id = 0

    def wrap(self, name: str, fn, measure=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, 0]
            stack.append(frame)
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, start, now_ns(), 0))
                raise
            end = now_ns()
            stack.pop()
            value = measure(args, result, frame) if measure is not None else 0
            spans.append((sid, parent, name, start, end, value))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install_tracer(self) -> None:
        """Wrap every TRACED target, the tape's record hook and the draws."""
        plans = []
        for target, name, scan in TRACED:  # resolve all first: fail before patching
            owner, attr = resolve(target)
            plans.append((owner, attr, name, scan))
        draw_owners = [resolve(t) for t in RNG_DRAWS]
        tensor_mod = importlib.import_module("distill_ssl.tensor")
        if not callable(getattr(tensor_mod, "record", None)):
            raise MissingHook("distill_ssl.tensor:record no longer exists")
        done = set()
        for owner, attr, name, scan in plans:
            if (id(owner), attr) in done:
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, MEASURES.get(name))
            setattr(owner, attr, wrapper)
            done.add((id(owner), attr))
            if not scan:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("distill_ssl") or mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original and (id(mod), key) not in done:
                        setattr(mod, key, wrapper)
                        done.add((id(mod), key))
        for owner, attr in draw_owners:
            setattr(owner, attr, self._count_draws(getattr(owner, attr)))
        self._install_record(tensor_mod)

    def _count_draws(self, fn):
        def wrapper(*args, **kwargs):
            self.rng_draws += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install_record(self, tensor_mod) -> None:
        """Time each backward closure, named after the op that recorded it."""
        original = tensor_mod.record
        recording = tensor_mod.recording
        stack = self._stack

        def record(out, backward_fn):
            if not recording():
                return original(out, backward_fn)
            top = stack[-1] if stack else None
            if top is not None and not top[1].startswith(HOOK):
                name = top[1] + ".bwd"
                measure = lambda args, result, frame, owner=top: owner[2]
            else:
                name = "tensor." + backward_fn.__qualname__.split(".")[0] + ".bwd"
                measure = None
            return original(out, self.wrap(name, backward_fn, measure))

        tensor_mod.record = record

    def install_hook(self, target: str, main: bool, step: bool) -> None:
        """Timestamp every call of ``target`` in its own namespace.

        ``main`` marks the workload's main loop (its first entry ends
        set-up); ``step`` marks one iteration of it.
        """
        owner, attr = resolve(target)
        inner = getattr(owner, attr)
        if self.traced:
            inner = self.wrap(HOOK + target, inner)
        calls = self.hooks.setdefault(target, [])

        def hook(*args, **kwargs):
            entry = now_ns()
            if main and self.loop_draws[0] is None:
                self.loop_draws[0] = self.rng_draws
            result = inner(*args, **kwargs)
            calls.append((entry, now_ns()))
            if step:
                self.loop_draws[1] = self.rng_draws
            return result

        setattr(owner, attr, hook)

    def dump(self, path, **extra) -> None:
        record = {
            "hooks": self.hooks,
            "spans": self.spans,
            "loop_draws": self.loop_draws,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)
