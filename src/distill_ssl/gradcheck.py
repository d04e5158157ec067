"""Finite-difference verification of every analytic gradient.

For each op the analytic gradient of a random linear functional of the
output is compared against central differences on fresh random
instances.  The per-instance relative error is
``max|analytic - fd| / max(|analytic|_inf, |fd|_inf, 1e-12)``.
ReLU instances keep inputs away from the kink, where the derivative is
not defined.  Scalar losses take the weight 1.0, which multiplies
exactly, so their check is that of the loss itself.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from . import tensor as T
from .contrastive import (
    EncoderConfig,
    EncoderParams,
    KeyQueue,
    encode,
    info_nce_loss,
    init_encoder,
)
from .distill import (
    kl_distillation_loss,
    soft_targets,
    student_similarity_distribution,
)
from .rng import Rng

DEFAULT_TOLERANCE = 1e-5
DEFAULT_STEP = 1e-6


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max()), float(np.abs(fd).max()), 1e-12)
    return float(np.abs(analytic - fd).max() / scale)


def _check(op_fn, values: dict[str, np.ndarray], weights: np.ndarray | float, h: float) -> float:
    """Worst relative error across all differentiable inputs of one instance."""
    tensors = {k: T.parameter(v.copy()) for k, v in values.items()}
    graph = T.Graph()
    with graph:
        out = op_fn(**tensors)
        loss = T.tensor_sum(T.multiply(out, T.constant(weights)))
    graph.backward(loss)
    worst = 0.0
    for name, v in values.items():
        def f(x, name=name):
            args = {k: T.constant(val) for k, val in values.items()}
            args[name] = T.constant(x)
            return float((op_fn(**args).data * weights).sum())

        fd = T.finite_diff_gradient(f, v.copy(), h)
        worst = max(worst, _rel_err(tensors[name].grad, fd))
    return worst


def _unit_rows(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _make_queue(rng: np.random.Generator, m: int, d: int) -> KeyQueue:
    queue = KeyQueue(m, d)
    queue.push(_unit_rows(rng, (m, d)))
    return queue


# ---------------------------------------------------------------------------
# cases: case(rng, i, seed) draws instance i from the shared generator and
# returns the (op_fn, values, weights) triples that _check checks.  A new
# check is one more case and one more row of CASES.


def _affine(rng, i, seed):
    vals = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2)), "b": rng.normal(size=(2,))}
    return [(T.affine, vals, rng.normal(size=(3, 2)))]


def _conv2d(rng, i, seed):
    stride, pad = (1, 0) if i % 2 == 0 else (2, 1)
    vals = {"x": rng.normal(size=(2, 2, 5, 5)), "k": rng.normal(size=(2, 2, 3, 3))}
    out_shape = T.conv2d(T.constant(vals["x"]), T.constant(vals["k"]), stride, pad).data.shape
    return [(lambda x, k: T.conv2d(x, k, stride, pad), vals, rng.normal(size=out_shape))]


def _relu(rng, i, seed):
    x = rng.normal(size=(24,))
    x[np.abs(x) < 1e-3] += 0.1
    return [(T.relu, {"x": x}, rng.normal(size=(24,)))]


def _global_avg_pool(rng, i, seed):
    return [(T.global_avg_pool, {"x": rng.normal(size=(2, 3, 4))}, rng.normal(size=(2,)))]


def _l2_normalize(rng, i, seed):
    v = rng.normal(size=(3, 6))
    v[np.linalg.norm(v, axis=1) < 0.1] += 1.0
    return [(T.l2_normalize, {"v": v}, rng.normal(size=(3, 6)))]


def _softmax(rng, i, seed):
    tau = 0.07 if i % 2 == 0 else 1.0
    vals = {"z": _unit_rows(rng, (3, 7))}
    return [(lambda z: T.softmax_with_temperature(z, tau), vals, rng.normal(size=(3, 7)))]


def _add_multiply_scale(rng, i, seed):
    vals = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
    w = rng.normal(size=(3, 3))
    return [(T.add, vals, w), (T.multiply, vals, w), (lambda a, b: T.scale(T.add(a, b), 2.5), vals, w)]


def _info_nce(rng, i, seed):
    tau = 0.07 if i % 2 == 0 else 1.0
    q = _unit_rows(rng, (4, 8))
    kp = _unit_rows(rng, (4, 8))
    queue = _make_queue(rng, 8, 8)
    return [(lambda q: info_nce_loss(q, kp, queue, tau), {"q": q}, 1.0)]


def _distillation(rng, i, seed, lam):
    """KL distillation loss (lam None) or combined objective (lam set), w.r.t. q;
    tau = 1e-3 is where p_s underflows to 0 and only log p_s stays finite."""
    tau = (0.07, 1.0, 1e-3)[i % 3]
    q = _unit_rows(rng, (4, 8))
    kp = _unit_rows(rng, (4, 8))
    queue = _make_queue(rng, 8, 8)
    qt_teacher = _unit_rows(rng, (4, 8))
    kt_teacher = _unit_rows(rng, (4, 8))
    log_p_t = soft_targets(qt_teacher, kt_teacher, _make_queue(rng, 8, 8), tau)

    def objective(q):
        l_dis = kl_distillation_loss(log_p_t, student_similarity_distribution(q, kp, queue, tau))
        if lam is None:
            return l_dis
        return T.add(info_nce_loss(q, kp, queue, tau), T.scale(l_dis, lam))

    return [(objective, {"q": q}, 1.0)]


class _TrainableSet(dict):
    frozen = False


def _encoder_chain(rng, i, seed):
    """InfoNCE through the whole encoder, w.r.t. every encoder parameter;
    instance i draws from its own generator, seeded ``seed + i``."""
    rng = np.random.default_rng(seed + i)
    cfg = EncoderConfig(conv_channels=(2, 3), d_backbone=6, d=4, input_size=(8, 8))
    enc = init_encoder(cfg, Rng(seed + i))
    frames = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    kp = _unit_rows(rng, (2, 4))
    queue = _make_queue(rng, 4, 4)

    def loss(**params):
        # backbone and head names are disjoint, so one unfrozen dict serves as both
        params = _TrainableSet(params)
        q = encode(EncoderParams(params, params, cfg), frames, record_grads=T.recording())
        return info_nce_loss(q, kp, queue, 0.07)

    values = {name: t.data for ps in (enc.backbone, enc.head) for name, t in ps.items()}
    return [(loss, values, 1.0)]


def _every(instances: int) -> int:
    return instances


def _few(instances: int) -> int:
    return max(3, instances // 20)


# (report name, case, instance count for the requested count), in report order
CASES = (
    ("affine", _affine, _every),
    ("conv2d", _conv2d, _every),
    ("relu", _relu, _every),
    ("global_avg_pool", _global_avg_pool, _every),
    ("l2_normalize", _l2_normalize, _every),
    ("softmax_with_temperature", _softmax, _every),
    ("add/multiply/scale", _add_multiply_scale, _every),
    ("info_nce_loss", _info_nce, _every),
    ("kl_distillation_loss", partial(_distillation, lam=None), _every),
    ("combined_objective", partial(_distillation, lam=5.0), _every),
    ("encoder_chain", _encoder_chain, _few),
)


def run_gradcheck(
    instances: int = 100, h: float = DEFAULT_STEP, seed: int = 0
) -> dict[str, dict]:
    """Max relative error per op over the requested instance count."""
    rng = np.random.default_rng(seed)
    report: dict[str, dict] = {}
    for name, case, count in CASES:
        errs = [
            _check(op_fn, values, weights, h)
            for i in range(count(instances))
            for op_fn, values, weights in case(rng, i, seed)
        ]
        report[name] = {"max_rel_err": max(errs), "instances": len(errs)}
    return report


def format_report(report: dict[str, dict], tolerance: float = DEFAULT_TOLERANCE) -> str:
    lines = [f"{'op':<26} {'instances':>9} {'max_rel_err':>12}  status"]
    for name, entry in report.items():
        status = "ok" if entry["max_rel_err"] <= tolerance else "FAIL"
        lines.append(
            f"{name:<26} {entry['instances']:>9} {entry['max_rel_err']:>12.3e}  {status}"
        )
    return "\n".join(lines)


def main_check(
    instances: int = 100, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[bool, dict[str, dict], str, float]:
    """(all within tolerance, per-op report, formatted report, seconds)."""
    start = time.perf_counter()
    report = run_gradcheck(instances=instances)
    elapsed = time.perf_counter() - start
    ok = all(entry["max_rel_err"] <= tolerance for entry in report.values())
    return ok, report, format_report(report, tolerance), elapsed
