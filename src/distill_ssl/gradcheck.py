"""Finite-difference verification of every analytic gradient.

For each op the analytic gradient of a random linear functional of the
output is compared against central differences on fresh random
instances.  The per-instance relative error is
``max|analytic - fd| / max(|analytic|_inf, |fd|_inf, 1e-12)``.
ReLU instances keep inputs away from the kink, where the derivative is
not defined.
"""

from __future__ import annotations

import time

import numpy as np

from . import tensor as T
from .contrastive import (
    EncoderConfig,
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


def _check(op_fn, values: dict[str, np.ndarray], weights: np.ndarray, h: float) -> float:
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


def _scalar_check(build, h: float) -> float:
    """FD check for a scalar-valued composite loss with one live input."""
    x0, analytic, f = build()
    fd = T.finite_diff_gradient(f, x0.copy(), h)
    return _rel_err(analytic, fd)


def _make_queue(rng: np.random.Generator, m: int, d: int) -> KeyQueue:
    queue = KeyQueue(m, d)
    queue.push(_unit_rows(rng, (m, d)))
    return queue


def _info_nce_instance(rng: np.random.Generator, tau: float):
    n, d, m = 4, 8, 8
    q0 = _unit_rows(rng, (n, d))
    kp = _unit_rows(rng, (n, d))
    queue = _make_queue(rng, m, d)
    qt = T.parameter(q0.copy())
    graph = T.Graph()
    with graph:
        loss = info_nce_loss(qt, kp, queue, tau)
    graph.backward(loss)

    def f(x):
        with T.no_grad():
            return float(info_nce_loss(T.constant(x), kp, queue, tau).data)

    return q0, qt.grad, f


def _kl_instance(rng: np.random.Generator, tau: float, lam: float | None):
    """Distillation loss (lam None) or combined objective (lam set), w.r.t. q."""
    n, d, m = 4, 8, 8
    q0 = _unit_rows(rng, (n, d))
    kp = _unit_rows(rng, (n, d))
    queue = _make_queue(rng, m, d)
    qt_teacher = _unit_rows(rng, (n, d))
    kt_teacher = _unit_rows(rng, (n, d))
    teacher_queue = _make_queue(rng, m, d)
    p_t = soft_targets(qt_teacher, kt_teacher, teacher_queue, tau)

    def objective(q_tensor):
        p_s = student_similarity_distribution(q_tensor, kp, queue, tau)
        l_dis = kl_distillation_loss(p_t, p_s)
        if lam is None:
            return l_dis
        l_con = info_nce_loss(q_tensor, kp, queue, tau)
        return T.add(l_con, T.scale(l_dis, lam))

    qt = T.parameter(q0.copy())
    graph = T.Graph()
    with graph:
        loss = objective(qt)
    graph.backward(loss)

    def f(x):
        with T.no_grad():
            return float(objective(T.constant(x)).data)

    return q0, qt.grad, f


def _encoder_chain_error(seed: int, h: float) -> float:
    """End-to-end check: InfoNCE through the whole encoder, w.r.t. every
    encoder parameter."""
    rng = np.random.default_rng(seed)
    cfg = EncoderConfig(conv_channels=(2, 3), d_backbone=6, d=4, input_size=(8, 8))
    enc = init_encoder(cfg, Rng(seed))
    frames = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    kp = _unit_rows(rng, (2, 4))
    queue = _make_queue(rng, 4, 4)

    graph = T.Graph()
    with graph:
        q = encode(enc, frames, record_grads=True)
        loss = info_nce_loss(q, kp, queue, 0.07)
    graph.backward(loss)

    worst = 0.0
    for ps in (enc.backbone, enc.head):
        for name, t in ps.items():
            def f(x, t=t):
                saved = t.data.copy()
                np.copyto(t.data, x)
                with T.no_grad():
                    out = float(info_nce_loss(encode(enc, frames), kp, queue, 0.07).data)
                np.copyto(t.data, saved)
                return out

            analytic = t.grad.copy()
            fd = T.finite_diff_gradient(f, t.data.copy(), h)
            worst = max(worst, _rel_err(analytic, fd))
            t.zero_grad()
    return worst


def run_gradcheck(
    instances: int = 100, h: float = DEFAULT_STEP, seed: int = 0
) -> dict[str, dict]:
    """Max relative error per op over the requested instance count."""
    report: dict[str, dict] = {}

    def add(name: str, errs: list[float]):
        report[name] = {"max_rel_err": max(errs), "instances": len(errs)}

    rng = np.random.default_rng(seed)

    errs = []
    for _ in range(instances):
        vals = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2)), "b": rng.normal(size=(2,))}
        errs.append(_check(lambda x, w, b: T.affine(x, w, b), vals, rng.normal(size=(3, 2)), h))
    add("affine", errs)

    errs = []
    for i in range(instances):
        stride, pad = (1, 0) if i % 2 == 0 else (2, 1)
        vals = {"x": rng.normal(size=(2, 2, 5, 5)), "k": rng.normal(size=(2, 2, 3, 3))}
        out_shape = T.conv2d(T.constant(vals["x"]), T.constant(vals["k"]), stride, pad).data.shape
        errs.append(
            _check(lambda x, k: T.conv2d(x, k, stride, pad), vals, rng.normal(size=out_shape), h)
        )
    add("conv2d", errs)

    errs = []
    for _ in range(instances):
        x = rng.normal(size=(24,))
        x[np.abs(x) < 1e-3] += 0.1
        errs.append(_check(lambda x: T.relu(x), {"x": x}, rng.normal(size=(24,)), h))
    add("relu", errs)

    errs = []
    for _ in range(instances):
        vals = {"x": rng.normal(size=(2, 3, 4))}
        errs.append(_check(lambda x: T.global_avg_pool(x), vals, rng.normal(size=(2,)), h))
    add("global_avg_pool", errs)

    errs = []
    for _ in range(instances):
        v = rng.normal(size=(3, 6))
        v[np.linalg.norm(v, axis=1) < 0.1] += 1.0
        errs.append(_check(lambda v: T.l2_normalize(v), {"v": v}, rng.normal(size=(3, 6)), h))
    add("l2_normalize", errs)

    errs = []
    for i in range(instances):
        tau = 0.07 if i % 2 == 0 else 1.0
        vals = {"z": _unit_rows(rng, (3, 7))}
        errs.append(
            _check(lambda z: T.softmax_with_temperature(z, tau), vals, rng.normal(size=(3, 7)), h)
        )
    add("softmax_with_temperature", errs)

    errs = []
    for _ in range(instances):
        vals = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=(3, 3))}
        w = rng.normal(size=(3, 3))
        errs.append(_check(lambda a, b: T.add(a, b), vals, w, h))
        errs.append(_check(lambda a, b: T.multiply(a, b), vals, w, h))
        errs.append(_check(lambda a, b: T.scale(T.add(a, b), 2.5), vals, w, h))
    add("add/multiply/scale", errs)

    errs = []
    for i in range(instances):
        tau = 0.07 if i % 2 == 0 else 1.0
        x0, analytic, f = _info_nce_instance(rng, tau)
        fd = T.finite_diff_gradient(f, x0.copy(), h)
        errs.append(_rel_err(analytic, fd))
    add("info_nce_loss", errs)

    errs = []
    for i in range(instances):
        tau = 0.07 if i % 2 == 0 else 1.0
        x0, analytic, f = _kl_instance(rng, tau, lam=None)
        fd = T.finite_diff_gradient(f, x0.copy(), h)
        errs.append(_rel_err(analytic, fd))
    add("kl_distillation_loss", errs)

    errs = []
    for i in range(instances):
        tau = 0.07 if i % 2 == 0 else 1.0
        x0, analytic, f = _kl_instance(rng, tau, lam=5.0)
        fd = T.finite_diff_gradient(f, x0.copy(), h)
        errs.append(_rel_err(analytic, fd))
    add("combined_objective", errs)

    errs = [_encoder_chain_error(seed + i, h) for i in range(max(3, instances // 20))]
    add("encoder_chain", errs)

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
    start = time.time()
    report = run_gradcheck(instances=instances)
    elapsed = time.time() - start
    ok = all(entry["max_rel_err"] <= tolerance for entry in report.values())
    return ok, report, format_report(report, tolerance), elapsed
