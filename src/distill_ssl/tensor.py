"""Dense float64 tensors with taped reverse-mode differentiation.

The op set is deliberately small: the layers of the stand-in encoder
(affine, conv2d, relu, global_avg_pool), the similarity machinery
(l2_normalize, softmax_with_temperature) and a handful of scalar glue ops
for composing losses.  Ops record themselves onto the active
:class:`Graph` when one is open; with no graph open they are plain
forward computations.  ``finite_diff_gradient`` is the independent oracle
used to verify every analytic backward rule.

Single-threaded by contract: one graph is active at a time and state
mutation (gradients, parameters) assumes exclusive access.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class ParameterError(ValueError):
    """A scalar argument is outside its documented range."""


class GraphError(RuntimeError):
    """Recording/backprop contract violated."""


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    ``requires_grad`` marks leaves (parameters) that should accumulate
    gradients; tensors produced by recorded ops receive gradients while
    their graph is being walked regardless of the flag.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.requires_grad = requires_grad
        self._node = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


_ACTIVE: "Graph | None" = None


class Graph:
    """Tape of recorded ops; execution order is the topological order."""

    def __init__(self):
        self._ops: list[tuple[Tensor, object]] = []
        self._prev: "Graph | None" = None

    def __enter__(self) -> "Graph":
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
        self._prev = None

    def __len__(self) -> int:
        return len(self._ops)

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)/d(input) through every recorded op.

        Participating leaves accumulate into their ``grad`` slots;
        non-participating leaves keep their (zero) gradients untouched.
        """
        if loss.data.ndim != 0:
            raise GraphError(f"loss must be a scalar, got shape {loss.data.shape}")
        if not loss._node or all(out is not loss for out, _ in self._ops):
            raise GraphError("loss tensor was not produced by this graph")
        loss.grad = np.ones(())
        for out, backward_fn in reversed(self._ops):
            if out.grad is None:
                continue
            backward_fn(out.grad)


class no_grad:
    """Suspend recording within the block even if a graph is open."""

    def __enter__(self):
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = None
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = self._prev


def record(out: Tensor, backward_fn) -> None:
    """Attach a computed op to the active graph, if any.

    ``backward_fn(out_grad)`` must accumulate into the op's inputs via
    :func:`accumulate`.  Composite ops in other modules use this hook.
    """
    if _ACTIVE is not None:
        out._node = True
        _ACTIVE._ops.append((out, backward_fn))


def recording() -> bool:
    return _ACTIVE is not None


def participates(t: Tensor) -> bool:
    """Whether ``t`` takes gradients: a trainable leaf or a recorded op's output."""
    return t.requires_grad or t._node


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to ``t`` if it participates."""
    if participates(t):
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


# ---------------------------------------------------------------------------
# primitive ops


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Batched affine map: out[r, c] = sum_k x[r, k] w[k, c] + b[c]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(
            f"affine expects x (B,in), W (in,out), b (out); got "
            f"{x.data.shape}, {w.data.shape}, {b.data.shape}"
        )
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"affine shape mismatch: x {x.data.shape} vs W {w.data.shape} vs b {b.data.shape}"
        )
    out = Tensor(x.data @ w.data + b.data)

    def backward(g: np.ndarray) -> None:
        accumulate(x, g @ w.data.T)
        accumulate(w, x.data.T @ g)
        accumulate(b, g.sum(axis=0))

    record(out, backward)
    return out


def _conv_windows(xpad: np.ndarray, k: int, stride: int, oh: int, ow: int) -> np.ndarray:
    b, c = xpad.shape[0], xpad.shape[1]
    sb, sc, sh, sw = xpad.strides
    shape = (b, c, oh, ow, k, k)
    strides = (sb, sc, sh * stride, sw * stride, sh, sw)
    return np.lib.stride_tricks.as_strided(xpad, shape=shape, strides=strides)


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation with zero padding.

    ``x`` is C_in x H x W or B x C_in x H x W; ``kernels`` is
    C_out x C_in x k x k.  Output spatial extent is
    floor((H + 2 pad - k) / stride) + 1.
    """
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ParameterError(f"pad must be >= 0, got {pad}")
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    if xd.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(
            f"conv2d expects x (C,H,W) or (B,C,H,W) and kernels (Co,Ci,k,k); "
            f"got {x.data.shape} and {kernels.data.shape}"
        )
    bsz, cin, h, w = xd.shape
    cout, kcin, kh, kw = kernels.data.shape
    if kh != kw:
        raise ShapeError(f"kernels must be square, got {kernels.data.shape}")
    k = kh
    if kcin != cin:
        raise ShapeError(f"channel mismatch: input {xd.shape} vs kernels {kernels.data.shape}")
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ShapeError(
            f"kernel {k}x{k} larger than padded input {h + 2 * pad}x{w + 2 * pad}"
        )
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xpad = np.pad(xd, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xd
    # im2col: one B x C*k*k x OH*OW copy of the windows serves all three GEMMs
    cols = _conv_windows(xpad, k, stride, oh, ow).transpose(0, 1, 4, 5, 2, 3)
    cols = cols.reshape(bsz, cin * k * k, oh * ow)
    wm = kernels.data.reshape(cout, cin * k * k)
    out_data = (wm @ cols).reshape(bsz, cout, oh, ow)
    out = Tensor(out_data[0] if single else out_data)

    def backward(g: np.ndarray) -> None:
        gm = g.reshape(bsz, cout, oh * ow)
        if participates(kernels):
            dw = np.tensordot(gm, cols, axes=([0, 2], [0, 2]))
            accumulate(kernels, dw.reshape(kernels.data.shape))
        if participates(x):
            dcols = (wm.T @ gm).reshape(bsz, cin, k, k, oh, ow)
            dxpad = np.zeros_like(xpad)
            for i in range(k):
                for j in range(k):
                    dst = dxpad[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
                    dst += dcols[:, :, i, j]
            dx = dxpad[:, :, pad : pad + h, pad : pad + w] if pad else dxpad
            accumulate(x, dx[0] if single else dx)

    record(out, backward)
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is 0."""
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(g: np.ndarray) -> None:
        accumulate(x, g * (x.data > 0.0))

    record(out, backward)
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial extent: (C,H,W) -> (C,) or (B,C,H,W) -> (B,C)."""
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"global_avg_pool expects (C,H,W) or (B,C,H,W), got {x.data.shape}")
    h, w = x.data.shape[-2], x.data.shape[-1]
    if h * w < 1:
        raise ShapeError(f"empty spatial extent in {x.data.shape}")
    out = Tensor(x.data.mean(axis=(-2, -1)))
    scale_back = 1.0 / (h * w)

    def backward(g: np.ndarray) -> None:
        accumulate(x, np.broadcast_to((g * scale_back)[..., None, None], x.data.shape))

    record(out, backward)
    return out


def l2_normalize(v: Tensor, eps: float = 1e-12) -> Tensor:
    """v / (||v|| + eps), rowwise for 2-D input; eps guards the zero vector."""
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if v.data.ndim not in (1, 2):
        raise ShapeError(f"l2_normalize expects a vector or row batch, got {v.data.shape}")
    norm = np.sqrt((v.data * v.data).sum(axis=-1, keepdims=True))
    denom = norm + eps
    out = Tensor(v.data / denom)

    def backward(g: np.ndarray) -> None:
        vg = (v.data * g).sum(axis=-1, keepdims=True)
        safe_norm = np.maximum(norm, np.finfo(np.float64).tiny)
        accumulate(v, g / denom - v.data * (vg / (safe_norm * denom * denom)))

    record(out, backward)
    return out


def softmax_with_temperature(z: Tensor, tau: float) -> Tensor:
    """Rowwise softmax of z / tau, computed with max-subtraction."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    if z.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or row batch, got {z.data.shape}")
    p = softmax_and_log(z.data / tau)[0]
    out = Tensor(p)

    def backward(g: np.ndarray) -> None:
        inner = (g * p).sum(axis=-1, keepdims=True)
        accumulate(z, p * (g - inner) / tau)

    record(out, backward)
    return out


def softmax_and_log(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise softmax of u and its log, both from one exp(u - max).

    The log is u - logsumexp(u), finite wherever u is, even where the
    probability underflows to 0: the package's one softmax kernel.
    """
    umax = u.max(axis=-1, keepdims=True)
    e = np.exp(u - umax)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, u - (umax + np.log(s))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def backward(g: np.ndarray) -> None:
        accumulate(a, g)
        accumulate(b, g)

    record(out, backward)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def backward(g: np.ndarray) -> None:
        accumulate(x, g * c)

    record(out, backward)
    return out


def multiply(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"multiply shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)

    def backward(g: np.ndarray) -> None:
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)

    record(out, backward)
    return out


def tensor_sum(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def backward(g: np.ndarray) -> None:
        accumulate(x, np.full_like(x.data, float(g)))

    record(out, backward)
    return out


# ---------------------------------------------------------------------------
# parameters, optimizer, oracle


class ParamSet:
    """Named parameters with aligned gradient slots and SGD velocity."""

    def __init__(self, params: dict[str, np.ndarray], frozen: bool = False):
        self._params: dict[str, Tensor] = {}
        for name, value in params.items():
            if name in self._params:
                raise ValueError(f"duplicate parameter name {name!r}")
            self._params[name] = parameter(np.array(value, dtype=np.float64))
        self._velocity: dict[str, np.ndarray] = {}
        self.frozen = False
        if frozen:
            self.set_frozen(True)

    def set_frozen(self, flag: bool) -> None:
        self.frozen = flag
        for t in self._params.values():
            t.requires_grad = not flag
            if t.grad is None:
                t.grad = np.zeros_like(t.data)

    def items(self):
        return self._params.items()

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: t.data.shape for name, t in self._params.items()}

    def copy_from(self, other: "ParamSet") -> None:
        """Bitwise copy of values; grads and velocity are untouched."""
        if self.shapes() != other.shapes():
            raise ValueError(f"parameter sets differ: {self.shapes()} vs {other.shapes()}")
        for name, t in self._params.items():
            np.copyto(t.data, other._params[name].data)

    def clone(self) -> "ParamSet":
        return ParamSet(
            {name: t.data.copy() for name, t in self._params.items()}, frozen=self.frozen
        )


def sgd_step(
    params: ParamSet,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
) -> None:
    """Momentum SGD: buf <- momentum*buf + grad + wd*theta; theta -= lr*buf.

    Gradients are cleared afterwards.  Refuses frozen sets: weight decay
    would silently move parameters that must stay fixed.
    """
    if params.frozen:
        raise GraphError("sgd_step on a frozen parameter set")
    if not 0.0 <= momentum < 1.0:
        raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
    if weight_decay < 0.0:
        raise ParameterError(f"weight_decay must be >= 0, got {weight_decay}")
    for name, t in params.items():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        buf = params._velocity.get(name)
        if buf is None:
            buf = np.zeros_like(t.data)
            params._velocity[name] = buf
        buf *= momentum
        buf += grad
        buf += weight_decay * t.data
        t.data -= lr * buf
        t.zero_grad()


def finite_diff_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, the test oracle."""
    if h <= 0:
        raise ParameterError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
