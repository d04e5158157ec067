"""Tensor op contracts: hand values, finite-difference oracles, invariants."""

import math
import weakref

import numpy as np
import pytest

import distill_ssl.tensor as T
from distill_ssl import eval as E


def rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
    return float(np.abs(analytic - fd).max() / scale)


def grad_of(op_fn, values: dict[str, np.ndarray], wrt: str, weights: np.ndarray) -> np.ndarray:
    """Analytic gradient of sum(weights * op(...)) w.r.t. one input."""
    tensors = {k: T.parameter(v.copy()) for k, v in values.items()}
    graph = T.Graph()
    with graph:
        out = op_fn(**tensors)
        loss = T.tensor_sum(T.multiply(out, T.constant(weights)))
    graph.backward(loss)
    return tensors[wrt].grad


def fd_of(op_fn, values: dict[str, np.ndarray], wrt: str, weights: np.ndarray) -> np.ndarray:
    def f(x):
        args = {k: T.constant(v) for k, v in values.items()}
        args[wrt] = T.constant(x)
        return float((op_fn(**args).data * weights).sum())

    return T.finite_diff_gradient(f, values[wrt].copy())


class TestAffine:
    def test_identity(self):
        out = T.affine(T.constant([[1.0, 2.0]]), T.constant(np.eye(2)), T.constant([0.0, 0.0]))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_hand_case(self):
        out = T.affine(T.constant([[1.0, 2.0]]), T.constant([[1.0], [1.0]]), T.constant([1.0]))
        assert np.array_equal(out.data, [[4.0]])

    def test_zero_input_gives_bias_rows(self):
        b = np.array([0.5, -1.0, 2.0])
        out = T.affine(T.constant(np.zeros((4, 2))), T.constant(np.zeros((2, 3))), T.constant(b))
        assert np.array_equal(out.data, np.tile(b, (4, 1)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(1, 2\).*\(3, 1\)"):
            T.affine(T.constant([[1.0, 2.0]]), T.constant(np.zeros((3, 1))), T.constant([0.0]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        vals = {
            "x": rng.normal(size=(3, 4)),
            "w": rng.normal(size=(4, 2)),
            "b": rng.normal(size=(2,)),
        }
        weights = rng.normal(size=(3, 2))
        for wrt in vals:
            a = grad_of(lambda x, w, b: T.affine(x, w, b), vals, wrt, weights)
            fd = fd_of(lambda x, w, b: T.affine(x, w, b), vals, wrt, weights)
            assert rel_err(a, fd) <= 1e-5


class TestConv2d:
    def test_identity_kernel(self):
        x = np.ones((1, 3, 3))
        out = T.conv2d(T.constant(x), T.constant(np.ones((1, 1, 1, 1))))
        assert np.array_equal(out.data, x)

    def test_hand_cross_correlation(self):
        ramp = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
        k = np.full((1, 1, 2, 2), 0.25)
        out = T.conv2d(T.constant(ramp), T.constant(k))
        assert np.array_equal(out.data, [[[2.0, 3.0], [5.0, 6.0]]])

    def test_zero_kernel(self):
        out = T.conv2d(T.constant(np.random.default_rng(0).normal(size=(2, 5, 5))),
                       T.constant(np.zeros((3, 2, 3, 3))), stride=2, pad=1)
        assert np.all(out.data == 0.0)

    def test_output_extent_formula(self):
        x = T.constant(np.zeros((1, 7, 9)))
        out = T.conv2d(x, T.constant(np.zeros((2, 1, 3, 3))), stride=2, pad=1)
        assert out.data.shape == (2, (7 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(T.ShapeError, match="larger than padded input"):
            T.conv2d(T.constant(np.zeros((1, 2, 2))), T.constant(np.zeros((1, 1, 4, 4))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for stride, pad in ((1, 0), (2, 1)):
            vals = {
                "x": rng.normal(size=(2, 2, 5, 5)),
                "k": rng.normal(size=(3, 2, 3, 3)),
            }
            op = lambda x, k: T.conv2d(x, k, stride=stride, pad=pad)
            weights = rng.normal(size=op(T.constant(vals["x"]), T.constant(vals["k"])).data.shape)
            for wrt in vals:
                assert rel_err(grad_of(op, vals, wrt, weights), fd_of(op, vals, wrt, weights)) <= 1e-5


def conv_loops(x, kern, stride, pad, g):
    """Nested-loop cross-correlation of a B x C x H x W batch and its
    backward for the upstream gradient ``g``: (out, dW, dx)."""
    b, _, h, w = x.shape
    co, _, k, _ = kern.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    out = np.zeros((b, co, oh, ow))
    dw = np.zeros_like(kern)
    dxp = np.zeros_like(xp)
    for n in range(b):
        for o in range(co):
            for r in range(oh):
                for s in range(ow):
                    rows = slice(r * stride, r * stride + k)
                    cols = slice(s * stride, s * stride + k)
                    out[n, o, r, s] = (xp[n, :, rows, cols] * kern[o]).sum()
                    dw[o] += g[n, o, r, s] * xp[n, :, rows, cols]
                    dxp[n, :, rows, cols] += g[n, o, r, s] * kern[o]
    return out, dw, dxp[:, :, pad : pad + h, pad : pad + w]


def conv_einsum(x, kern, stride, pad, g):
    """The einsum formulation conv2d replaced: (out, dW), kept as a bitwise oracle."""
    k = kern.shape[-1]
    h, w = x.shape[-2:]
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = T._conv_windows(xp, k, stride, oh, ow)
    out = np.einsum("bchwij,ocij->bohw", win, kern, optimize=True)
    return out, np.einsum("bchwij,bohw->ocij", win, g, optimize=True)


def conv_with_grads(x, kern, stride, pad, g):
    """conv2d forward plus the gradients it sends to x and the kernels for ``g``."""
    xt, kt = T.parameter(x), T.parameter(kern)
    graph = T.Graph()
    with graph:
        out = T.conv2d(xt, kt, stride=stride, pad=pad)
        loss = T.tensor_sum(T.multiply(out, T.constant(g)))
    graph.backward(loss)
    return out.data, kt.grad, xt.grad


class TestConv2dOracle:
    @pytest.mark.parametrize("stride", (1, 2, 3))
    @pytest.mark.parametrize("pad", (0, 1, 2))
    @pytest.mark.parametrize("k", (1, 3, 5))
    @pytest.mark.parametrize("cin", (1, 3))
    def test_matches_nested_loops(self, stride, pad, k, cin):
        rng = np.random.default_rng(100 * stride + 10 * pad + k + cin)
        x = rng.normal(size=(2, cin, 7, 9))  # H != W
        kern = rng.normal(size=(2, cin, k, k))
        oh, ow = (7 + 2 * pad - k) // stride + 1, (9 + 2 * pad - k) // stride + 1
        g = rng.normal(size=(2, 2, oh, ow))
        out, dw, dx = conv_with_grads(x, kern, stride, pad, g)
        ref_out, ref_dw, ref_dx = conv_loops(x, kern, stride, pad, g)
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride", (1, 2, 3))
    def test_single_input_matches_nested_loops(self, stride):
        rng = np.random.default_rng(stride)
        x = rng.normal(size=(3, 6, 8))
        kern = rng.normal(size=(4, 3, 3, 3))
        oh, ow = (6 + 2 - 3) // stride + 1, (8 + 2 - 3) // stride + 1
        g = rng.normal(size=(4, oh, ow))
        out, dw, dx = conv_with_grads(x, kern, stride, 1, g)
        ref_out, ref_dw, ref_dx = conv_loops(x[None], kern, stride, 1, g[None])
        assert out.shape == (4, oh, ow) and dx.shape == x.shape
        np.testing.assert_allclose(out, ref_out[0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx[0], rtol=1e-12, atol=1e-12)

    # the default encoder's two convolutions, at the training batch and the eval batch
    @pytest.mark.parametrize("batch", (32, 128))
    @pytest.mark.parametrize("cin, cout, size", ((1, 8, 32), (8, 16, 16)))
    def test_encoder_shapes_bitwise_equal_einsum(self, batch, cin, cout, size):
        rng = np.random.default_rng(cin + batch)
        x = rng.normal(size=(batch, cin, size, size))
        kern = rng.normal(size=(cout, cin, 3, 3))
        g = rng.normal(size=(batch, cout, size // 2, size // 2))
        out, dw, dx = conv_with_grads(x, kern, 2, 1, g)
        ref_out, ref_dw = conv_einsum(x, kern, 2, 1, g)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(dw, ref_dw)
        _, _, ref_dx = conv_loops(x[:2], kern, 2, 1, g[:2])
        assert np.abs(dx[:2] - ref_dx).max() <= 1e-12 * np.abs(ref_dx).max()

    def test_constant_operands_get_no_grad(self):
        rng = np.random.default_rng(4)
        x = T.constant(rng.normal(size=(2, 2, 5, 5)))
        kern = T.parameter(rng.normal(size=(3, 2, 3, 3)))
        graph = T.Graph()
        with graph:
            loss = T.tensor_sum(T.conv2d(x, kern, stride=2, pad=1))
        graph.backward(loss)
        assert x.grad is None
        assert np.any(kern.grad != 0.0)

        x, kern = T.parameter(x.data), T.constant(kern.data)
        graph = T.Graph()
        with graph:
            loss = T.tensor_sum(T.conv2d(x, kern, stride=2, pad=1))
        graph.backward(loss)
        assert kern.grad is None
        assert np.any(x.grad != 0.0)


class TestRelu:
    def test_sign_split(self):
        assert np.array_equal(T.relu(T.constant([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_positive_unchanged(self):
        x = np.array([0.5, 1.0, 3.0])
        assert np.array_equal(T.relu(T.constant(x)).data, x)

    def test_gradient_mask_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20,))
        x[np.abs(x) < 1e-3] += 0.1  # stay away from the kink
        weights = rng.normal(size=(20,))
        a = grad_of(lambda x: T.relu(x), {"x": x}, "x", weights)
        fd = fd_of(lambda x: T.relu(x), {"x": x}, "x", weights)
        assert rel_err(a, fd) <= 1e-5
        assert np.array_equal(a, weights * (x > 0))


class TestGlobalAvgPool:
    def test_constant_channel(self):
        assert np.array_equal(T.global_avg_pool(T.constant(np.full((1, 4, 4), 5.0))).data, [5.0])

    def test_hand_mean(self):
        out = T.global_avg_pool(T.constant([[[1.0, 2.0], [3.0, 4.0]]]))
        assert np.array_equal(out.data, [2.5])

    def test_gradient_is_inverse_area(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 4))
        weights = rng.normal(size=(2,))
        a = grad_of(lambda x: T.global_avg_pool(x), {"x": x}, "x", weights)
        fd = fd_of(lambda x: T.global_avg_pool(x), {"x": x}, "x", weights)
        assert rel_err(a, fd) <= 1e-5
        assert np.allclose(a, weights[:, None, None] / 12.0)

    def test_empty_spatial_extent(self):
        with pytest.raises(T.ShapeError, match="empty spatial"):
            T.global_avg_pool(T.constant(np.zeros((2, 0, 3))))


class TestL2Normalize:
    def test_three_four_five(self):
        out = T.l2_normalize(T.constant([3.0, 4.0]), eps=1e-12)
        assert np.allclose(out.data, [0.6, 0.8], atol=1e-12)

    def test_zero_vector(self):
        assert np.array_equal(T.l2_normalize(T.constant([0.0, 0.0])).data, [0.0, 0.0])

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(T.l2_normalize(T.constant(v)).data, v, atol=1e-9)

    def test_norm_at_most_one(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(50, 6))
        out = T.l2_normalize(T.constant(v)).data
        assert np.all(np.sqrt((out * out).sum(axis=1)) <= 1.0 + 1e-12)

    def test_eps_must_be_positive(self):
        with pytest.raises(T.ParameterError):
            T.l2_normalize(T.constant([1.0]), eps=0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        v = rng.normal(size=(3, 5))
        weights = rng.normal(size=(3, 5))
        a = grad_of(lambda v: T.l2_normalize(v), {"v": v}, "v", weights)
        fd = fd_of(lambda v: T.l2_normalize(v), {"v": v}, "v", weights)
        assert rel_err(a, fd) <= 1e-5


class TestSoftmaxWithTemperature:
    def test_uniform_for_equal_logits(self):
        out = T.softmax_with_temperature(T.constant([2.0, 2.0, 2.0, 2.0]), 0.5)
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_closed_form_tau_one(self):
        out = T.softmax_with_temperature(T.constant([1.0, 0.0]), 1.0)
        e = math.exp(1.0)
        assert np.allclose(out.data, [e / (1 + e), 1 / (1 + e)], atol=1e-12)

    def test_closed_form_sharp_tau(self):
        out = T.softmax_with_temperature(T.constant([1.0, 0.0]), 0.07)
        expected_p1 = math.exp(-1.0 / 0.07) / (1.0 + math.exp(-1.0 / 0.07))
        assert abs(out.data[1] - expected_p1) < 1e-18
        assert abs(out.data[0] - (1.0 - 6.2e-7)) < 1e-8

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(30, 9)) * 3
        out = T.softmax_with_temperature(T.constant(z), 0.07)
        assert np.abs(out.data.sum(axis=1) - 1.0).max() <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(12,))
        a = T.softmax_with_temperature(T.constant(z), 0.3).data
        b = T.softmax_with_temperature(T.constant(z + 7.5), 0.3).data
        assert np.abs(a - b).max() <= 1e-12

    def test_tau_must_be_positive(self):
        with pytest.raises(T.ParameterError):
            T.softmax_with_temperature(T.constant([1.0]), 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        z = rng.normal(size=(4, 6))
        weights = rng.normal(size=(4, 6))
        for tau in (1.0, 0.07):
            op = lambda z: T.softmax_with_temperature(z, tau)
            assert rel_err(grad_of(op, {"z": z}, "z", weights), fd_of(op, {"z": z}, "z", weights)) <= 1e-5


def softmax_by_reduction(u):
    """``softmax_and_log`` spelled out: numpy's reductions along the last axis."""
    umax = u.max(axis=-1, keepdims=True)
    e = np.exp(u - umax)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, u - (umax + np.log(s))


def logit_cases(k, seed):
    rng = np.random.default_rng(seed)
    for shape in ((k,), (1, k), (3, k), (32, k), (600, k), (1200, k)):
        for scale in (0.1, 1.0, 30.0, 300.0):
            yield rng.normal(size=shape) * scale


def class_major_softmax(u):
    """The probe's softmax of u's rows, taken class-major and returned samples-major."""
    k = u.shape[-1]
    z = u.reshape(-1, k).T.copy()  # C order, and never a view of u
    return E._softmax_class_major(z).T.reshape(u.shape)


class TestSoftmaxAndLog:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_probe_class_major_equals_reduction_bitwise(self, k):
        for u in logit_cases(k, seed=k):
            p = class_major_softmax(u)
            assert p.shape == u.shape
            assert np.array_equal(p, softmax_by_reduction(u)[0])

    def test_probe_class_major_at_eight_classes_within_1e15(self):
        for u in logit_cases(8, seed=8):
            ref = softmax_by_reduction(u)[0]
            assert (np.abs(class_major_softmax(u) - ref) <= 1e-15 * ref).all()

    @pytest.mark.parametrize("shape", ((600, 4), (4,), (600, 257)))
    def test_softmax_and_log_is_the_reduction(self, shape):
        u = np.random.default_rng(5).normal(size=shape)
        p, log_p = T.softmax_and_log(u)
        ref_p, ref_log_p = softmax_by_reduction(u)
        assert np.array_equal(p, ref_p) and np.array_equal(log_p, ref_log_p)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.parameter(np.arange(6, dtype=np.float64).reshape(2, 3))
        graph = T.Graph()
        with graph:
            loss = T.tensor_sum(x)
        graph.backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_squared_norm_gradient(self):
        v = np.array([1.0, -2.0, 3.0])
        x = T.parameter(v.copy())
        graph = T.Graph()
        with graph:
            loss = T.tensor_sum(T.multiply(x, x))
        graph.backward(loss)
        assert np.allclose(x.grad, 2 * v, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = T.parameter(np.ones(3))
        graph = T.Graph()
        with graph:
            out = T.relu(x)
        with pytest.raises(T.GraphError, match="scalar"):
            graph.backward(out)

    def test_loss_outside_graph_rejected(self):
        graph = T.Graph()
        with graph:
            pass
        with pytest.raises(T.GraphError, match="not produced"):
            graph.backward(T.constant(1.0))

    def test_non_participating_parameter_keeps_zero_grad(self):
        x = T.parameter(np.ones(3))
        unused = T.parameter(np.ones(4))
        graph = T.Graph()
        with graph:
            loss = T.tensor_sum(x)
        graph.backward(loss)
        assert np.array_equal(unused.grad, np.zeros(4))

    def test_shared_input_accumulates_both_paths(self):
        x = T.parameter(np.array([2.0]))
        graph = T.Graph()
        with graph:
            loss = T.tensor_sum(T.add(T.scale(x, 3.0), T.multiply(x, x)))
        graph.backward(loss)
        assert np.allclose(x.grad, [3.0 + 4.0])

    def test_a_spent_graph_refuses_a_second_backward(self):
        x = T.parameter(np.array([2.0]))
        graph = T.Graph()
        with graph:
            loss = T.tensor_sum(T.scale(x, 3.0))
        graph.backward(loss)
        assert len(graph) == 2  # the recorded ops still count
        with pytest.raises(T.GraphError, match="already walked"):
            graph.backward(loss)
        assert np.array_equal(x.grad, [3.0])

    def test_backward_drops_every_intermediate_gradient(self):
        x = T.parameter(np.array([1.0, -2.0]))
        graph = T.Graph()
        with graph:
            hidden = T.relu(T.scale(x, 2.0))
            loss = T.tensor_sum(hidden)
        graph.backward(loss)
        assert hidden.grad is None and loss.grad is None
        assert np.array_equal(x.grad, [2.0, 0.0])

    def test_first_gradient_is_a_zeroed_slot_plus_the_contribution(self):
        # g + 0.0 in one pass is bitwise 0.0 + g: a -0.0 contribution lands as +0.0
        x = T.Tensor(np.ones(4))
        x._node = True
        g = np.array([-0.0, 0.0, -1.5, 2.0**-1074])
        T.accumulate(x, g)
        assert x.grad.tobytes() == (np.zeros(4) + g).tobytes()
        assert np.signbit(x.grad).tolist() == [False, False, True, False]
        assert x.grad is not g
        T.accumulate(x, np.broadcast_to(np.float64(1.0), (4,)))
        assert x.grad.tolist() == [1.0, 1.0, -0.5, 1.0]

    def test_conv_backward_keeps_no_input_that_takes_no_gradient(self):
        # conv1's centered frames: the tape holds neither them nor their padded copy
        rng = np.random.default_rng(5)
        kern = T.parameter(rng.normal(size=(3, 2, 3, 3)))
        x = T.constant(rng.normal(size=(2, 2, 5, 5)))
        frames = weakref.ref(x.data)
        graph = T.Graph()
        with graph:
            loss = T.tensor_sum(T.conv2d(x, kern, stride=2, pad=1))
        del x
        assert frames() is None
        graph.backward(loss)
        assert np.any(kern.grad != 0.0)

    def test_forward_without_graph_records_nothing(self):
        x = T.parameter(np.ones(3))
        out = T.relu(x)
        assert not out._node


class TestFiniteDiff:
    def test_square_at_three(self):
        fd = T.finite_diff_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-5)
        assert abs(fd[0] - 6.0) <= 1e-8

    def test_constant_function(self):
        fd = T.finite_diff_gradient(lambda x: 42.0, np.ones(5))
        assert np.array_equal(fd, np.zeros(5))

    def test_linear_function_exact(self):
        a = np.array([2.0, -1.0, 0.5])
        for h in (1e-3, 1e-6):
            fd = T.finite_diff_gradient(lambda x: float((a * x).sum()), np.zeros(3), h=h)
            assert np.allclose(fd, a, atol=1e-9)


class TestSgdStep:
    def test_zero_lr_keeps_parameters(self):
        ps = T.ParamSet({"w": np.array([1.0, 2.0])})
        ps["w"].grad[:] = 5.0
        T.sgd_step(ps, lr=0.0)
        assert np.array_equal(ps["w"].data, [1.0, 2.0])

    def test_plain_step(self):
        ps = T.ParamSet({"w": np.array([1.0])})
        ps["w"].grad[:] = 1.0
        T.sgd_step(ps, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(ps["w"].data, [0.9], atol=1e-15)

    def test_weight_decay_only(self):
        ps = T.ParamSet({"w": np.array([1.0])})
        T.sgd_step(ps, lr=0.1, momentum=0.0, weight_decay=0.1)
        assert np.allclose(ps["w"].data, [0.99], atol=1e-15)

    def test_momentum_accumulates(self):
        ps = T.ParamSet({"w": np.array([0.0])})
        for _ in range(2):
            ps["w"].grad[:] = 1.0
            T.sgd_step(ps, lr=1.0, momentum=0.5, weight_decay=0.0)
        # buf: 1.0 then 1.5; theta: -1.0 then -2.5
        assert np.allclose(ps["w"].data, [-2.5])

    def test_gradients_cleared_after_step(self):
        ps = T.ParamSet({"w": np.array([1.0])})
        ps["w"].grad[:] = 3.0
        T.sgd_step(ps, lr=0.1)
        assert np.array_equal(ps["w"].grad, [0.0])

    def test_frozen_set_rejected(self):
        ps = T.ParamSet({"w": np.array([1.0])}, frozen=True)
        with pytest.raises(T.GraphError, match="frozen"):
            T.sgd_step(ps, lr=0.1)


class TestParamSet:
    def test_grad_slots_match_shapes(self):
        ps = T.ParamSet({"a": np.zeros((2, 3)), "b": np.zeros(4)})
        for _, t in ps.items():
            assert t.grad.shape == t.data.shape

    def test_copy_from_is_bitwise(self):
        a = T.ParamSet({"w": np.array([1.1, 2.2])})
        b = T.ParamSet({"w": np.array([9.9, 8.8])})
        b.copy_from(a)
        assert np.array_equal(b["w"].data, a["w"].data)

    def test_copy_from_shape_mismatch(self):
        a = T.ParamSet({"w": np.zeros(2)})
        b = T.ParamSet({"w": np.zeros(3)})
        with pytest.raises(ValueError):
            a.copy_from(b)


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    a = T.conv2d(T.constant(x), T.constant(k), stride=2, pad=1).data
    b = T.conv2d(T.constant(x), T.constant(k), stride=2, pad=1).data
    assert np.array_equal(a, b)
    va = T.l2_normalize(T.constant(x[0, 0, 0])).data
    vb = T.l2_normalize(T.constant(x[0, 0, 0])).data
    assert np.array_equal(va, vb)
