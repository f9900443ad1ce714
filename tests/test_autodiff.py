"""Unit tests for the reverse-mode array substrate."""

import numpy as np
import pytest

from conftest import assert_close_to_fd, central_difference

from polytraj import autodiff as ad
from polytraj.autodiff import Adam, Tensor, load_checkpoint, save_checkpoint, sgd_step
from polytraj.errors import DataError, GraphError, NumericalError, ShapeError


def test_matmul_hand_example():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    assert out.data.tolist() == [[11.0]]


def test_sigmoid_at_zero():
    assert ad.sigmoid(np.array(0.0)) == 0.5


def test_sigmoid_of_a_large_negative_array_is_zero_without_warning():  # pytest turns warnings into errors
    assert ad.sigmoid(np.array([-1000.0])).tolist() == [0.0]


def test_softmax_symmetry():
    out = Tensor([0.0, 0.0]).softmax()
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_sum_gradient_is_ones():
    p = Tensor([1.0, 5.0, -2.0])
    p.sum().backward()
    np.testing.assert_array_equal(p.grad, [1.0, 1.0, 1.0])


def test_square_gradient():
    p = Tensor([1.0, 2.0])
    (p * p).sum().backward()
    np.testing.assert_allclose(p.grad, [2.0, 4.0])


def test_reused_node_accumulates_both_paths():
    x = Tensor([3.0])
    (x + x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0])


def test_second_backward_through_a_consumed_graph_raises():
    p = Tensor([1.0, -2.0])
    hidden = p * p
    loss = hidden.sum()
    loss.backward()
    np.testing.assert_array_equal(p.grad, [2.0, -4.0])
    with pytest.raises(GraphError):
        loss.backward()
    with pytest.raises(GraphError):
        (hidden * 3.0).sum().backward()  # reaches p only through the consumed node
    np.testing.assert_array_equal(p.grad, [2.0, -4.0])


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).backward()


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
        Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 2\)"):
        Tensor(np.ones((2, 2))) @ Tensor(np.ones((3, 2)))


def test_two_layer_net_matches_finite_differences(rng):
    w1 = Tensor(rng.normal(0, 0.5, size=(4, 5)))
    b1 = Tensor(rng.normal(0, 0.1, size=5))
    w2 = Tensor(rng.normal(0, 0.5, size=(5, 2)))
    x = rng.normal(0, 1, size=(3, 4))
    target = rng.normal(0, 1, size=(3, 2))

    def forward():
        e = ((Tensor(x) @ w1 + b1) * 2.0).exp()
        hidden = (e - 1.0) / (e + 1.0)  # tanh
        return (((hidden @ w2) - target) ** 2).mean()

    loss = forward()
    loss.backward()
    for param in (w1, b1, w2):
        numeric = central_difference(lambda: float(forward().data), param.data, step=1e-3)
        assert_close_to_fd(param.grad, numeric)


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda a, b: a + b),
        ("sub", lambda a, b: a - b),
        ("mul", lambda a, b: a * b),
        ("div", lambda a, b: a / (b * b + 1.0)),
        ("matmul", lambda a, b: a @ b),
        ("transpose", lambda a, b: a.T @ b),
        ("exp", lambda a, b: (a - b).exp()),
        ("log", lambda a, b: (a * a + b * b + 0.5).log()),
        ("power", lambda a, b: (a * a + 1.0) ** 1.5 + b),
        ("softmax", lambda a, b: (a + b).softmax(axis=1)),
        ("reshape", lambda a, b: (a.reshape(2, 8) * b.reshape(2, 2, 4).reshape(2, 8)).reshape(4, 4)),
    ],
)
def test_op_gradients_match_finite_differences(name, build, rng):
    a = Tensor(rng.normal(0, 1, size=(4, 4)))
    b = Tensor(rng.normal(0, 1, size=(4, 4)))

    def forward():
        return (build(a, b) * rng_weights).sum()

    rng_weights = rng.normal(0, 1, size=(4, 4))
    forward().backward()
    for param in (a, b):
        numeric = central_difference(lambda: float(forward().data), param.data)
        assert_close_to_fd(param.grad if param.grad is not None else np.zeros_like(param.data), numeric)


_CONSTANT = np.arange(1.0, 13.0).reshape(3, 4) / 4.0  # no zero to divide by


@pytest.mark.parametrize(
    "name,build,constant",
    [
        ("add array", lambda t, c: t + c, _CONSTANT),
        ("add float", lambda t, c: t + c, 1.5),
        ("sub array", lambda t, c: t - c, _CONSTANT),
        ("sub float", lambda t, c: t - c, 1.5),
        ("mul array", lambda t, c: t * c, _CONSTANT),
        ("mul float", lambda t, c: t * c, 1.5),
        ("rmul array", lambda t, c: c * t, _CONSTANT),
        ("rmul float", lambda t, c: c * t, 2.0),
        ("div array", lambda t, c: t / c, _CONSTANT),
        ("div float", lambda t, c: t / c, 1.5),
        ("matmul array", lambda t, c: t @ c, _CONSTANT[:1]),
    ],
)
def test_a_non_tensor_operand_is_a_constant_outside_the_graph(name, build, constant, rng):
    values = rng.normal(0, 1, size=(3, 1))  # broadcast against the (3, 4) array
    t = Tensor(values)
    out = build(t, constant)
    assert len(out._parents) == 1 and out._parents[0] is t
    weights = rng.normal(0, 1, size=out.shape)
    (out * weights).sum().backward()
    # the same gradient, bit for bit, as with the constant a leaf of the graph
    wrapped = Tensor(values)
    (build(wrapped, Tensor(constant)) * weights).sum().backward()
    np.testing.assert_array_equal(t.grad, wrapped.grad)


def test_reduction_slice_reshape_gradients(rng):
    a = Tensor(rng.normal(0, 1, size=(3, 10)))
    b = Tensor(rng.normal(0, 1, size=(15,)))
    weights = rng.normal(0, 1, size=(3, 2, 5))

    def forward():
        joined = a.reshape(3, 2, 5) + b.reshape(3, 1, 5)
        picked = joined[:, 1:, 1:4]
        partial = picked.sum(axis=2, keepdims=True)
        return ((joined * weights).mean() + partial.sum(axis=0).sum()) * 0.5

    forward().backward()
    for param in (a, b):
        numeric = central_difference(lambda: float(forward().data), param.data)
        assert_close_to_fd(param.grad, numeric)


def test_broadcast_bias_gradient(rng):
    bias = Tensor(rng.normal(0, 1, size=4))
    x = rng.normal(0, 1, size=(6, 4))

    def forward():
        return ((bias + x) ** 2).sum()

    forward().backward()
    numeric = central_difference(lambda: float(forward().data), bias.data)
    assert_close_to_fd(bias.grad, numeric)


def test_log_rejects_non_positive():
    with pytest.raises(NumericalError):
        Tensor([1.0, 0.0]).log()


def test_sgd_step_basics():
    p = Tensor([1.0])
    p.grad = np.array([1.0])
    sgd_step({"p": p}, lr=0.1)
    np.testing.assert_allclose(p.data, [0.9])
    assert p.grad is None


def test_sgd_clip_clamps_elementwise():
    p = Tensor([0.0])
    p.grad = np.array([100.0])
    sgd_step({"p": p}, lr=1.0, grad_clip=1.0)
    np.testing.assert_allclose(p.data, [-1.0])


def test_sgd_zero_gradient_leaves_parameter_unchanged():
    p = Tensor([2.5])
    sgd_step({"p": p}, lr=0.1)
    np.testing.assert_array_equal(p.data, [2.5])


def test_sgd_rejects_non_finite_gradient():
    p = Tensor([1.0])
    p.grad = np.array([np.nan])
    with pytest.raises(NumericalError, match="theta"):
        sgd_step({"theta": p}, lr=0.1)


def test_adam_lr_zero_keeps_parameters():
    p = Tensor([3.0])
    opt = Adam({"p": p}, lr=0.0)
    p.grad = np.array([5.0])
    opt.step()
    np.testing.assert_array_equal(p.data, [3.0])


@pytest.mark.parametrize("lr", [np.nan, np.inf, 1e308])
def test_optimizer_step_leaving_a_parameter_non_finite_raises(lr):
    p = Tensor([1.0, -1e308])
    p.grad = np.array([1.0, 1.0])
    with pytest.raises(NumericalError, match="left parameter 'theta' non-finite"):
        sgd_step({"theta": p}, lr=lr)
    q = Tensor([1.0, -1e308])
    opt = Adam({"theta": q}, lr=lr)
    q.grad = np.array([1.0, 1.0])
    with pytest.raises(NumericalError, match="left parameter 'theta' non-finite"):
        opt.step()


def test_adam_moves_against_gradient():
    p = Tensor([1.0])
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] < 1.0


def test_checkpoint_round_trip_exact(tmp_path, rng):
    params = {
        "layer.w": Tensor(rng.normal(0, 1, size=(3, 4)) * np.pi),
        "layer.b": Tensor(rng.normal(0, 1e-17, size=4)),
        "scalar": Tensor(1.0 / 3.0),
        # negative zero, the smallest subnormal and the largest finite magnitudes
        "edges": Tensor([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta={"model.head": "polynomial", "model.units": "4"})
    meta, arrays = load_checkpoint(path)
    assert meta == {"model.head": "polynomial", "model.units": "4"}
    for name, node in params.items():
        assert arrays[name].shape == node.data.shape
        np.testing.assert_array_equal(arrays[name], node.data)
        assert arrays[name].tobytes() == node.data.tobytes()  # -0.0 keeps its sign bit


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_seeded_step_is_bit_identical(rng):
    def run_once():
        gen = np.random.default_rng(99)
        w = Tensor(gen.normal(0, 1, size=(3, 3)))
        x = gen.normal(0, 1, size=(2, 3))
        loss = ((Tensor(x) @ w) ** 2).mean()
        loss.backward()
        opt = Adam({"w": w}, lr=0.01, grad_clip=1.0)
        opt.step()
        return w.data.copy()

    first = run_once()
    second = run_once()
    np.testing.assert_array_equal(first, second)

