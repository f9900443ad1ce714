"""Unit tests for the reverse-mode array substrate."""

import numpy as np
import pytest

from conftest import assert_close_to_fd, central_difference

from polytraj import autodiff as ad
from polytraj.autodiff import Adam, Parameter, Tensor, load_checkpoint, save_checkpoint, sgd_step
from polytraj.errors import DataError, GraphError, NumericalError, ShapeError


def test_matmul_hand_example():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    assert out.data.tolist() == [[11.0]]


def test_sigmoid_at_zero():
    assert Tensor(0.0).sigmoid().item() == 0.5


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
        hidden = ad.tanh(x @ w1 + b1)
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
        ("sigmoid", lambda a, b: (a + b).sigmoid()),
        ("tanh", lambda a, b: (a * b).tanh()),
        ("exp", lambda a, b: (a - b).exp()),
        ("log", lambda a, b: (a * a + b * b + 0.5).log()),
        ("power", lambda a, b: (a * a + 1.0) ** 1.5 + b),
        ("softmax", lambda a, b: (a + b).softmax(axis=1)),
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


def test_reduction_slice_concat_gradients(rng):
    a = Tensor(rng.normal(0, 1, size=(3, 5)))
    b = Tensor(rng.normal(0, 1, size=(3, 2)))
    weights = rng.normal(0, 1, size=(3, 7))

    def forward():
        joined = ad.concat([a, b], axis=1)
        picked = joined[:, 1:6]
        partial = picked.sum(axis=1, keepdims=True)
        return ((joined * weights).mean() + partial.sum()) * 0.5

    forward().backward()
    for param in (a, b):
        numeric = central_difference(lambda: float(forward().data), param.data)
        assert_close_to_fd(param.grad, numeric)


def test_broadcast_bias_gradient(rng):
    bias = Tensor(rng.normal(0, 1, size=4))
    x = rng.normal(0, 1, size=(6, 4))

    def forward():
        return ((x + bias) ** 2).sum()

    forward().backward()
    numeric = central_difference(lambda: float(forward().data), bias.data)
    assert_close_to_fd(bias.grad, numeric)


def test_log_rejects_non_positive():
    with pytest.raises(NumericalError):
        Tensor([1.0, 0.0]).log()


def test_sgd_step_basics():
    p = Parameter("p", Tensor([1.0]))
    p.node.grad = np.array([1.0])
    sgd_step([p], lr=0.1)
    np.testing.assert_allclose(p.node.data, [0.9])
    assert p.node.grad is None


def test_sgd_clip_clamps_elementwise():
    p = Parameter("p", Tensor([0.0]))
    p.node.grad = np.array([100.0])
    sgd_step([p], lr=1.0, grad_clip=1.0)
    np.testing.assert_allclose(p.node.data, [-1.0])


def test_sgd_zero_gradient_leaves_parameter_unchanged():
    p = Parameter("p", Tensor([2.5]))
    sgd_step([p], lr=0.1)
    np.testing.assert_array_equal(p.node.data, [2.5])


def test_sgd_rejects_non_finite_gradient():
    p = Parameter("theta", Tensor([1.0]))
    p.node.grad = np.array([np.nan])
    with pytest.raises(NumericalError, match="theta"):
        sgd_step([p], lr=0.1)


def test_adam_lr_zero_keeps_parameters():
    p = Parameter("p", Tensor([3.0]))
    opt = Adam([p], lr=0.0)
    p.node.grad = np.array([5.0])
    opt.step()
    np.testing.assert_array_equal(p.node.data, [3.0])


@pytest.mark.parametrize("lr", [np.nan, np.inf, 1e308])
def test_optimizer_step_leaving_a_parameter_non_finite_raises(lr):
    p = Parameter("theta", Tensor([1.0, -1e308]))
    p.node.grad = np.array([1.0, 1.0])
    with pytest.raises(NumericalError, match="left parameter 'theta' non-finite"):
        sgd_step([p], lr=lr)
    q = Parameter("theta", Tensor([1.0, -1e308]))
    opt = Adam([q], lr=lr)
    q.node.grad = np.array([1.0, 1.0])
    with pytest.raises(NumericalError, match="left parameter 'theta' non-finite"):
        opt.step()


def test_adam_moves_against_gradient():
    p = Parameter("p", Tensor([1.0]))
    opt = Adam([p], lr=0.1)
    p.node.grad = np.array([1.0])
    opt.step()
    assert p.node.data[0] < 1.0


def test_checkpoint_round_trip_exact(tmp_path, rng):
    params = [
        Parameter("layer.w", Tensor(rng.normal(0, 1, size=(3, 4)) * np.pi)),
        Parameter("layer.b", Tensor(rng.normal(0, 1e-17, size=4))),
        Parameter("scalar", Tensor(1.0 / 3.0)),
    ]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta={"model.head": "polynomial", "model.units": "4"})
    meta, arrays = load_checkpoint(path)
    assert meta == {"model.head": "polynomial", "model.units": "4"}
    for p in params:
        assert arrays[p.name].shape == p.node.data.shape
        np.testing.assert_array_equal(arrays[p.name], p.node.data)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_seeded_step_is_bit_identical(rng):
    def run_once():
        gen = np.random.default_rng(99)
        w = Parameter("w", Tensor(gen.normal(0, 1, size=(3, 3))))
        x = gen.normal(0, 1, size=(2, 3))
        loss = ((x @ w.node) ** 2).mean()
        loss.backward()
        opt = Adam([w], lr=0.01, grad_clip=1.0)
        opt.step()
        return w.node.data.copy()

    first = run_once()
    second = run_once()
    np.testing.assert_array_equal(first, second)
