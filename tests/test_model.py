"""Tests for the GRU cell, attention, the full model, and training."""

import gc
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    assert_close_to_fd,
    central_difference,
    make_moderate_samples,
    oracle_forward,
    oracle_gru_cell,
    oracle_loss,
)

from polytraj.autodiff import Tensor
from polytraj.data import Sample, gen_synthetic, build_samples
from polytraj.errors import ConfigError, DataError, NumericalError, ShapeError
from polytraj.model import (
    COORDINATES,
    POLYNOMIAL,
    GRUWeights,
    ModelConfig,
    TrainSettings,
    TrajectoryModel,
    attention,
    batch_loss,
    collate,
    gru_cell,
    load_model,
    moments,
    save_model,
    train,
)

# -- GRU cell -------------------------------------------------------------------


def _zero_weights(in_dim, units):
    return GRUWeights(
        w_x=np.zeros((in_dim, 3 * units)),
        u_zr=np.zeros((units, 2 * units)),
        u_c=np.zeros((units, units)),
        b=np.zeros(3 * units),
    )


def test_gru_zero_weights_zero_state():
    out = gru_cell(np.ones((1, 4)), np.zeros((1, 3)), _zero_weights(4, 3))
    np.testing.assert_array_equal(out, np.zeros((1, 3)))


def test_gru_saturated_update_gate_keeps_state():
    units = 3
    weights = _zero_weights(2, units)
    weights.b[:units] = 50.0  # update gate saturates toward keeping h
    h = np.array([[0.3, -0.7, 1.2]])
    out = gru_cell(np.ones((1, 2)), h, weights)
    np.testing.assert_allclose(out, h, atol=1e-12)


def test_gru_gradients_match_finite_differences(rng):
    in_dim, units = 3, 4
    weights = GRUWeights(
        w_x=Tensor(rng.normal(0, 0.5, size=(in_dim, 3 * units))),
        u_zr=Tensor(rng.normal(0, 0.5, size=(units, 2 * units))),
        u_c=Tensor(rng.normal(0, 0.5, size=(units, units))),
        b=Tensor(rng.normal(0, 0.2, size=3 * units)),
    )
    h = Tensor(rng.normal(0, 1, size=(2, units)))
    x = rng.normal(0, 1, size=(2, in_dim))
    mix = rng.normal(0, 1, size=(2, units))

    def forward():
        return (gru_cell(x, h, weights) * mix).sum()

    forward().backward()
    for param in (weights.w_x, weights.u_zr, weights.u_c, weights.b, h):
        numeric = central_difference(lambda: float(forward().data), param.data)
        assert_close_to_fd(param.grad, numeric)


def test_gru_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        gru_cell(np.ones((1, 5)), np.zeros((1, 3)), _zero_weights(4, 3))
    with pytest.raises(ShapeError):
        weights = _zero_weights(4, 3)
        gru_cell(np.ones((1, 5)), Tensor(np.zeros((1, 3))), GRUWeights(
            w_x=Tensor(weights.w_x), u_zr=Tensor(weights.u_zr),
            u_c=Tensor(weights.u_c), b=Tensor(weights.b),
        ))


# -- chains of GRU steps -------------------------------------------------------


def _random_weights(rng, in_dim, units, wrap=np.asarray):
    return GRUWeights(
        w_x=wrap(rng.normal(0, 0.5, size=(in_dim, 3 * units))),
        u_zr=wrap(rng.normal(0, 0.5, size=(units, 2 * units))),
        u_c=wrap(rng.normal(0, 0.5, size=(units, units))),
        b=wrap(rng.normal(0, 0.2, size=3 * units)),
    )


def _gru_chain(xs, h, weights, mask=None):
    """The state after each of the S steps of `xs`, one `gru_cell` a step."""
    states = []
    for t in range(xs.shape[0]):
        h = gru_cell(xs[t], h, weights, None if mask is None else mask[t])
        states.append(h)
    return states


def test_gru_cell_chain_matches_iterated_oracle_cell(rng):
    steps, rows, in_dim, units = 5, 4, 3, 2
    weights = _random_weights(rng, in_dim, units)
    xs = rng.normal(0, 1, size=(steps, rows, in_dim))
    h0 = rng.normal(0, 1, size=(rows, units))
    mask = (rng.uniform(size=(steps, rows)) < 0.6).astype(float)
    h = h0
    for t in range(steps):
        new_h = oracle_gru_cell(xs[t], h, weights)
        h = mask[t][:, None] * new_h + (1.0 - mask[t][:, None]) * h
    np.testing.assert_array_equal(_gru_chain(xs, h0, weights, mask)[-1], h)
    np.testing.assert_array_equal(gru_cell(xs[0], h0, weights), oracle_gru_cell(xs[0], h0, weights))
    # the graph path computes the same states as the array path
    graph_weights = GRUWeights(*(Tensor(w) for w in (weights.w_x, weights.u_zr, weights.u_c, weights.b)))
    np.testing.assert_array_equal(_gru_chain(Tensor(xs), Tensor(h0), graph_weights, mask)[-1].data, h)


def test_gru_cell_chain_gradients_match_finite_differences(rng):
    steps, rows, in_dim, units = 4, 3, 2, 3
    weights = _random_weights(rng, in_dim, units, wrap=Tensor)
    xs = Tensor(rng.normal(0, 1, size=(steps, rows, in_dim)))
    h0 = Tensor(rng.normal(0, 1, size=(rows, units)))
    mask = np.ones((steps, rows))
    mask[:2, 1] = 0.0  # row 1 enters late
    mix = rng.normal(0, 1, size=(steps, rows, units))

    def forward():
        loss = 0.0
        for t, h in enumerate(_gru_chain(xs, h0, weights, mask)):
            loss = loss + (h * mix[t]).sum()
        return loss

    forward().backward()
    for node in (weights.w_x, weights.u_zr, weights.u_c, weights.b, h0, xs):
        numeric = central_difference(lambda: float(forward().data), node.data)
        assert_close_to_fd(node.grad, numeric)


# -- attention ------------------------------------------------------------------


def _slots(stack):
    """(n, d) stack -> per-slot list of (1, d) batches."""
    return [row[np.newaxis] for row in np.asarray(stack, dtype=float)]


def test_attention_singleton_returns_value(rng):
    value = rng.normal(0, 1, size=(1, 4))
    out = attention(rng.normal(0, 1, size=(1, 4)), _slots(rng.normal(0, 1, size=(1, 4))), _slots(value), np.ones((1, 1)))
    np.testing.assert_allclose(out, value)


def test_attention_identical_keys_average_values(rng):
    key = rng.normal(0, 1, size=4)
    values = rng.normal(0, 1, size=(2, 4))
    out = attention(rng.normal(0, 1, size=(1, 4)), _slots([key, key]), _slots(values), np.ones((1, 2)))
    np.testing.assert_allclose(out[0], values.mean(axis=0))


def test_attention_orthogonal_query_gives_mean(rng):
    # all scores equal -> uniform softmax
    query = np.array([[0.0, 0.0, 1.0]])
    keys = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 2.0, 0.0]])
    values = rng.normal(0, 1, size=(3, 3))
    out = attention(query, _slots(keys), _slots(values), np.ones((1, 3)))
    np.testing.assert_allclose(out[0], values.mean(axis=0))


def test_attention_rejects_empty_keys():
    with pytest.raises(ShapeError):
        attention(np.zeros((1, 3)), [], [], np.zeros((1, 0)))


def test_attention_absent_slot_gets_zero_weight(rng):
    # a padded slot, even with a huge value, changes no bit of the output
    query = rng.normal(0, 1, size=(2, 4))
    keys = rng.normal(0, 1, size=(3, 2, 4))
    values = rng.normal(0, 1, size=(3, 2, 4))
    values[1, 0] = 1e6
    present = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    out = attention(query, list(keys), list(values), present)
    without = attention(query[:1], [keys[0, :1], keys[2, :1]], [values[0, :1], values[2, :1]], np.ones((1, 2)))
    np.testing.assert_array_equal(out[:1], without)


# -- config and forward ------------------------------------------------------------


def test_coordinate_head_rejects_random_anchoring():
    with pytest.raises(ConfigError):
        ModelConfig(head=COORDINATES, anchor_mode="random")


def test_head_offsets_for_coordinates():
    cfg = ModelConfig(head=COORDINATES, anchor_mode="fixed", anchor_count=2, horizon=50)
    assert cfg.head_offsets == (25, 50)
    assert cfg.output_dim == 8


def _forward(model, sample):
    """Raw head output for one sample, through the batched inference path."""
    states, mask = collate([sample])
    return model.forward_batch(states, mask, train=False)[0]


def test_zero_head_polynomial_is_origin_everywhere(rng):
    samples = make_moderate_samples(rng, 1)
    model = TrajectoryModel(ModelConfig(units=6, d_x=3, d_y=2), seed=3)
    model.zero_head()
    raw = _forward(model, samples[0])[np.newaxis]
    for mean, var in moments(model.config, raw, [[1, 10, 50]]):
        np.testing.assert_array_equal(mean, np.zeros((1, 3)))
        assert np.all(var > 0)
    positions = model.predict_positions(samples, [1, 10, 50])
    np.testing.assert_array_equal(positions, np.zeros((1, 3, 2)))


def test_zero_head_coordinates_all_zero(rng):
    samples = make_moderate_samples(rng, 1)
    cfg = ModelConfig(head=COORDINATES, anchor_mode="fixed", anchor_count=3, horizon=30, units=6)
    model = TrajectoryModel(cfg, seed=3)
    model.zero_head()
    points = model.predict_positions(samples, cfg.head_offsets)
    np.testing.assert_array_equal(points, np.zeros((1, 3, 2)))


def test_coordinate_moments_select_requested_offsets(rng):
    samples = make_moderate_samples(rng, 2)
    cfg = ModelConfig(head=COORDINATES, anchor_mode="fixed", anchor_count=5, horizon=50, units=6)
    model = TrajectoryModel(cfg, seed=3)
    every = model.predict_positions(samples, cfg.head_offsets)
    np.testing.assert_array_equal(model.predict_positions(samples, [50, 20]), every[:, [4, 1]])
    with pytest.raises(ConfigError, match="25"):
        model.predict_positions(samples, [20, 25])


def test_batched_prediction_matches_single_samples(rng):
    # padded agent slots change nothing; only the BLAS kernel choice for a
    # batch of one differs, at the last bits
    samples = [make_moderate_samples(rng, 1, agents=n)[0] for n in (1, 3, 2)]
    model = TrajectoryModel(ModelConfig(units=6), seed=4)
    batched = model.predict_positions(samples, [5, 25, 50])
    for i, sample in enumerate(samples):
        np.testing.assert_allclose(batched[i], model.predict_positions([sample], [5, 25, 50])[0], rtol=1e-12, atol=1e-14)


def test_history_length_one_and_five_both_accepted(rng):
    model = TrajectoryModel(ModelConfig(units=5), seed=0)
    for steps in (1, 5):
        sample = Sample(
            states=rng.normal(0, 1, size=(1, steps, 7)),
            mask=np.ones((1, steps)),
            future=np.zeros((60, 2)),
        )
        out = _forward(model, sample)
        assert out.shape == (model.config.output_dim,)


def test_empty_history_rejected(rng):
    model = TrajectoryModel(ModelConfig(units=5), seed=0)
    sample = Sample(states=np.zeros((1, 0, 7)), mask=np.zeros((1, 0)), future=np.zeros((60, 2)))
    with pytest.raises(DataError):
        _forward(model, sample)


def test_forward_deterministic_across_rebuilds(rng):
    samples = make_moderate_samples(rng, 1, agents=3)
    out1 = _forward(TrajectoryModel(ModelConfig(units=8), seed=(7, 7)), samples[0])
    out2 = _forward(TrajectoryModel(ModelConfig(units=8), seed=(7, 7)), samples[0])
    np.testing.assert_array_equal(out1, out2)


def test_neighbor_permutation_invariance(rng):
    samples = make_moderate_samples(rng, 1, agents=4)
    sample = samples[0]
    model = TrajectoryModel(ModelConfig(units=8), seed=11)
    base = _forward(model, sample)
    order = [0, 3, 1, 2]  # reference agent stays in slot 0
    shuffled = Sample(
        states=sample.states[order],
        mask=sample.mask[order],
        future=sample.future,
    )
    np.testing.assert_allclose(_forward(model, shuffled), base, atol=1e-12)


def test_train_and_inference_paths_agree(rng):
    samples = make_moderate_samples(rng, 3, agents=2)
    model = TrajectoryModel(ModelConfig(units=6), seed=5)
    states, mask = collate(samples)
    graph_out = model.forward_batch(states, mask, train=True)
    numpy_out = model.forward_batch(states, mask, train=False)
    np.testing.assert_allclose(numpy_out, graph_out.data, atol=1e-14)


def test_inference_memory_does_not_grow_with_history(rng):
    # step-major inference holds one state per layer, not one per step
    model = TrajectoryModel(ModelConfig(), seed=0)

    def peak_bytes(steps):
        states = rng.normal(0, 1, size=(4, 2, steps, 7))
        mask = np.ones((4, 2, steps))
        mask[:, 1, :3] = 0.0  # the neighbour enters late
        tracemalloc.start()
        try:
            model.forward_batch(states, mask, train=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(200) <= 2 * peak_bytes(20)


# -- loss ---------------------------------------------------------------------------


def test_batch_loss_equals_trajectory_loss_contract(rng):
    # the batched loss equals the per-anchor scalar definition on the
    # model's own head output, decoded to per-frame coefficients here
    samples = make_moderate_samples(rng, 1)
    model = TrajectoryModel(ModelConfig(units=6, d_x=3, d_y=3), seed=9)
    schedule = [7, 21, 42]
    loss, _ = batch_loss(model, samples, np.array([schedule]), train=False)
    raw = _forward(model, samples[0])
    unscale = model.config.time_scale ** np.arange(3)
    traj = SimpleNamespace(
        a=raw[0:3] / unscale,
        b=raw[3:6] / unscale,
        sigma_a=np.exp(raw[6:9]) / unscale,
        sigma_b=np.exp(raw[9:12]) / unscale,
    )
    expected = oracle_loss(traj, samples[0].future, schedule)
    assert float(loss) == pytest.approx(expected, rel=1e-12)


def test_coordinate_loss_only_sees_its_offsets(rng):
    samples = make_moderate_samples(rng, 1)
    cfg = ModelConfig(head=COORDINATES, anchor_mode="fixed", anchor_count=2, horizon=50, units=6)
    model = TrajectoryModel(cfg, seed=1)
    t_matrix = np.array([cfg.head_offsets])
    base, _ = batch_loss(model, samples, t_matrix, train=False)
    tweaked = Sample(
        states=samples[0].states,
        mask=samples[0].mask,
        future=samples[0].future.copy(),
    )
    tweaked.future[10] += 100.0  # not an anchor
    moved, _ = batch_loss(model, [tweaked], t_matrix, train=False)
    assert float(moved) == float(base)
    tweaked.future[25] += 1.0  # t_25 is an anchor
    moved, _ = batch_loss(model, [tweaked], t_matrix, train=False)
    assert float(moved) != float(base)


def test_batch_loss_rejects_offsets_beyond_future(rng):
    samples = make_moderate_samples(rng, 1, horizon=30)
    model = TrajectoryModel(ModelConfig(units=4), seed=0)
    with pytest.raises(DataError, match="sample 0"):
        batch_loss(model, samples, np.array([[10, 31]]), train=False)


def test_whole_model_gradient_check_mini(rng):
    samples = make_moderate_samples(rng, 2, agents=2, steps=4)
    cfg = ModelConfig(units=3, d_x=2, d_y=2, decoder_steps=2)
    model = TrajectoryModel(cfg, seed=13)
    t_matrix = np.array([[5, 20, 50], [5, 20, 50]])

    loss, _ = batch_loss(model, samples, t_matrix, train=True)
    loss.backward()
    for name, node in model.params.items():
        numeric = central_difference(
            lambda: float(batch_loss(model, samples, t_matrix, train=False)[0]),
            node.data,
            step=1e-3,
        )
        analytic = node.grad if node.grad is not None else np.zeros_like(node.data)
        assert_close_to_fd(analytic, numeric)


def _with_masks(samples, full: bool):
    if full:
        for sample in samples:
            sample.mask[:] = 1.0
    return samples


@pytest.mark.parametrize("agents", [1, 5])
@pytest.mark.parametrize("full", [True, False], ids=["full-masks", "late-neighbours"])
def test_batch_loss_and_gradients_match_unrolled_oracle(rng, monkeypatch, agents, full):
    samples = _with_masks(make_moderate_samples(rng, 4, agents=agents, steps=5), full)
    if agents > 1:
        samples.append(make_moderate_samples(rng, 1, agents=2, steps=5)[0])  # padded slots
    model = TrajectoryModel(ModelConfig(units=4, d_x=2, d_y=2, decoder_steps=3), seed=17)
    t_matrix = np.tile([5, 20, 50], (len(samples), 1))

    def run():
        loss, per_sample = batch_loss(model, samples, t_matrix, train=True)
        loss.backward()
        grads = {name: node.grad for name, node in model.params.items()}
        for node in model.params.values():
            node.zero_grad()
        return per_sample.data, grads

    fused, fused_grads = run()
    monkeypatch.setattr(TrajectoryModel, "forward_batch", oracle_forward)
    unrolled, unrolled_grads = run()
    np.testing.assert_allclose(fused, unrolled, rtol=1e-10, atol=0.0)
    for name, grad in unrolled_grads.items():
        gap = np.max(np.abs(fused_grads[name] - grad))
        assert gap <= 1e-10 * np.max(np.abs(grad)), f"{name}: gradient gap {gap}"


def _interior_nodes(root: Tensor, leaves) -> list:
    """Every node reachable from `root` through `_parents`, except `leaves`."""
    keep = {id(node) for node in leaves}
    seen, stack, found = {id(root)}, [root], [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
                if id(parent) not in keep:
                    found.append(parent)
    return found


def test_backward_frees_the_graph_without_gc(rng):
    samples = make_moderate_samples(rng, 3, agents=3)
    model = TrajectoryModel(ModelConfig(units=4), seed=3)
    gc.disable()
    try:
        loss, per_sample = batch_loss(model, samples, np.tile([10, 30, 50], (3, 1)))
        refs = [weakref.ref(node) for node in _interior_nodes(loss, model.params.values())]
        assert len(refs) > 20
        loss.backward()
        del loss, per_sample
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


def test_training_leaves_no_tensor_for_the_cyclic_gc(rng):
    samples = make_moderate_samples(rng, 4, agents=2)
    model = TrajectoryModel(ModelConfig(units=4), seed=2)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds in gc.garbage
    try:
        train(model, samples, TrainSettings(lr=0.01, epochs=1, batch=2, seed=(0, 0)))
        gc.collect()
        assert not [obj for obj in gc.garbage if isinstance(obj, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# -- training --------------------------------------------------------------------------


def test_degenerate_random_range_reproduces_fixed_training(rng):
    samples = make_moderate_samples(rng, 8)
    common = dict(units=5, d_x=2, d_y=2, anchor_count=5, horizon=50)
    random_cfg = ModelConfig(anchor_mode="random", anchor_min=50, anchor_max=50, **common)
    fixed_cfg = ModelConfig(anchor_mode="fixed", **common)
    settings = TrainSettings(lr=0.01, epochs=2, batch=4, seed=(3, 4))

    model_r = TrajectoryModel(random_cfg, seed=(3, 4))
    curve_r = train(model_r, samples, settings).loss_curve
    model_f = TrajectoryModel(fixed_cfg, seed=(3, 4))
    curve_f = train(model_f, samples, settings).loss_curve

    assert curve_r == curve_f
    for name in model_r.params:
        np.testing.assert_array_equal(model_r.params[name].data, model_f.params[name].data)


def test_training_is_bit_deterministic(rng):
    samples = make_moderate_samples(rng, 6)
    settings = TrainSettings(lr=0.01, epochs=1, batch=3, seed=(0, 1))

    def run():
        model = TrajectoryModel(ModelConfig(units=4), seed=(0, 1))
        train(model, samples, settings)
        return {name: node.data.copy() for name, node in model.params.items()}

    first, second = run(), run()
    for name in first:
        np.testing.assert_array_equal(first[name], second[name])


def test_lr_zero_keeps_parameters(rng):
    samples = make_moderate_samples(rng, 4)
    model = TrajectoryModel(ModelConfig(units=4), seed=2)
    before = {name: node.data.copy() for name, node in model.params.items()}
    train(model, samples, TrainSettings(lr=0.0, epochs=1, batch=2, seed=(0, 0)))
    for name, node in model.params.items():
        np.testing.assert_array_equal(node.data, before[name])


def test_empty_dataset_rejected():
    model = TrajectoryModel(ModelConfig(units=4), seed=0)
    with pytest.raises(DataError):
        train(model, [], TrainSettings())


def test_nan_loss_aborts_with_sample_id(rng):
    samples = make_moderate_samples(rng, 4)
    samples[2].future[:] = np.nan
    model = TrajectoryModel(ModelConfig(units=4), seed=2)
    with pytest.raises(NumericalError, match=r"sample\(s\) \[2\]"):
        train(model, samples, TrainSettings(lr=0.01, epochs=1, batch=4, seed=(0, 0)))


def test_anchor_range_must_fit_future(rng):
    samples = make_moderate_samples(rng, 2, horizon=40)
    model = TrajectoryModel(ModelConfig(units=4, anchor_mode="random", anchor_min=35, anchor_max=55), seed=0)
    with pytest.raises(DataError, match="55"):
        train(model, samples, TrainSettings(epochs=1))


def test_sgd_optimizer_also_trains(rng):
    samples = make_moderate_samples(rng, 4)
    model = TrajectoryModel(ModelConfig(units=4), seed=2)
    before = model.params["head.w"].data.copy()
    train(model, samples, TrainSettings(lr=0.01, epochs=1, batch=2, optimizer="sgd", seed=(0, 0)))
    assert not np.array_equal(model.params["head.w"].data, before)


# -- persistence ----------------------------------------------------------------------


def test_save_load_round_trip_preserves_predictions(tmp_path, rng):
    samples = make_moderate_samples(rng, 1)
    model = TrajectoryModel(ModelConfig(units=6, d_x=2, d_y=3), seed=21)
    path = tmp_path / "model.ckpt"
    save_model(model, path, extra_meta={"fingerprint": "abc"})
    restored, meta = load_model(path)
    assert meta["fingerprint"] == "abc"
    assert restored.config == model.config
    np.testing.assert_array_equal(_forward(restored, samples[0]), _forward(model, samples[0]))


def test_collate_pads_variable_agent_counts(rng):
    a = make_moderate_samples(rng, 1, agents=1)[0]
    b = make_moderate_samples(rng, 1, agents=3)[0]
    states, mask = collate([a, b])
    assert states.shape == (2, 3, 6, 7)
    assert mask[0, 1:].sum() == 0.0
