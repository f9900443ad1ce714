"""Tests for the GRU cell, attention, the full model, and training."""

import gc
import inspect
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SampleRow,
    assert_close_to_fd,
    central_difference,
    make_moderate_samples,
    model_config,
    moderate_rows,
    oracle_collate,
    oracle_forward,
    oracle_future_at,
    oracle_gru_cell,
    oracle_loss,
    samples_of,
    train_settings,
    zero_head,
)

from polytraj import autodiff as ad
from polytraj.autodiff import Tensor
from polytraj.data import future_at
from polytraj.errors import ConfigError, DataError, NumericalError, ShapeError
from polytraj.model import (
    COORDINATES,
    POLYNOMIAL,
    GRUWeights,
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
    out = gru_cell(np.ones((4, 1)), np.zeros((3, 1)), _zero_weights(4, 3))
    np.testing.assert_array_equal(out, np.zeros((3, 1)))


def test_gru_saturated_update_gate_keeps_state():
    units = 3
    weights = _zero_weights(2, units)
    weights.b[:units] = 50.0  # update gate saturates toward keeping h
    h = np.array([[0.3], [-0.7], [1.2]])
    out = gru_cell(np.ones((2, 1)), h, weights)
    np.testing.assert_allclose(out, h, atol=1e-12)


def test_gru_gradients_match_finite_differences(rng):
    in_dim, units = 3, 4
    weights = GRUWeights(
        w_x=Tensor(rng.normal(0, 0.5, size=(in_dim, 3 * units))),
        u_zr=Tensor(rng.normal(0, 0.5, size=(units, 2 * units))),
        u_c=Tensor(rng.normal(0, 0.5, size=(units, units))),
        b=Tensor(rng.normal(0, 0.2, size=3 * units)),
    )
    h = Tensor(rng.normal(0, 1, size=(units, 2)))
    x = rng.normal(0, 1, size=(in_dim, 2))
    mix = rng.normal(0, 1, size=(units, 2))

    def forward():
        return (gru_cell(x, h, weights) * mix).sum()

    forward().backward()
    for param in (weights.w_x, weights.u_zr, weights.u_c, weights.b, h):
        numeric = central_difference(lambda: float(forward().data), param.data)
        assert_close_to_fd(param.grad, numeric)


def test_gru_partial_mask_matches_transposed_oracle_and_finite_differences(rng):
    in_dim, units, rows = 3, 4, 5
    weights = _random_weights(rng, in_dim, units, wrap=Tensor)
    x = Tensor(rng.normal(0, 1, size=(in_dim, rows)))
    h = Tensor(rng.normal(0, 1, size=(units, rows)))
    mask = np.array([1.0, 0.0, 1.0, 0.0, 1.0])  # columns 1 and 3 keep their state
    mix = rng.normal(0, 1, size=(units, rows))

    def loss(step):
        return (step() * mix).sum()

    def cell():
        return gru_cell(x, h, weights, mask)

    def oracle():
        return oracle_gru_cell(x.T, h.T, weights).T * mask + h * (1.0 - mask)

    np.testing.assert_allclose(cell().data, oracle().data, rtol=1e-14, atol=1e-15)
    np.testing.assert_array_equal(cell().data[:, mask == 0.0], h.data[:, mask == 0.0])
    nodes = (x, h, weights.w_x, weights.u_zr, weights.u_c, weights.b)
    loss(oracle).backward()
    expected = [node.grad for node in nodes]
    for node in nodes:
        node.zero_grad()
    loss(cell).backward()
    for node, grad in zip(nodes, expected):
        np.testing.assert_allclose(node.grad, grad, rtol=1e-12, atol=1e-14)
        assert_close_to_fd(node.grad, central_difference(lambda: float(loss(cell).data), node.data))


def test_gru_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        gru_cell(np.ones((5, 1)), np.zeros((3, 1)), _zero_weights(4, 3))
    with pytest.raises(ShapeError):
        weights = _zero_weights(4, 3)
        gru_cell(np.ones((5, 1)), Tensor(np.zeros((3, 1))), GRUWeights(
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
    xs = rng.normal(0, 1, size=(steps, in_dim, rows))
    h0 = rng.normal(0, 1, size=(units, rows))
    mask = (rng.uniform(size=(steps, rows)) < 0.6).astype(float)
    h = h0
    for t in range(steps):
        new_h = oracle_gru_cell(xs[t].T, h.T, weights).T
        h = mask[t] * new_h + (1.0 - mask[t]) * h
    np.testing.assert_array_equal(_gru_chain(xs, h0, weights, mask)[-1], h)
    np.testing.assert_array_equal(gru_cell(xs[0], h0, weights), oracle_gru_cell(xs[0].T, h0.T, weights).T)
    # the graph path computes the same states as the array path
    graph_weights = GRUWeights(*(Tensor(w) for w in (weights.w_x, weights.u_zr, weights.u_c, weights.b)))
    np.testing.assert_array_equal(_gru_chain(Tensor(xs), Tensor(h0), graph_weights, mask)[-1].data, h)


def test_gru_cell_chain_gradients_match_finite_differences(rng):
    steps, rows, in_dim, units = 4, 3, 2, 3
    weights = _random_weights(rng, in_dim, units, wrap=Tensor)
    xs = Tensor(rng.normal(0, 1, size=(steps, in_dim, rows)))
    h0 = Tensor(rng.normal(0, 1, size=(units, rows)))
    mask = np.ones((steps, rows))
    mask[:2, 1] = 0.0  # row 1 enters late
    mix = rng.normal(0, 1, size=(steps, units, rows))

    def forward():
        loss = Tensor(0.0)
        for t, h in enumerate(_gru_chain(xs, h0, weights, mask)):
            loss = loss + (h * mix[t]).sum()
        return loss

    forward().backward()
    for node in (weights.w_x, weights.u_zr, weights.u_c, weights.b, h0, xs):
        numeric = central_difference(lambda: float(forward().data), node.data)
        assert_close_to_fd(node.grad, numeric)


@pytest.mark.parametrize("agents", [1, 3, 5])
def test_forward_batch_makes_one_gru_cell_call_per_layer_and_step(rng, monkeypatch, agents):
    # the benchmark's traced `model.gru_cell_calls_per_step` counts these calls
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return gru_cell(*args, **kwargs)

    monkeypatch.setattr("polytraj.model.gru_cell", counted)
    steps, batch = 6, 3
    cfg = model_config(units=4, encoder_layers=2, decoder_layers=3, decoder_steps=4)
    samples = make_moderate_samples(rng, batch, agents=agents, steps=steps)
    states, mask = collate(samples)
    for train_mode in (True, False):
        calls.clear()
        TrajectoryModel(cfg, seed=0).forward_batch(states, mask, train=train_mode)
        assert len(calls) == steps * cfg.encoder_layers + cfg.decoder_steps * cfg.decoder_layers
        assert calls == [(cfg.units, agents * batch)] * (steps * cfg.encoder_layers) + [
            (cfg.units, batch)
        ] * (cfg.decoder_steps * cfg.decoder_layers)


# -- attention ------------------------------------------------------------------


def _slots(stack):
    """(A, B, d) per-slot stack -> the feature-major (d, A, B) slots of `attention`."""
    return np.asarray(stack, dtype=float).transpose(2, 0, 1).copy()


def test_attention_singleton_returns_value(rng):
    value = rng.normal(0, 1, size=(1, 3, 4))
    out = attention(_slots(value), np.ones((3, 1)))
    np.testing.assert_allclose(out, value[0].T)


def test_attention_identical_keys_average_values(rng):
    # every slot equal in each sample -> uniform softmax over copies of one state
    value = rng.normal(0, 1, size=(3, 4))
    values = np.stack([value, value])
    out = attention(_slots(values), np.ones((3, 2)))
    np.testing.assert_allclose(out.T, values.mean(axis=0))


def test_attention_orthogonal_query_gives_mean(rng):
    # every slot has the same dot product with slot 0 -> equal scores, uniform softmax
    slots = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [-1.0, 2.0, 1.0]])
    out = attention(_slots(slots[:, np.newaxis]), np.ones((1, 3)))
    np.testing.assert_allclose(out[:, 0], slots.mean(axis=0))


def test_attention_rejects_empty_keys():
    with pytest.raises(ShapeError):
        attention(np.zeros((3, 0, 1)), np.zeros((1, 0)))


def test_attention_absent_slot_gets_zero_weight(rng):
    # a padded slot, even with a huge value, changes no bit of the output
    values = rng.normal(0, 1, size=(3, 2, 4))
    values[1, 0] = 1e6
    present = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    out = attention(_slots(values), present)
    without = attention(_slots(values[[0, 2], :1]), np.ones((1, 2)))
    np.testing.assert_array_equal(out[:, :1], without)


# -- config and forward ------------------------------------------------------------


def test_coordinate_head_rejects_random_anchoring():
    with pytest.raises(ConfigError):
        model_config(head=COORDINATES, anchor_mode="random")


def test_head_offsets_for_coordinates():
    cfg = model_config(head=COORDINATES, anchor_mode="fixed", anchor_count=2, horizon=50)
    assert cfg.head_offsets == (25, 50)
    assert cfg.output_dim == 8


def _forward(model, sample):
    """Raw head output for a one-row table, through the batched inference path."""
    states, mask = collate(sample)
    return model.forward_batch(states, mask, train=False)[0]


def test_zero_head_polynomial_is_origin_everywhere(rng):
    samples = make_moderate_samples(rng, 1)
    model = TrajectoryModel(model_config(units=6, d_x=3, d_y=2), seed=3)
    zero_head(model)
    raw = _forward(model, samples)[np.newaxis]
    for mean, var in moments(model.config, raw, [[1, 10, 50]]):
        np.testing.assert_array_equal(mean, np.zeros((1, 3)))
        assert np.all(var > 0)
    positions = model.predict_positions(samples, [1, 10, 50])
    np.testing.assert_array_equal(positions, np.zeros((1, 3, 2)))


def test_zero_head_coordinates_all_zero(rng):
    samples = make_moderate_samples(rng, 1)
    cfg = model_config(head=COORDINATES, anchor_mode="fixed", anchor_count=3, horizon=30, units=6)
    model = TrajectoryModel(cfg, seed=3)
    zero_head(model)
    points = model.predict_positions(samples, cfg.head_offsets)
    np.testing.assert_array_equal(points, np.zeros((1, 3, 2)))


def test_coordinate_moments_select_requested_offsets(rng):
    samples = make_moderate_samples(rng, 2)
    cfg = model_config(head=COORDINATES, anchor_mode="fixed", anchor_count=5, horizon=50, units=6)
    model = TrajectoryModel(cfg, seed=3)
    every = model.predict_positions(samples, cfg.head_offsets)
    np.testing.assert_array_equal(model.predict_positions(samples, [50, 20]), every[:, [4, 1]])
    with pytest.raises(ConfigError, match="25"):
        model.predict_positions(samples, [20, 25])


def test_batched_prediction_matches_single_samples(rng):
    # padded agent slots change nothing; only the BLAS kernel choice for a
    # batch of one differs, at the last bits
    rows = [moderate_rows(rng, 1, agents=n)[0] for n in (1, 3, 2)]
    model = TrajectoryModel(model_config(units=6), seed=4)
    batched = model.predict_positions(samples_of(rows), [5, 25, 50])
    for i, row in enumerate(rows):
        single = model.predict_positions(samples_of([row]), [5, 25, 50])[0]
        np.testing.assert_allclose(batched[i], single, rtol=1e-12, atol=1e-14)


def test_history_length_one_and_five_both_accepted(rng):
    model = TrajectoryModel(model_config(units=5), seed=0)
    for steps in (1, 5):
        sample = samples_of([(rng.normal(0, 1, size=(1, steps, 7)), np.ones((1, steps)), np.zeros((60, 2)))])
        out = _forward(model, sample)
        assert out.shape == (model.config.output_dim,)


def test_empty_history_rejected(rng):
    model = TrajectoryModel(model_config(units=5), seed=0)
    sample = samples_of([(np.zeros((1, 0, 7)), np.zeros((1, 0)), np.zeros((60, 2)))])
    with pytest.raises(DataError):
        _forward(model, sample)


def test_forward_deterministic_across_rebuilds(rng):
    samples = make_moderate_samples(rng, 1, agents=3)
    out1 = _forward(TrajectoryModel(model_config(units=8), seed=(7, 7)), samples)
    out2 = _forward(TrajectoryModel(model_config(units=8), seed=(7, 7)), samples)
    np.testing.assert_array_equal(out1, out2)


def test_neighbor_permutation_invariance(rng):
    (sample,) = moderate_rows(rng, 1, agents=4)
    model = TrajectoryModel(model_config(units=8), seed=11)
    base = _forward(model, samples_of([sample]))
    order = [0, 3, 1, 2]  # reference agent stays in slot 0
    shuffled = samples_of([(sample.states[order], sample.mask[order], sample.future)])
    np.testing.assert_allclose(_forward(model, shuffled), base, atol=1e-12)


def test_train_and_inference_paths_agree(rng):
    samples = make_moderate_samples(rng, 3, agents=2)
    model = TrajectoryModel(model_config(units=6), seed=5)
    states, mask = collate(samples)
    graph_out = model.forward_batch(states, mask, train=True)
    numpy_out = model.forward_batch(states, mask, train=False)
    np.testing.assert_allclose(numpy_out, graph_out.data, atol=1e-14)


def test_inference_memory_does_not_grow_with_history(rng):
    # step-major inference holds one state per layer, not one per step
    model = TrajectoryModel(model_config(), seed=0)

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
    model = TrajectoryModel(model_config(units=6, d_x=3, d_y=3), seed=9)
    schedule = [7, 21, 42]
    loss, _ = batch_loss(model, samples, np.array([schedule]), train=False)
    raw = _forward(model, samples)
    unscale = model.config.time_scale ** np.arange(3)
    traj = SimpleNamespace(
        a=raw[0:3] / unscale,
        b=raw[3:6] / unscale,
        sigma_a=np.exp(raw[6:9]) / unscale,
        sigma_b=np.exp(raw[9:12]) / unscale,
    )
    expected = oracle_loss(traj, samples.future[0], schedule)
    assert float(loss) == pytest.approx(expected, rel=1e-12)


def test_coordinate_loss_only_sees_its_offsets(rng):
    samples = make_moderate_samples(rng, 1)
    cfg = model_config(head=COORDINATES, anchor_mode="fixed", anchor_count=2, horizon=50, units=6)
    model = TrajectoryModel(cfg, seed=1)
    t_matrix = np.array([cfg.head_offsets])
    base, _ = batch_loss(model, samples, t_matrix, train=False)
    tweaked = replace(samples, future=samples.future.copy())
    tweaked.future[0, 10] += 100.0  # not an anchor
    moved, _ = batch_loss(model, tweaked, t_matrix, train=False)
    assert float(moved) == float(base)
    tweaked.future[0, 25] += 1.0  # t_25 is an anchor
    moved, _ = batch_loss(model, tweaked, t_matrix, train=False)
    assert float(moved) != float(base)


def test_batch_loss_rejects_offsets_beyond_future(rng):
    samples = make_moderate_samples(rng, 1, horizon=30)
    model = TrajectoryModel(model_config(units=4), seed=0)
    with pytest.raises(DataError, match="sample 0"):
        batch_loss(model, samples, np.array([[10, 31]]), train=False)


def test_whole_model_gradient_check_mini(rng):
    samples = make_moderate_samples(rng, 2, agents=2, steps=4)
    cfg = model_config(units=3, d_x=2, d_y=2, decoder_steps=2)
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


def _with_masks(rows, full: bool):
    if full:
        for row in rows:
            row.mask[:] = 1.0
    return rows


@pytest.mark.parametrize("agents", [1, 5, 9])  # from 8 slots numpy's pairwise sum regroups the normaliser
@pytest.mark.parametrize("full", [True, False], ids=["full-masks", "late-neighbours"])
def test_batch_loss_and_gradients_match_unrolled_oracle(rng, monkeypatch, agents, full):
    rows = _with_masks(moderate_rows(rng, 4, agents=agents, steps=5), full)
    if agents > 1:
        rows.append(moderate_rows(rng, 1, agents=2, steps=5)[0])  # padded slots
    samples = samples_of(rows)
    model = TrajectoryModel(model_config(units=4, d_x=2, d_y=2, decoder_steps=3), seed=17)
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


def test_graph_size_does_not_grow_with_agent_count(rng):
    # attention is one batched expression over the agent axis, not a few nodes per agent
    model = TrajectoryModel(model_config(units=4, d_x=2, d_y=2, decoder_steps=3), seed=17)
    sizes = []
    for agents in (5, 9):
        samples = make_moderate_samples(rng, 3, agents=agents, steps=5)
        loss, _ = batch_loss(model, samples, np.tile([5, 20, 50], (3, 1)))
        sizes.append(len(_interior_nodes(loss, model.params.values())))
    assert sizes[0] == sizes[1]


def test_backward_frees_the_graph_without_gc(rng):
    samples = make_moderate_samples(rng, 3, agents=3)
    model = TrajectoryModel(model_config(units=4), seed=3)
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
    model = TrajectoryModel(model_config(units=4), seed=2)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds in gc.garbage
    try:
        train(model, samples, train_settings(lr=0.01, epochs=1, batch=2, seed=(0, 0)))
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
    random_cfg = model_config(anchor_mode="random", anchor_min=50, anchor_max=50, **common)
    fixed_cfg = model_config(anchor_mode="fixed", **common)
    settings = train_settings(lr=0.01, epochs=2, batch=4, seed=(3, 4))

    model_r = TrajectoryModel(random_cfg, seed=(3, 4))
    curve_r = train(model_r, samples, settings)
    model_f = TrajectoryModel(fixed_cfg, seed=(3, 4))
    curve_f = train(model_f, samples, settings)

    assert curve_r == curve_f
    for name in model_r.params:
        np.testing.assert_array_equal(model_r.params[name].data, model_f.params[name].data)


def test_training_is_bit_deterministic(rng):
    samples = make_moderate_samples(rng, 6)
    settings = train_settings(lr=0.01, epochs=1, batch=3, seed=(0, 1))

    def run():
        model = TrajectoryModel(model_config(units=4), seed=(0, 1))
        train(model, samples, settings)
        return {name: node.data.copy() for name, node in model.params.items()}

    first, second = run(), run()
    for name in first:
        np.testing.assert_array_equal(first[name], second[name])


def test_lr_zero_keeps_parameters(rng):
    samples = make_moderate_samples(rng, 4)
    model = TrajectoryModel(model_config(units=4), seed=2)
    before = {name: node.data.copy() for name, node in model.params.items()}
    train(model, samples, train_settings(lr=0.0, epochs=1, batch=2, seed=(0, 0)))
    for name, node in model.params.items():
        np.testing.assert_array_equal(node.data, before[name])


def test_empty_dataset_rejected():
    model = TrajectoryModel(model_config(units=4), seed=0)
    with pytest.raises(DataError):
        train(model, samples_of([]), train_settings())


def test_nan_loss_aborts_with_sample_id(rng):
    samples = make_moderate_samples(rng, 4)
    samples.future[2] = np.nan
    model = TrajectoryModel(model_config(units=4), seed=2)
    with pytest.raises(NumericalError, match=r"sample\(s\) \[2\]"):
        train(model, samples, train_settings(lr=0.01, epochs=1, batch=4, seed=(0, 0)))


def test_anchor_range_must_fit_future(rng):
    samples = make_moderate_samples(rng, 2, horizon=40)
    model = TrajectoryModel(model_config(units=4, anchor_mode="random", anchor_min=35, anchor_max=55), seed=0)
    with pytest.raises(DataError, match="55"):
        train(model, samples, train_settings(epochs=1))


def test_sgd_optimizer_also_trains(rng):
    samples = make_moderate_samples(rng, 4)
    model = TrajectoryModel(model_config(units=4), seed=2)
    before = model.params["head.w"].data.copy()
    train(model, samples, train_settings(lr=0.01, epochs=1, batch=2, optimizer="sgd", seed=(0, 0)))
    assert not np.array_equal(model.params["head.w"].data, before)


def _called_code(run) -> set:
    """The code objects of every Python function called while `run()` runs."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return called


def test_training_and_inference_reach_every_graph_op_and_helper(rng):
    """What the model does not use is not in autodiff: one training step of
    each head and anchor mode and one prediction call every Tensor method
    but the plumbing, and every helper but checkpoint I/O."""
    samples = make_moderate_samples(rng, 4, agents=3)
    runs = [
        (model_config(units=4, decoder_steps=2, anchor_mode="random"), "adam"),
        (model_config(units=4, decoder_steps=2, anchor_mode="fixed", anchor_count=5), "adam"),
        (model_config(units=4, decoder_steps=2, head=COORDINATES, anchor_mode="fixed", anchor_count=5), "sgd"),
    ]

    def run():
        for cfg, optimizer in runs:
            model = TrajectoryModel(cfg, seed=0)
            train(model, samples, train_settings(lr=0.01, epochs=1, steps=1, batch=4, optimizer=optimizer, seed=(0, 0)))
        model.predict_positions(samples, cfg.head_offsets)

    called = _called_code(run)
    methods = {
        name: getattr(member, "fget", getattr(member, "__func__", member)).__code__
        for name, member in vars(Tensor).items()
        if inspect.isfunction(member) or isinstance(member, (property, staticmethod))
    }
    helpers = {
        name: member.__code__
        for name, member in vars(ad).items()
        if inspect.isfunction(member) and member.__module__ == ad.__name__ and not name.startswith("_")
    }
    plumbing = {"item", "__repr__", "zero_grad", "save_checkpoint", "load_checkpoint"}
    unreached = sorted(name for name, code in {**methods, **helpers}.items() if code not in called and name not in plumbing)
    assert unreached == []


# -- persistence ----------------------------------------------------------------------


def test_save_load_round_trip_preserves_predictions(tmp_path, rng):
    samples = make_moderate_samples(rng, 1)
    model = TrajectoryModel(model_config(units=6, d_x=2, d_y=3), seed=21)
    path = tmp_path / "model.ckpt"
    save_model(model, path, extra_meta={"fingerprint": "abc"})
    restored, meta = load_model(path)
    assert meta["fingerprint"] == "abc"
    assert restored.config == model.config
    np.testing.assert_array_equal(_forward(restored, samples), _forward(model, samples))


def test_loaded_parameters_are_bit_identical_and_writable(tmp_path):
    model = TrajectoryModel(model_config(units=4, d_x=2, d_y=2), seed=5)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    restored, _ = load_model(path)
    for name, node in restored.params.items():
        assert node.data.dtype == np.float64 and node.data.flags.c_contiguous and node.data.flags.writeable
        assert node.data.tobytes() == model.params[name].data.tobytes()
    before = {name: node.data.copy() for name, node in restored.params.items()}
    for node in restored.params.values():
        node.grad = np.ones_like(node.data)
    ad.Adam(restored.params, lr=0.01).step()
    assert all(np.all(node.data != before[name]) for name, node in restored.params.items())


def test_load_model_draws_no_random_initialisation(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_model(TrajectoryModel(model_config(units=4, d_x=2, d_y=2), seed=5), path)

    def no_draw(*args):
        raise AssertionError("load_model drew a random initialisation")

    monkeypatch.setattr("polytraj.model._stream_rng", no_draw)
    restored, _ = load_model(path)
    assert list(restored.params) == [name for name, _ in restored.config.param_shapes()]


TINY_CHECKPOINT = Path(__file__).parent / "fixtures" / "checkpoint_tiny.txt"


def _tiny_checkpoint_model() -> TrajectoryModel:
    cfg = model_config(units=1, encoder_layers=1, decoder_layers=1, decoder_steps=1, d_x=1, d_y=1)
    return TrajectoryModel(cfg, seed=7)


def test_golden_checkpoint_loads_bit_exactly_and_saving_reproduces_it(tmp_path):
    # pins the file format: magic, meta and param lines, and base64 little-endian float64 values
    model = _tiny_checkpoint_model()
    restored, _ = load_model(TINY_CHECKPOINT)
    assert restored.config == model.config
    assert list(restored.params) == list(model.params)
    for name, node in model.params.items():
        assert restored.params[name].data.tobytes() == node.data.tobytes()
    save_model(model, tmp_path / "checkpoint.txt")
    assert (tmp_path / "checkpoint.txt").read_bytes() == TINY_CHECKPOINT.read_bytes()


def test_checkpoint_with_the_older_input_dim_meta_line_loads_to_the_same_predictions(tmp_path, rng):
    # checkpoints written before `model.input_dim` was dropped carry it as a meta line
    samples = make_moderate_samples(rng, 3)
    model = TrajectoryModel(model_config(units=6, d_x=2, d_y=3), seed=21)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    lines.insert(lines.index("meta model.units 6"), "meta model.input_dim 7")  # its sorted place
    path.write_text("\n".join(lines) + "\n")
    restored, meta = load_model(path)
    assert meta["model.input_dim"] == "7"
    assert restored.config == model.config
    np.testing.assert_array_equal(
        restored.predict_positions(samples, [1, 10, 50]), model.predict_positions(samples, [1, 10, 50])
    )


def test_collate_pads_variable_agent_counts(rng):
    a = moderate_rows(rng, 1, agents=1)[0]
    b = moderate_rows(rng, 1, agents=3)[0]
    states, mask = collate(samples_of([a, b]))
    assert states.shape == (2, 3, 6, 7)
    assert mask[0, 1:].sum() == 0.0


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12), batch=st.integers(1, 8),
       steps=st.integers(1, 6), anchors=st.integers(1, 5), shared=st.booleans())
def test_batching_equals_the_per_sample_oracles(seed, size, batch, steps, anchors, shared):
    # a batch drawn from a table as `train` draws one: ragged rows of 1-9
    # agents with absent states, mixed horizons and ids out of order, so the
    # table is often padded past the batch's most agents and longest future
    rng = np.random.default_rng(seed)
    rows = []
    for sample_id in rng.permutation(100)[:size].tolist():
        agents, horizon = int(rng.integers(1, 10)), int(rng.integers(1, 30))
        mask = (rng.uniform(size=(agents, steps)) < 0.7).astype(np.float64)
        states = np.where(mask[..., None] == 1.0, rng.normal(size=(agents, steps, 7)), 0.0)
        rows.append(SampleRow(states, mask, rng.normal(size=(horizon + 1, 2)), sample_id))
    table = samples_of(rows)
    index = rng.permutation(size)[:batch]
    samples, rows = table[index], [rows[i] for i in index]
    for got, expected in zip(collate(samples), oracle_collate(rows)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    # offsets reach a few frames past the longest future, so some are out of range
    offsets = rng.integers(0, table.horizons.max() + 4, size=(anchors,) if shared else (len(rows), anchors))
    try:
        expected = oracle_future_at(rows, offsets)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            future_at(samples, offsets)
        assert str(raised.value) == str(exc)
        return
    got = future_at(samples, offsets)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_negative_offsets_are_data_error():
    # an offset counts forward from t_0; on the padded table a negative one
    # would read the padding of a 2-frame future and frame 4 of a 4-frame one
    samples = samples_of([SampleRow(np.zeros((1, 2, 7)), np.ones((1, 2)), np.ones((3, 2)), 4),
                          SampleRow(np.zeros((1, 2, 7)), np.ones((1, 2)), np.ones((5, 2)), 7)])
    assert samples.horizons.tolist() == [2, 4]
    for offsets, message in (([1, -1], "sample 4: offset -1 is negative"),  # one row shared by both samples
                             ([[1, 2], [-3, -2]], "sample 7: offset -3 is negative")):
        with pytest.raises(DataError) as raised:
            future_at(samples, offsets)
        assert str(raised.value) == message


def test_offset_rows_must_match_the_batch(rng):
    samples = make_moderate_samples(rng, 3)
    model = TrajectoryModel(model_config(units=4), seed=0)
    for rows in (2, 4):
        t_matrix = np.tile([5, 20, 50], (rows, 1))
        for run in (lambda: future_at(samples, t_matrix), lambda: batch_loss(model, samples, t_matrix)):
            with pytest.raises(ShapeError) as raised:
                run()
            assert str(raised.value) == f"t_matrix rows {rows} != batch size 3"
