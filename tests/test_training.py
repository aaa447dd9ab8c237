"""Balance optimizer: scores, ratios, modulation, updates, and the loop."""

import gc
import math
import warnings

import numpy as np
import pytest

from modbalance import training
from modbalance.dataset import SynthSpec, batches, generate
from modbalance.errors import ConfigError, DivergenceError
from modbalance.losses import cls_loss, feature_loss, main_loss, modal_loss
from modbalance.model import Model, ModelConfig
from modbalance.tensor import Tensor
from modbalance.training import (
    OptimizerConfig,
    TRACE_HEADER,
    apply_update,
    checked_noise_std,
    discrepancy_ratio,
    evaluate,
    modulation_coefficient,
    train,
    unimodal_score,
)

MODS = ("t", "a", "v")


def tiny_model(seed=0, **overrides):
    config = ModelConfig(hidden=8, rank=2, beta=0.5, layers=1, heads=2,
                         ffn=12, **overrides)
    dims = {"t": 6, "a": 5, "v": 4}
    return Model(config, num_classes=3, dims=dims, seed=seed)


def encoder_block_names(model, m):
    return [n for n in model.named_parameters() if n.startswith(f"encoder.{m}.")]


def tiny_data(seed=0, conversations=6):
    spec = SynthSpec(num_classes=3, dims={"t": 6, "a": 5, "v": 4},
                     gamma={"t": 1.0, "a": 1.0, "v": 1.0}, noise_sigma=0.4,
                     conversations=conversations, utterances=(2, 4), seed=seed)
    return generate(spec).conversations


# --- unimodal score ---

def test_uniform_logits_score_is_batch_over_classes():
    logits = np.zeros((8, 4))
    labels = np.arange(8) % 4
    assert abs(unimodal_score(logits, labels) - 2.0) < 1e-12


def test_confident_single_utterance_score_approaches_one():
    logits = np.array([[40.0, -40.0, -40.0]])
    assert abs(unimodal_score(logits, np.array([0])) - 1.0) < 1e-12


def test_score_matches_loop_oracle():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((10, 4)) * 2.0
    labels = rng.integers(0, 4, size=10)
    expected = 0.0
    for j in range(10):
        row = logits[j]
        e = [math.exp(v - row.max()) for v in row]
        expected += e[labels[j]] / sum(e)
    assert abs(unimodal_score(logits, labels) - expected) < 1e-10


# --- discrepancy ratio ---

def test_ratio_direct_division():
    ratios = discrepancy_ratio({"t": 0.9, "a": 0.3, "v": 0.3})
    assert ratios == {"t": 3.0, "a": 1.0, "v": 1.0}


def test_ratio_balanced_scores():
    ratios = discrepancy_ratio({"t": 0.5, "a": 0.5, "v": 0.5})
    assert all(r == 1.0 for r in ratios.values())


def test_ratio_properties_over_random_draws():
    rng = np.random.default_rng(1)
    for _ in range(200):
        scores = {m: float(rng.uniform(0.01, 5.0)) for m in MODS}
        ratios = discrepancy_ratio(scores)
        assert min(ratios.values()) == 1.0
        assert all(r >= 1.0 for r in ratios.values())


def test_ratio_floors_zero_scores():
    ratios = discrepancy_ratio({"t": 0.0, "a": 0.5, "v": 0.5})
    assert ratios["t"] == 1.0  # floored score becomes the minimum
    assert ratios["a"] == 0.5 / 1e-12


# --- modulation coefficient ---

def test_weakest_modality_never_damped():
    coeffs = modulation_coefficient({"t": 3.0, "a": 1.0, "v": 1.5}, alpha=0.1)
    assert coeffs["a"] == 1.0


def test_modulation_scalar_value():
    coeffs = modulation_coefficient({"t": 3.0}, alpha=0.1)
    assert abs(coeffs["t"] - (1.0 - math.tanh(0.3))) < 1e-15


def test_modulation_stays_positive_for_large_alpha():
    # tanh(10) is still below 1 in float64, so k approaches 0 from above
    coeffs = modulation_coefficient({"t": 5.0}, alpha=2.0)
    assert 0.0 < coeffs["t"] < 1e-8


def test_modulation_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(200):
        rho = float(rng.uniform(1.0, 20.0))
        k = modulation_coefficient({"m": rho}, alpha=0.1)["m"]
        assert 0.0 < k <= 1.0


# --- apply_update ---

def test_update_reduces_to_vanilla_sgd():
    model = tiny_model(seed=3)
    g = np.random.default_rng(3).standard_normal(model.theta.size)
    expected = model.theta - 0.1 * g
    apply_update(model, g, eta=0.1, k={m: 1.0 for m in MODS})
    assert np.array_equal(model.theta, expected)


def test_update_halves_step_with_half_coefficient():
    full, half = tiny_model(seed=4), tiny_model(seed=4)
    start = full.theta.copy()
    g = np.random.default_rng(4).standard_normal(start.size)
    apply_update(full, g, eta=0.1, k={"t": 1.0})
    apply_update(half, g, eta=0.1, k={"t": 0.5})
    step = 0.1 * g  # multiplying the step by 0.5 is exact in binary
    span = half.encoder_spans["t"]
    expected = start - step
    expected[span] = start[span] - step[span] * 0.5
    assert np.array_equal(full.theta, start - step)
    assert np.array_equal(half.theta, expected)


def test_update_noise_is_seed_reproducible():
    results = []
    for _ in range(2):
        model = tiny_model(seed=5)
        g = np.random.default_rng(5).standard_normal(model.theta.size)
        std = {m: np.abs(g[s]) * 0.1 for m, s in model.encoder_spans.items()}
        apply_update(model, g, eta=0.1, k={m: 0.8 for m in MODS},
                     noise_std=std, rng=np.random.default_rng(11))
        results.append(model.theta.copy())
    assert np.array_equal(results[0], results[1])


def test_gradient_check_rejects_non_finite_gradient():
    model = tiny_model()
    names = list(model.named_parameters())
    for name in ("encoder.t.block0.w1", "classifier.w2"):
        model.grad[model.offsets[names.index(name)] + 1] = float("nan")
    batch = tiny_data(conversations=2)
    conv_grads = np.zeros((len(batch), model.encoder_size))
    start = model.theta.copy()
    with pytest.raises(DivergenceError, match="encoder.t.block0.w1"):
        checked_noise_std(model, batch, conv_grads, 1, MODS, True)
    assert np.array_equal(model.theta, start)


def test_one_noise_draw_equals_block_by_block_draws():
    model = tiny_model()
    span = model.encoder_spans["t"]
    whole = np.random.default_rng(11).standard_normal(span.stop - span.start)
    rng = np.random.default_rng(11)
    params = model.named_parameters()
    blocks = [rng.standard_normal(params[n].shape).ravel()
              for n in encoder_block_names(model, "t")]
    assert np.array_equal(whole, np.concatenate(blocks))


def assert_blocks_are_views(model):
    params = model.named_parameters()
    for name, p in params.items():
        assert np.shares_memory(p.data, model.theta), name
        assert np.shares_memory(p.grad, model.grad), name
    for m, span in model.encoder_spans.items():
        blocks = [params[n].data.ravel() for n in encoder_block_names(model, m)]
        assert np.array_equal(model.theta[span], np.concatenate(blocks)), m


def test_parameter_blocks_stay_views_of_the_flat_vectors(tmp_path):
    model = tiny_model(seed=16)
    assert_blocks_are_views(model)
    train(model, tiny_data(conversations=2),
          OptimizerConfig(learning_rate=0.1, epochs=1, batch_size=2, seed=1))
    assert_blocks_are_views(model)
    model.save(tmp_path / "model.bin")
    back = Model.load(tmp_path / "model.bin")
    assert_blocks_are_views(back)
    assert np.array_equal(back.theta, model.theta)


# --- config ---

def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        OptimizerConfig(alpha=-1.0).validate()
    with pytest.raises(ConfigError):
        OptimizerConfig.from_dict({"learning_rate": 0.1, "bogus": 1})
    for retired in ({"noise_estimate": "sample"}, {"noise_scale": 0.1}):
        with pytest.raises(ConfigError, match=next(iter(retired))):
            OptimizerConfig.from_dict(retired)


# --- training loop ---

def test_single_conversation_single_epoch_is_one_step():
    model = tiny_model()
    data = tiny_data(conversations=1)
    config = OptimizerConfig(learning_rate=0.1, epochs=1, batch_size=4,
                             noise=False, seed=3)
    result = train(model, data, config)
    assert len(result.traces) == 1
    trace = result.traces[0]
    assert trace.epoch == 1 and trace.step == 1
    assert len(trace.csv_row()) == len(TRACE_HEADER)


def test_trace_balance_invariants_hold_per_step():
    model = tiny_model()
    data = tiny_data(conversations=6)
    config = OptimizerConfig(learning_rate=0.1, epochs=2, batch_size=3,
                             noise=True, seed=4)
    result = train(model, data, config)
    assert len(result.traces) == 4  # 2 epochs x 2 batches
    for trace in result.traces:
        ratios = trace.balance.ratios
        coeffs = trace.balance.coefficients
        assert min(ratios.values()) == 1.0
        weakest = min(ratios, key=ratios.get)
        assert coeffs[weakest] == 1.0
        for m in MODS:
            assert 0.0 < coeffs[m] <= 1.0
            assert trace.balance.scores[m] > 0.0


def test_modulation_never_touches_non_encoder_parameters():
    # with modulation on and noise on, a paired run that only differs in
    # (k, noise) must still move fusion/classifier params identically
    data = tiny_data(conversations=4)
    config_mod = OptimizerConfig(learning_rate=0.1, epochs=1, batch_size=4,
                                 noise=True, alpha=5.0, seed=5)
    config_plain = OptimizerConfig(learning_rate=0.1, epochs=1, batch_size=4,
                                   noise=False, disable_modulation=True,
                                   seed=5)
    model_mod = tiny_model(seed=9)
    model_plain = tiny_model(seed=9)
    train(model_mod, data, config_mod)
    train(model_plain, data, config_plain)
    params_mod = model_mod.named_parameters()
    params_plain = model_plain.named_parameters()
    encoder_names = set()
    for m in MODS:
        encoder_names |= set(encoder_block_names(model_mod, m))
    diff_outside_encoders = [
        name for name in params_mod
        if name not in encoder_names
        and not np.array_equal(params_mod[name].data, params_plain[name].data)
    ]
    assert diff_outside_encoders == []
    # sanity: the encoders themselves did diverge under strong damping
    assert any(
        not np.array_equal(params_mod[name].data, params_plain[name].data)
        for name in encoder_names)


def reference_sgd(data, config, seed):
    """Plain SGD, one conversation's graph at a time, in ``train``'s batch
    schedule; returns the named parameters of the trained model."""
    epochs = config.epochs
    # independent plain-SGD reference path with the same batch schedule
    reference = tiny_model(seed=seed)
    params = reference.named_parameters()
    for epoch in range(1, epochs + 1):
        for batch in batches(data, config.batch_size, seed=config.seed + epoch):
            grad_sum = {n: np.zeros_like(p.data) for n, p in params.items()}
            for conv in batch:
                reference.zero_grad()
                out = reference.forward(conv.features)
                total = main_loss(
                    cls_loss(out.outputs, conv.labels),
                    feature_loss(out.afw_state.attention, out.afw_state.mapped),
                    modal_loss(out.fused, conv.labels))
                total.backward()
                for n, p in params.items():
                    grad_sum[n] += p.grad if p.grad is not None else 0.0
            for n, p in params.items():
                p.data = p.data - config.learning_rate * (grad_sum[n] / len(batch))
    return params


def assert_close_to_reference(actual, expected, rtol=1e-12):
    """max |actual - expected| <= rtol * max |expected|, per block."""
    for name, p in expected.items():
        scale = np.abs(p.data).max()
        assert np.abs(actual[name].data - p.data).max() <= rtol * scale, name


def test_disable_modulation_matches_reference_sgd():
    # a pack of several conversations sums its rows in other orders than the
    # reference's one graph per conversation, so the match is to rounding
    data = tiny_data(conversations=5)
    config = OptimizerConfig(learning_rate=0.15, epochs=3, batch_size=2,
                             noise=False, disable_modulation=True, seed=6)
    model = tiny_model(seed=10)
    train(model, data, config)
    assert_close_to_reference(model.named_parameters(),
                              reference_sgd(data, config, seed=10))


def test_disable_modulation_matches_reference_sgd_bitwise_at_batch_size_1():
    data = tiny_data(conversations=5)
    config = OptimizerConfig(learning_rate=0.15, epochs=3, batch_size=1,
                             noise=False, disable_modulation=True, seed=6)
    model = tiny_model(seed=10)
    train(model, data, config)
    trained = model.named_parameters()
    for name, p in reference_sgd(data, config, seed=10).items():
        assert np.array_equal(p.data, trained[name].data), name


def reference_noisy_step(data, config, coefficients, seed):
    """One noisy, modulated step with per-block gradient sums, stacked
    per-conversation gradients and one noise draw per block; returns the
    stepped model."""
    reference = tiny_model(seed=seed)
    params = reference.named_parameters()
    per_conv = []
    for conv in batches(data, config.batch_size, seed=config.seed + 1)[0]:
        reference.zero_grad()
        out = reference.forward(conv.features)
        main_loss(cls_loss(out.outputs, conv.labels),
                  feature_loss(out.afw_state.attention, out.afw_state.mapped),
                  modal_loss(out.fused, conv.labels)).backward()
        per_conv.append({n: p.grad.copy() for n, p in params.items()})
    rng = np.random.default_rng(config.seed + 7919)
    modulated = {n: m for m in MODS for n in encoder_block_names(reference, m)}
    for name, p in params.items():  # encoder blocks come first, t, a, v
        total = np.zeros_like(p.data)
        for grads in per_conv:
            total += grads[name]
        step = config.learning_rate * (total / len(per_conv))
        if name in modulated:
            stack = np.stack([grads[name] for grads in per_conv])
            std = stack.std(axis=0, ddof=1) / np.sqrt(len(per_conv))
            step = step * coefficients[modulated[name]]
            step = step - config.learning_rate * (
                rng.standard_normal(p.data.shape) * std)
        p.data[...] = p.data - step
    return reference


NOISY_STEP = OptimizerConfig(learning_rate=0.1, epochs=1, batch_size=3,
                             noise=True, alpha=2.0, seed=2)


def test_noisy_step_matches_per_block_reference():
    # the vector update against a loop over blocks: per-block gradient sums,
    # stacked per-conversation gradients and one noise draw per block
    data = tiny_data(conversations=3)
    model = tiny_model(seed=17)
    coefficients = train(model, data, NOISY_STEP).traces[0].balance.coefficients
    reference = reference_noisy_step(data, NOISY_STEP, coefficients, seed=17)
    assert min(coefficients.values()) < 1.0
    assert (np.abs(reference.theta - model.theta).max()
            <= 1e-12 * np.abs(reference.theta).max())


def test_noisy_step_matches_per_block_reference_bitwise_one_conversation_per_pack(
        monkeypatch):
    # the reference's ddof=1 std needs two conversations, so the batch keeps
    # three and each pack holds one
    monkeypatch.setattr(training, "PACK_ROWS", 1)
    data = tiny_data(conversations=3)
    model = tiny_model(seed=17)
    coefficients = train(model, data, NOISY_STEP).traces[0].balance.coefficients
    reference = reference_noisy_step(data, NOISY_STEP, coefficients, seed=17)
    assert min(coefficients.values()) < 1.0
    assert np.array_equal(reference.theta, model.theta)


def test_training_is_deterministic_with_noise():
    data = tiny_data(conversations=5)
    config = OptimizerConfig(learning_rate=0.1, epochs=2, batch_size=2,
                             noise=True, seed=7)
    rows = []
    finals = []
    for _ in range(2):
        model = tiny_model(seed=11)
        result = train(model, data, config)
        rows.append([t.csv_row() for t in result.traces])
        finals.append({n: p.data.copy()
                       for n, p in model.named_parameters().items()})
    assert rows[0] == rows[1]
    for name in finals[0]:
        assert np.array_equal(finals[0][name], finals[1][name])


def test_training_on_modality_subset_leaves_excluded_encoder_frozen():
    data = tiny_data(conversations=4)
    config = OptimizerConfig(learning_rate=0.1, epochs=1, batch_size=2,
                             noise=False, seed=8)
    model = tiny_model(seed=12)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    train(model, data, config, active=("t", "a"))
    after = model.named_parameters()
    for name in encoder_block_names(model, "v"):
        assert np.array_equal(before[name], after[name].data)
    assert any(not np.array_equal(before[n], after[n].data)
               for n in encoder_block_names(model, "t"))
    # visual columns of the fusion head got no gradient either
    assert np.array_equal(before["head.v.w"], after["head.v.w"].data)


def test_eval_history_tracks_best_epoch():
    data = tiny_data(conversations=8)
    train_convs, holdout = data[:6], data[6:]
    config = OptimizerConfig(learning_rate=0.2, epochs=3, batch_size=3,
                             noise=False, seed=9)
    model = tiny_model(seed=13)
    result = train(model, train_convs, config, eval_data=holdout)
    assert len(result.eval_history) == 3
    best = max(result.eval_history, key=lambda row: row[2])
    assert result.best_weighted_f1 == best[2]
    assert result.final_report == evaluate(model, holdout)


def test_evaluate_reports_pooled_metrics():
    model = tiny_model(seed=14)
    data = tiny_data(conversations=3)
    report = evaluate(model, data)
    total = sum(c.num_utterances for c in data)
    assert np.array(report.confusion).sum() == total


def test_backward_leaves_no_reference_cycles():
    model = tiny_model(seed=15)
    conv = tiny_data(conversations=1)[0]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        out = model.forward(conv.features)
        main_loss(cls_loss(out.outputs, conv.labels),
                  feature_loss(out.afw_state.attention, out.afw_state.mapped),
                  modal_loss(out.fused, conv.labels)).backward()
        del out
        gc.collect()
        assert not [o for o in gc.garbage if isinstance(o, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_backward_releases_the_graph():
    model = tiny_model(seed=15)
    conv = tiny_data(conversations=1)[0]
    out = model.forward(conv.features)
    loss = main_loss(cls_loss(out.outputs, conv.labels),
                     feature_loss(out.afw_state.attention, out.afw_state.mapped),
                     modal_loss(out.fused, conv.labels))
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._backward_fn is not None and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    assert len(nodes) > 50
    model.zero_grad()
    loss.backward()
    for node in nodes.values():
        assert node._backward_fn is None and node._parents == ()
        assert node.grad is None
    kept = model.grad.copy()
    for name, p in model.named_parameters().items():
        assert np.shares_memory(p.grad, model.grad) and p.grad.any(), name
    loss.backward()  # a released graph has nothing left to propagate
    assert np.array_equal(model.grad, kept)


def test_divergence_names_step_conversation_and_term():
    data = tiny_data(conversations=6)
    config = OptimizerConfig(learning_rate=0.1, epochs=2, batch_size=2,
                             noise=False, seed=5)
    bad = batches(data, config.batch_size, seed=config.seed + 1)[2][1]
    bad.features["a"][0, 1] = float("nan")  # step 3 packs it second
    traces = []
    with pytest.raises(DivergenceError) as info:
        train(tiny_model(seed=18), data, config, trace_sink=traces)
    assert str(info.value) == (f"step 3, conversation {bad.id}: cls loss is "
                               "not finite: nan")
    assert len(traces) == 2


def plant_after_backward(monkeypatch, step, index, row, value):
    """Make ``train``'s backward of ``step`` end with ``value`` at ``index``
    of the batch gradient and, unless ``row`` is None or the run keeps no
    encoder gradient rows, of that row of them; returns a list that
    receives theta as it was."""
    original = training.backward_batch
    before = []

    def planted(model, batch, conv_grads, active, dropout_rng, at):
        result = original(model, batch, conv_grads, active, dropout_rng, at)
        if at == step:
            before.append(model.theta.copy())
            model.grad[index] = value
            if row is not None and conv_grads is not None:
                conv_grads[row, index] = value
        return result

    monkeypatch.setattr(training, "backward_batch", planted)
    return before


@pytest.mark.parametrize("block, row", [("encoder.t.block0.w1", 1),
                                        ("classifier.w2", None)])
def test_non_finite_gradient_names_step_conversation_and_block(
        monkeypatch, block, row):
    # a NaN planted after step 3's backward, in the batch gradient and, for
    # an encoder block, in the second conversation's encoder gradient row
    data = tiny_data(conversations=6)
    config = OptimizerConfig(learning_rate=0.1, epochs=2, batch_size=2,
                             noise=True, seed=5)
    model = tiny_model(seed=18)
    index = model.offsets[list(model.named_parameters()).index(block)] + 1
    before = plant_after_backward(monkeypatch, 3, index, row, float("nan"))
    traces = []
    with pytest.raises(DivergenceError) as info:
        train(model, data, config, trace_sink=traces)
    bad = batches(data, config.batch_size, seed=config.seed + 1)[2]
    where = "" if row is None else f", conversation {bad[row].id}"
    assert str(info.value) == (f"step 3{where}: non-finite gradient in "
                               f"{block}")
    assert np.array_equal(model.theta, before[0])  # the step was not taken
    assert len(traces) == 2


def test_non_finite_gradient_without_noise_names_no_conversation(
        monkeypatch):
    # without noise no encoder gradient rows are kept, so an encoder
    # block's NaN reads like any other block's: the step and the block
    data = tiny_data(conversations=6)
    config = OptimizerConfig(learning_rate=0.1, epochs=2, batch_size=2,
                             noise=False, seed=5)
    model = tiny_model(seed=18)
    block = "encoder.t.block0.w1"
    index = model.offsets[list(model.named_parameters()).index(block)] + 1
    before = plant_after_backward(monkeypatch, 3, index, 1, float("nan"))
    with pytest.raises(DivergenceError) as info:
        train(model, data, config)
    assert str(info.value) == f"step 3: non-finite gradient in {block}"
    assert np.array_equal(model.theta, before[0])


def test_infinite_gradient_is_checked_before_the_noise_scale(monkeypatch):
    # an inf in a conversation's row would make the noise std subtract inf
    # from inf; the check must raise first, without a RuntimeWarning
    data = tiny_data(conversations=6)
    config = OptimizerConfig(learning_rate=0.1, epochs=1, batch_size=2,
                             noise=True, seed=5)
    model = tiny_model(seed=18)
    before = plant_after_backward(monkeypatch, 2, 5, 0, float("inf"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            train(model, data, config)
    bad = batches(data, config.batch_size, seed=config.seed + 1)[1]
    assert str(info.value) == (f"step 2, conversation {bad[0].id}: "
                               "non-finite gradient in encoder.t.in_proj.w")
    assert np.array_equal(model.theta, before[0])
