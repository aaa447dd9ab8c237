"""Balance optimizer: scores, ratios, modulation, updates, and the loop."""

import gc
import math

import numpy as np
import pytest

from modbalance.dataset import SynthSpec, batches, generate
from modbalance.errors import ConfigError, DivergenceError
from modbalance.losses import cls_loss, feature_loss, main_loss, modal_loss
from modbalance.model import Model, ModelConfig
from modbalance.tensor import Tensor
from modbalance.training import (
    OptimizerConfig,
    TRACE_HEADER,
    apply_update,
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
    rng = np.random.default_rng(3)
    p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    g = rng.standard_normal((3, 4))
    expected = p.data - 0.1 * g
    apply_update({"p": p}, {"p": g}, eta=0.1, k=1.0)
    assert np.array_equal(p.data, expected)


def test_update_halves_step_with_half_coefficient():
    rng = np.random.default_rng(4)
    start = rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4))
    full = Tensor(start.copy(), requires_grad=True)
    half = Tensor(start.copy(), requires_grad=True)
    apply_update({"p": full}, {"p": g}, eta=0.1, k=1.0)
    apply_update({"p": half}, {"p": g}, eta=0.1, k=0.5)
    step = 0.1 * g  # multiplying the step by 0.5 is exact in binary
    assert np.array_equal(full.data, start - step)
    assert np.array_equal(half.data, start - step * 0.5)


def test_update_noise_is_seed_reproducible():
    rng = np.random.default_rng(5)
    start = rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4))
    std = np.abs(g) * 0.1
    results = []
    for _ in range(2):
        p = Tensor(start.copy(), requires_grad=True)
        apply_update({"p": p}, {"p": g}, eta=0.1, k=0.8,
                     noise_std={"p": std}, rng=np.random.default_rng(11))
        results.append(p.data.copy())
    assert np.array_equal(results[0], results[1])


def test_update_rejects_non_finite_gradient():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    g = np.array([[1.0, float("nan")], [0.0, 0.0]])
    with pytest.raises(DivergenceError, match="encoder.t"):
        apply_update({"encoder.t.w": p}, {"encoder.t.w": g}, eta=0.1)


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
        encoder_names |= set(model_mod.encoder_parameter_names(m))
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


def test_disable_modulation_matches_reference_sgd_bitwise():
    data = tiny_data(conversations=5)
    epochs = 3
    config = OptimizerConfig(learning_rate=0.15, epochs=epochs, batch_size=2,
                             noise=False, disable_modulation=True, seed=6)
    model = tiny_model(seed=10)
    train(model, data, config)

    # independent plain-SGD reference path with the same batch schedule
    reference = tiny_model(seed=10)
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

    trained = model.named_parameters()
    for name, p in params.items():
        assert np.array_equal(p.data, trained[name].data), name


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
    for name in model.encoder_parameter_names("v"):
        assert np.array_equal(before[name], after[name].data)
    assert any(not np.array_equal(before[n], after[n].data)
               for n in model.encoder_parameter_names("t"))
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
