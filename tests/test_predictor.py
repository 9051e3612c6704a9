import inspect

import numpy as np
import pytest

from prsim.channel import FadingProcessConfig, generate_series
from prsim.predictor import (
    AdamState,
    LayerSpec,
    PredictorSettings,
    RecurrentNet,
    adam_step,
    build_dataset,
    complex_from_split,
    flops_per_step,
    load_model,
    predict_series,
    prediction_correlation,
    save_model,
    train,
    train_link_predictor,
)
from prsim.predictor.data import iter_windows
from prsim.predictor.layers import sigmoid
from prsim.predictor.train import _PREDICT_BLOCK, _stateful_predict
from prsim.rng import stream


LAYOUT = {"tau": 4, "horizon": 3, "features": "complex", "scale": 0.4,
          "links": 8}


def multilink_series(seed, length, links):
    cfg = FadingProcessConfig(doppler_hz=100.0, sample_rate_hz=1000.0, seed=seed)
    return np.column_stack([generate_series(cfg, length, link=k) for k in range(links)])


# ----------------------------------------------------------------- layers


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec("perceptron", 4)
    with pytest.raises(ValueError):
        LayerSpec("lstm", 0)
    assert LayerSpec("lstm", 3).gate_rows == 4
    assert LayerSpec("gru", 3).gate_rows == 3
    assert LayerSpec("rnn", 3).gate_rows == 1


def test_sigmoid_saturates_without_overflow():
    x = np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0])
    with np.errstate(over="raise"):
        y = sigmoid(x)
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 and y[-1] == 1.0
    assert y[2] == 0.5


def test_init_ranges_and_determinism():
    spec = (LayerSpec("lstm", 5), LayerSpec("gru", 4))
    net = RecurrentNet(7, spec, 3, seed=12)
    twin = RecurrentNet(7, spec, 3, seed=12)
    other = RecurrentNet(7, spec, 3, seed=13)
    in_dim = 7
    for p, s in zip(net.params, spec):
        assert np.max(np.abs(p["W"])) <= 1.0 / np.sqrt(in_dim)
        assert np.all(p["b"] == 0.0)
        assert np.max(np.abs(p["U"])) <= 1.0 / np.sqrt(s.size)
        in_dim = s.size
    assert np.all(net.out["b"] == 0.0)
    for (na, a), (nb, b) in zip(net.parameter_items(), twin.parameter_items()):
        assert na == nb and np.array_equal(a, b)
    assert any(not np.array_equal(a, b)
               for (_, a), (_, b) in zip(net.parameter_items(), other.parameter_items()))


def zeroed(net):
    for _, arr in net.parameter_items():
        arr[...] = 0.0
    return net


def test_all_zero_lstm_emits_zero():
    # g = tanh(0) = 0 pins the cell at zero, so h and y stay exactly zero
    net = zeroed(RecurrentNet(3, (LayerSpec("lstm", 4),), 2, seed=0))
    xs = stream(5).normal(size=(6, 3))
    ys, state, _ = net.forward_window(xs)
    assert np.all(ys == 0.0)
    assert np.all(state[0][0] == 0.0) and np.all(state[0][1] == 0.0)


def test_all_zero_gru_halves_state():
    # z = sig(0) = 1/2 and c = 0 give s' = s/2 each step
    net = zeroed(RecurrentNet(3, (LayerSpec("gru", 4),), 2, seed=0))
    s0 = np.array([0.8, -0.4, 0.2, 1.0])
    state = [s0.copy()]
    for k in range(1, 4):
        _, state, _ = net.forward_window(np.zeros((1, 3)), state)
        assert np.allclose(state[0], s0 / 2.0 ** k)


def test_gate_ranges_from_caches():
    spec = (LayerSpec("lstm", 5), LayerSpec("gru", 4))
    net = RecurrentNet(6, spec, 2, seed=3)
    xs = 3.0 * stream(4).normal(size=(20, 6))
    state = None
    _, state, caches = net.forward_window(xs, state, keep_cache=True)
    # per-layer window caches: gate activations are (T, rows) blocks
    _, _, _, acts, hc = caches[0]
    i, f, g, o = np.split(acts, 4, axis=1)
    for gate in (i, f, o):
        assert np.all((gate > 0.0) & (gate < 1.0))
    assert np.all(np.abs(g) < 1.0) and np.all(np.abs(hc) < 1.0)
    _, _, acts, _ = caches[1]
    z, r, c = np.split(acts, 3, axis=1)
    assert np.all((z > 0.0) & (z < 1.0)) and np.all((r > 0.0) & (r < 1.0))
    assert np.all(np.abs(c) < 1.0)
    _, y = caches[-1]
    assert y.shape == (20, 2) and np.all(np.abs(y) < 1.0)


def test_step_matches_forward_window():
    spec = (LayerSpec("lstm", 4), LayerSpec("rnn", 3))
    net = RecurrentNet(4, spec, 2, seed=9)
    xs = stream(10).normal(size=(7, 4))
    ys_win, state_win, _ = net.forward_window(xs)
    state = net.initial_state()
    for t in range(xs.shape[0]):
        y, state, _ = net.forward_window(xs[t:t + 1], state)
        # BLAS rounds a one-row projection differently (gemv), so the
        # carried state agrees to rounding, not bit for bit
        np.testing.assert_allclose(y[0], ys_win[t], rtol=1e-12, atol=0)
    np.testing.assert_allclose(state[1], state_win[1], rtol=1e-12, atol=0)


# ------------------------------------------------------------- gradients


def finite_difference_check(specs, in_dim, out_dim, seed, steps=4):
    net = RecurrentNet(in_dim, specs, out_dim, seed=seed)
    rng = stream(seed, 77)
    xs = rng.normal(size=(steps, in_dim))
    targets = np.tanh(rng.normal(size=(steps, out_dim)))
    _, grads, _ = net.loss_window(xs, targets)
    analytic = dict(net.grad_items(grads))
    eps = 1e-5
    worst = 0.0
    for name, arr in net.parameter_items():
        flat = arr.reshape(-1)
        # probe a bounded sample of entries per tensor
        idx = rng.permutation(flat.size)[:min(12, flat.size)]
        for k in idx:
            keep = flat[k]
            flat[k] = keep + eps
            lp, _, _ = net.loss_window(xs, targets)
            flat[k] = keep - eps
            lm, _, _ = net.loss_window(xs, targets)
            flat[k] = keep
            fd = (lp - lm) / (2.0 * eps)
            an = analytic[name].reshape(-1)[k]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("specs,seed", [
    ((LayerSpec("rnn", 4),), 1),
    ((LayerSpec("gru", 4),), 2),
    ((LayerSpec("lstm", 4),), 3),
    ((LayerSpec("lstm", 4), LayerSpec("gru", 3)), 4),
    ((LayerSpec("rnn", 3), LayerSpec("lstm", 5)), 5),
])
def test_bptt_matches_finite_differences(specs, seed):
    assert finite_difference_check(specs, 4, 3, seed) <= 1e-4


def test_zero_target_error_gives_zero_grads():
    net = RecurrentNet(3, (LayerSpec("lstm", 4),), 2, seed=6)
    xs = stream(6).normal(size=(5, 3))
    ys, _, _ = net.forward_window(xs)
    loss, grads, _ = net.loss_window(xs, ys)
    assert loss == 0.0
    assert all(np.all(g == 0.0) for _, g in net.grad_items(grads))


def test_grads_scale_with_error():
    net = RecurrentNet(3, (LayerSpec("gru", 4),), 2, seed=7)
    xs = stream(8).normal(size=(5, 3))
    ys, _, _ = net.forward_window(xs)
    targets = np.tanh(stream(9).normal(size=(5, 2)))
    loss1, g1, _ = net.loss_window(xs, targets)
    loss2, g2, _ = net.loss_window(xs, 2.0 * targets - ys)  # doubles the error
    assert loss2 == pytest.approx(4.0 * loss1, rel=1e-12)
    for (_, a), (_, b) in zip(net.grad_items(g1), net.grad_items(g2)):
        assert np.allclose(b, 2.0 * a, rtol=1e-12, atol=0)


# ---------------------------------------------------- per-step reference
#
# Textbook step-major BPTT: every layer steps once per sample and every
# parameter gradient accumulates one outer product per step.  It is the
# oracle for the layer-major window path.


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_loss_window(net, xs, targets):
    """Loss and {name: gradient} of a window run from the zero state."""
    specs, params = net.specs, net.params
    h_state = [np.zeros(s.size) for s in specs]
    c_state = [np.zeros(s.size) for s in specs]
    ys, caches = [], []
    for x in xs:
        step = []
        for li, (spec, p) in enumerate(zip(specs, params)):
            n, h = spec.size, h_state[li]
            if spec.kind == "rnn":
                out = np.tanh(p["W"] @ x + p["U"] @ h + p["b"])
                step.append((x, h, out))
            elif spec.kind == "lstm":
                z = p["W"] @ x + p["U"] @ h + p["b"]
                i, f, o = _sig(z[:n]), _sig(z[n:2 * n]), _sig(z[3 * n:])
                g = np.tanh(z[2 * n:3 * n])
                c = f * c_state[li] + i * g
                step.append((x, h, c_state[li], i, f, g, o, np.tanh(c)))
                c_state[li] = c
                out = o * np.tanh(c)
            else:
                zx = p["W"] @ x + p["b"]
                z = _sig(zx[:n] + p["U"][:n] @ h)
                r = _sig(zx[n:2 * n] + p["U"][n:2 * n] @ h)
                c = np.tanh(zx[2 * n:] + p["U"][2 * n:] @ (r * h))
                step.append((x, h, z, r, c))
                out = (1.0 - z) * h + z * c
            h_state[li] = x = out
        y = np.tanh(net.out["W"] @ x + net.out["b"])
        step.append((x, y))
        caches.append(step)
        ys.append(y)
    err = np.array(ys) - targets
    dys = 2.0 * err / err.size
    grads = {name: np.zeros_like(a) for name, a in net.parameter_items()}
    dh = [np.zeros(s.size) for s in specs]
    dc = [np.zeros(s.size) for s in specs]
    for t in range(len(xs) - 1, -1, -1):
        top, y = caches[t][-1]
        dz = dys[t] * (1.0 - y * y)
        grads["out/W"] += np.outer(dz, top)
        grads["out/b"] += dz
        dx = net.out["W"].T @ dz
        for li in range(len(specs) - 1, -1, -1):
            spec, p, cache, name = specs[li], params[li], caches[t][li], f"layer{li}"
            n = spec.size
            if spec.kind == "rnn":
                x, h, out = cache
                dz = (dx + dh[li]) * (1.0 - out * out)
                grads[name + "/U"] += np.outer(dz, h)
                dh[li] = p["U"].T @ dz
            elif spec.kind == "lstm":
                x, h, c_prev, i, f, g, o, hc = cache
                d = dx + dh[li]
                dcell = dc[li] + d * o * (1.0 - hc * hc)
                dz = np.concatenate([dcell * g * i * (1.0 - i),
                                     dcell * c_prev * f * (1.0 - f),
                                     dcell * i * (1.0 - g * g),
                                     d * hc * o * (1.0 - o)])
                grads[name + "/U"] += np.outer(dz, h)
                dh[li], dc[li] = p["U"].T @ dz, dcell * f
            else:
                x, h, z, r, c = cache
                d = dx + dh[li]
                da = d * z * (1.0 - c * c)
                drs = p["U"][2 * n:].T @ da
                dpz = d * (c - h) * z * (1.0 - z)
                dpr = drs * h * r * (1.0 - r)
                dz = np.concatenate([dpz, dpr, da])
                grads[name + "/U"] += np.vstack([np.outer(dpz, h), np.outer(dpr, h),
                                                 np.outer(da, r * h)])
                dh[li] = d * (1.0 - z) + drs * r + p["U"][:2 * n].T @ dz[:2 * n]
            grads[name + "/W"] += np.outer(dz, x)
            grads[name + "/b"] += dz
            dx = p["W"].T @ dz
    return float(np.mean(err * err)), grads


ORACLE_STACKS = [
    (LayerSpec("rnn", 4),),
    (LayerSpec("lstm", 4),),
    (LayerSpec("gru", 4),),
    (LayerSpec("lstm", 4), LayerSpec("gru", 3)),
    (LayerSpec("rnn", 3), LayerSpec("lstm", 5)),
    # the shape of the predictor the CLI builds by default
    (LayerSpec("lstm", 5), LayerSpec("lstm", 4)),
]


@pytest.mark.parametrize("T", [1, 8, 64])
@pytest.mark.parametrize("specs", ORACLE_STACKS,
                         ids=lambda s: "-".join(x.kind for x in s))
def test_loss_window_matches_per_step_reference(specs, T):
    net = RecurrentNet(4, specs, 3, seed=T)
    rng = stream(T, 78)
    xs = rng.normal(size=(T, 4))
    targets = np.tanh(rng.normal(size=(T, 3)))
    loss, grads, _ = net.loss_window(xs, targets)
    ref_loss, ref = reference_loss_window(net, xs, targets)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    for name, g in net.grad_items(grads):
        # dU of a one-step window is exactly zero: h_prev is the zero state
        scale = np.max(np.abs(ref[name]))
        np.testing.assert_allclose(g, ref[name], rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=name)


# ------------------------------------------------------------------ adam


def test_adam_defaults():
    sig = inspect.signature(adam_step)
    assert sig.parameters["lr"].default == 1e-3
    assert sig.parameters["beta1"].default == 0.9
    assert sig.parameters["beta2"].default == 0.999
    assert sig.parameters["eps"].default == 1e-8


def test_adam_first_step_is_signed_lr():
    # bias correction makes the first update lr * g / (|g| + eps)
    net = RecurrentNet(3, (LayerSpec("rnn", 2),), 2, seed=1)
    before = {n: a.copy() for n, a in net.parameter_items()}
    grads = np.zeros_like(net.flat)
    for _, g in net.grad_items(grads):
        g[...] = stream(2).normal(size=g.shape)
    state = AdamState()
    adam_step(net, grads, state, lr=1e-3)
    for (name, a), (_, g) in zip(net.parameter_items(), net.grad_items(grads)):
        step = before[name] - a
        mask = np.abs(g) > 1e-3
        assert np.allclose(step[mask], 1e-3 * np.sign(g[mask]), atol=1e-9)
    assert state.t == 1


def test_adam_zero_grad_is_a_no_op():
    net = RecurrentNet(3, (LayerSpec("lstm", 2),), 2, seed=1)
    before = {n: a.copy() for n, a in net.parameter_items()}
    adam_step(net, np.zeros_like(net.flat), AdamState())
    for name, a in net.parameter_items():
        assert np.array_equal(a, before[name])


def test_flat_adam_matches_per_array_adam():
    net = RecurrentNet(3, (LayerSpec("lstm", 3), LayerSpec("gru", 2)), 2, seed=4)
    ref = {n: a.copy() for n, a in net.parameter_items()}
    m = {n: np.zeros_like(a) for n, a in ref.items()}
    v = {n: np.zeros_like(a) for n, a in ref.items()}
    state = AdamState()
    rng = stream(16)
    for t in range(1, 6):
        grads = rng.normal(size=net.flat.size)
        adam_step(net, grads, state, lr=1e-2)
        for name, g in net.grad_items(grads):
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
            m_hat = m[name] / (1.0 - 0.9 ** t)
            v_hat = v[name] / (1.0 - 0.999 ** t)
            ref[name] = ref[name] - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert state.t == 5
    for name, a in net.parameter_items():
        np.testing.assert_array_equal(a, ref[name], err_msg=name)


# ------------------------------------------------------------------ data


def test_tapped_delay_vector_ordering():
    series = np.arange(12.0).reshape(6, 2)  # magnitudes equal the values
    X, _ = build_dataset(series, tau=1, horizon=1)
    # the row ending at t = 3: earliest instant first, links contiguous
    assert np.array_equal(X[3 - 1], np.array([4.0, 5.0, 6.0, 7.0]))
    with pytest.raises(ValueError):
        build_dataset(series[:2], tau=1, horizon=1)  # no tap window fits


def test_tapped_delay_widths():
    series = multilink_series(3, 50, 8)
    assert build_dataset(series, 4, 1)[0].shape[1] == 40
    assert build_dataset(series, 4, 1, features="complex")[0].shape[1] == 80
    assert build_dataset(series, 0, 1)[0].shape[1] == 8
    with pytest.raises(ValueError):
        build_dataset(series, 4, 1, features="phase")


def test_build_dataset_alignment():
    series = np.arange(10.0).reshape(10, 1)
    X, Y = build_dataset(series, tau=2, horizon=3)
    assert X.shape == (5, 3) and Y.shape == (5, 1)
    assert np.array_equal(X[0], np.array([0.0, 1.0, 2.0]))
    assert Y[0, 0] == 5.0  # three steps past the window end at t = 2
    assert np.array_equal(X[-1], np.array([4.0, 5.0, 6.0]))
    assert Y[-1, 0] == 9.0
    for t in range(5):
        assert np.array_equal(X[t], series[t:t + 3].reshape(-1))


def test_build_dataset_scale_and_errors():
    series = multilink_series(4, 40, 2)
    X, Y = build_dataset(series, 4, 3, features="complex")
    Xs, Ys = build_dataset(series, 4, 3, features="complex", scale=0.4)
    assert np.allclose(Xs, 0.4 * X) and np.allclose(Ys, 0.4 * Y)
    with pytest.raises(ValueError):
        build_dataset(series, -1, 3)
    with pytest.raises(ValueError):
        build_dataset(series, 4, 0)
    with pytest.raises(ValueError):
        build_dataset(series[:7], 4, 3)  # no complete sample pair


def test_complex_split_roundtrip():
    series = multilink_series(5, 30, 3)
    _, Y = build_dataset(series, 2, 1, features="complex")
    rebuilt = complex_from_split(Y)
    assert np.allclose(rebuilt, series[3:], rtol=0, atol=0)
    with pytest.raises(ValueError):
        complex_from_split(np.zeros((4, 5)))


def test_iter_windows_partition_and_shuffle():
    shuffled = iter_windows(23, 5, stream(3, 31))
    plain = sorted(shuffled, key=lambda s: s.start)
    assert [s.start for s in plain] == [0, 5, 10, 15, 20]
    assert [s.stop for s in plain] == [5, 10, 15, 20, 23]
    assert shuffled != plain
    again = iter_windows(23, 5, stream(3, 31))
    assert shuffled == again
    with pytest.raises(ValueError):
        iter_windows(10, 0, stream(3, 31))


# -------------------------------------------------------------- training


def test_prediction_correlation_properties():
    rng = stream(40)
    a = rng.normal(size=400) + 1j * rng.normal(size=400)
    assert prediction_correlation(a, a) == pytest.approx(1.0)
    # invariant to complex scaling and offsets of either argument
    assert prediction_correlation((2.0 - 1.0j) * a + 0.3, a) == pytest.approx(1.0)
    b = rng.normal(size=400) + 1j * rng.normal(size=400)
    assert prediction_correlation(a, b) < 0.2
    assert prediction_correlation(np.zeros(400), a) == 0.0
    with pytest.raises(ValueError):
        prediction_correlation(a[:10], a)


def test_train_config_validation():
    with pytest.raises(ValueError):
        PredictorSettings(epochs=0)
    net = RecurrentNet(2, (LayerSpec("rnn", 2),), 1)
    with pytest.raises(ValueError):
        train(net, np.zeros((4, 2)), np.zeros((4, 1)), val_fraction=1.0)
    with pytest.raises(ValueError):
        PredictorSettings(lr=0.0)


def test_training_reduces_mse_and_beats_untrained():
    series = multilink_series(7, 1200, 2)
    recipe = PredictorSettings(neurons=8, epochs=6, batch_size=8, lr=3e-3)
    net, report = train_link_predictor(series, horizon=3, recipe=recipe, seed=1)
    mse = report.epoch_mse
    assert len(mse) == 6
    assert all(b < a for a, b in zip(mse, mse[1:]))
    assert mse[-1] < 0.8 * mse[0]

    evals = multilink_series(8, 2000, 2)
    _, rho = predict_series(net, evals)
    fresh = RecurrentNet(20, net.specs, 4, seed=5, layout=net.layout)
    _, rho_fresh = predict_series(fresh, evals)
    assert rho > 0.25
    assert rho_fresh < 0.1
    assert rho > 5.0 * rho_fresh


def test_validation_split_is_time_ordered_tail():
    series = multilink_series(9, 600, 2)
    X, Y = build_dataset(series, 4, 3, features="complex", scale=0.4)
    net = RecurrentNet(X.shape[1], (LayerSpec("gru", 6),), Y.shape[1], seed=2)
    recipe = PredictorSettings(epochs=2, batch_size=16, lr=3e-3)
    report = train(net, X, Y, recipe, seed=2, val_fraction=0.2)
    n_val = int(round(0.2 * X.shape[0]))
    ys, _, _ = net.forward_window(X[X.shape[0] - n_val:])
    assert report.val_mse == pytest.approx(float(np.mean((ys - Y[-n_val:]) ** 2)))


def test_training_without_a_split_reports_no_validation_error():
    series = multilink_series(9, 300, 2)
    X, Y = build_dataset(series, 4, 3, features="complex", scale=0.4)
    net = RecurrentNet(X.shape[1], (LayerSpec("gru", 6),), Y.shape[1], seed=2)
    report = train(net, X, Y, PredictorSettings(epochs=1, batch_size=16), seed=2)
    assert report.val_mse is None and len(report.epoch_mse) == 1


def test_predict_series_returns_physical_units():
    series = multilink_series(11, 400, 2)
    # two copies of one net whose layouts differ only in scale
    net_a, net_b = (
        RecurrentNet(20, (LayerSpec("lstm", 6),), 4, seed=3,
                     layout=dict(LAYOUT, links=2, scale=scale))
        for scale in (0.4, 0.8))
    pred_a, rho_a = predict_series(net_a, series)
    pred_b, rho_b = predict_series(net_b, series)
    assert pred_a.shape == (400 - 4 - 3, 2)
    # rho is scale free; the unscaled outputs differ through the tanh
    assert rho_a == pytest.approx(rho_b, abs=0.2)
    assert not np.allclose(pred_a, pred_b)


def test_blocked_stateful_pass_is_bit_exact():
    spec = (LayerSpec("lstm", 5), LayerSpec("gru", 4), LayerSpec("rnn", 3))
    net = RecurrentNet(6, spec, 3, seed=14)
    X = stream(15).normal(size=(2 * _PREDICT_BLOCK + 37, 6))
    whole, _, _ = net.forward_window(X)
    assert np.array_equal(_stateful_predict(net, X), whole)


def test_training_is_deterministic():
    series = multilink_series(12, 400, 2)
    recipe = PredictorSettings(neurons=6, epochs=2, batch_size=8, lr=3e-3)
    (a, ra), (b, rb) = (train_link_predictor(series, 3, recipe, seed=3)
                        for _ in range(2))
    assert a.flat.tobytes() == b.flat.tobytes()
    assert ra == rb


# ------------------------------------------------------------- complexity


def test_flops_reference_configuration():
    per_step = flops_per_step(40, (25, 25), 8, "lstm")
    assert per_step == 25_400
    # stepped at 1 kHz
    assert per_step * 1000.0 == pytest.approx(25.4e6)


def test_flops_hand_counts():
    # rnn: 2 [10*5 + 5*2 + 1 (10*5 + 25)] = 270; gru and lstm scale the
    # recurrent term by 3 and 4
    assert flops_per_step(10, (5,), 2, "rnn") == 270
    assert flops_per_step(10, (5,), 2, "gru") == 570
    assert flops_per_step(10, (5,), 2, "lstm") == 720
    assert flops_per_step(10, (5, 4), 2, "gru") == \
        2 * (10 * 5 + 4 * 2 + 3 * (10 * 5 + 25) + 3 * (5 * 4 + 16))
    with pytest.raises(ValueError):
        flops_per_step(10, (), 2)
    with pytest.raises(ValueError):
        flops_per_step(10, (5,), 2, "transformer")


@pytest.mark.parametrize("kind", ["rnn", "gru", "lstm"])
def test_flops_census_is_the_built_net_plus_the_input_layer(kind):
    # the census charges the paper's dense input layer (2 N_i n1) on
    # top of the 2 flops per weight entry the built network spends
    n_in, widths, n_out = 80, (25, 25), 16
    net = RecurrentNet(n_in, [LayerSpec(kind, w) for w in widths], n_out)
    weights = sum(view.size for name, view in net.parameter_items()
                  if not name.endswith("/b"))
    census = flops_per_step(n_in, widths, n_out, kind)
    assert census - 2 * n_in * widths[0] == 2 * weights
    if kind == "lstm":
        assert (census, 2 * weights) == (35_800, 31_800)


def test_flops_simplified_square_case():
    # when every dimension equals the common width n, the census is the
    # square law 4(1 + cL)n^2, c = 1, 3, 4 per cell kind
    assert flops_per_step(25, (25, 25), 25, "lstm") == 22_500
    for kind, c in (("rnn", 1), ("gru", 3), ("lstm", 4)):
        for layers, n in ((1, 7), (2, 25), (3, 40)):
            square = 4 * (1 + c * layers) * n ** 2
            assert flops_per_step(n, (n,) * layers, n, kind) == square
        assert flops_per_step(40, (25, 25), 8, kind) != 4 * (1 + 2 * c) * 625
    with pytest.raises(ValueError):
        flops_per_step(25, (25, 25), 25, "dense_tanh")


def test_model_roundtrip_is_bit_exact(tmp_path):
    spec = (LayerSpec("lstm", 5), LayerSpec("gru", 4))
    net = RecurrentNet(7, spec, 3, seed=21, layout=LAYOUT)
    xs = stream(22).normal(size=(9, 7))
    train(net, xs, np.tanh(stream(23).normal(size=(9, 3))),
          PredictorSettings(epochs=2, batch_size=4, lr=1e-2), seed=0)
    path = tmp_path / "net.npz"
    save_model(net, path)
    back = load_model(path)
    assert back.layout == LAYOUT
    assert back.specs == net.specs
    for (na, a), (nb, b) in zip(net.parameter_items(), back.parameter_items()):
        assert na == nb and np.array_equal(a, b)
    ys, _, _ = net.forward_window(xs)
    ys2, _, _ = back.forward_window(xs)
    assert np.array_equal(ys, ys2)


def test_model_load_rejects_bad_archives(tmp_path):
    import json

    net = RecurrentNet(4, (LayerSpec("rnn", 3),), 2, seed=0, layout=LAYOUT)
    path = tmp_path / "net.npz"
    save_model(net, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}

    header = json.loads(str(arrays["__meta__"]))
    header["format"] = "other"
    bad = dict(arrays, __meta__=np.array(json.dumps(header)))
    np.savez(tmp_path / "bad_format.npz", **bad)
    with pytest.raises(ValueError, match="format"):
        load_model(tmp_path / "bad_format.npz")

    header = json.loads(str(arrays["__meta__"]))
    header["version"] = 99
    bad = dict(arrays, __meta__=np.array(json.dumps(header)))
    np.savez(tmp_path / "bad_version.npz", **bad)
    with pytest.raises(ValueError, match="version"):
        load_model(tmp_path / "bad_version.npz")

    # a version 1 archive records no feature layout; it must be refit
    header = json.loads(str(arrays["__meta__"]))
    header["version"] = 1
    del header["layout"]
    bad = dict(arrays, __meta__=np.array(json.dumps(header)))
    np.savez(tmp_path / "version1.npz", **bad)
    with pytest.raises(ValueError, match="version 1 .*prsim train"):
        load_model(tmp_path / "version1.npz")

    header = json.loads(str(arrays["__meta__"]))
    del header["layout"]["scale"]
    bad = dict(arrays, __meta__=np.array(json.dumps(header)))
    np.savez(tmp_path / "no_layout.npz", **bad)
    with pytest.raises(ValueError, match="layout"):
        load_model(tmp_path / "no_layout.npz")

    header = json.loads(str(arrays["__meta__"]))
    header["layers"][0]["size"] = 5
    bad = dict(arrays, __meta__=np.array(json.dumps(header)))
    np.savez(tmp_path / "bad_shape.npz", **bad)
    with pytest.raises(ValueError, match="shape"):
        load_model(tmp_path / "bad_shape.npz")

    np.savez(tmp_path / "headerless.npz", W=np.zeros(3))
    with pytest.raises(ValueError, match="header"):
        load_model(tmp_path / "headerless.npz")

    # damaged archives are refused as values too, never as zip or EOF
    # errors: the CLI's model cache retrains on ValueError
    whole = path.read_bytes()
    for name, cut in (("empty", b""), ("truncated", whole[:len(whole) // 2])):
        (tmp_path / name).write_bytes(cut)
        with pytest.raises(ValueError, match="damaged"):
            load_model(tmp_path / name)
    del arrays["layer0__W"]
    np.savez(tmp_path / "missing_array.npz", **arrays)
    with pytest.raises(ValueError, match="damaged"):
        load_model(tmp_path / "missing_array.npz")
