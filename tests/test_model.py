import decimal
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from dbcscore import (LabeledDataset, MlpModel, ModelError, TrainConfig,
                      init_model, load_model, make_blobs, save_model, train)
from dbcscore import model as model_module
from dbcscore.model import batch_gradients, batch_loss, sigmoid


def loop_forward(model, x):
    """Independent forward oracle: explicit loops, no matrix ops."""
    values = list(x)
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        out = []
        for row in range(w.shape[0]):
            z = b[row]
            for col in range(w.shape[1]):
                z += w[row, col] * values[col]
            out.append(z)
        last = layer == len(model.weights) - 1
        if last:
            values = [1.0 / (1.0 + math.exp(-z)) for z in out]
        elif model.hidden_activation == "relu":
            values = [max(z, 0.0) for z in out]
        else:
            values = [math.tanh(z) for z in out]
    return values[0]


class TestForward:
    def test_zero_network_gives_half(self):
        model = MlpModel([3, 2, 1], [np.zeros((2, 3)), np.zeros((1, 2))],
                         [np.zeros(2), np.zeros(1)])
        assert model(np.array([1.0, -2.0, 3.0])) == 0.5

    def test_single_layer_sigmoid_identity(self):
        model = MlpModel([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        assert model(np.array([0.0])) == 0.5
        assert model(np.array([100.0])) > 1.0 - 1e-12
        assert model(np.array([-100.0])) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        model = init_model([4, 5, 3, 1], seed=17)
        for _ in range(20):
            x = rng.normal(size=4)
            assert abs(model(x) - loop_forward(model, x)) <= 1e-12

    def test_matches_loop_oracle_tanh(self):
        rng = np.random.default_rng(23)
        model = init_model([3, 4, 1], seed=23, hidden_activation="tanh")
        for _ in range(10):
            x = rng.normal(size=3)
            assert abs(model(x) - loop_forward(model, x)) <= 1e-12

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_matrix_expression_bitwise(self, activation):
        """The in-place forward gives the bits of the plain expression and
        never writes its (read-only) input."""
        model = init_model([5, 7, 6, 1], seed=31, hidden_activation=activation)
        hidden = (lambda z: np.maximum(z, 0.0)) if activation == "relu" else np.tanh
        X = np.random.default_rng(31).normal(size=(40, 5))
        X.setflags(write=False)
        before = X.copy()
        h = X
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            h = hidden(h @ w.T + b)
        expected = sigmoid(h @ model.weights[-1].T + model.biases[-1])[:, 0]
        np.testing.assert_array_equal(model(X), expected)
        np.testing.assert_array_equal(X, before)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(2)
        model = init_model([6, 8, 1], seed=2)
        X = rng.normal(scale=1e4, size=(500, 6))
        p = model(X)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_batch_matches_single(self):
        model = init_model([3, 4, 1], seed=5)
        X = np.random.default_rng(5).normal(size=(10, 3))
        batch = model(X)
        singles = np.array([model(row) for row in X])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        model = init_model([3, 1], seed=0)
        with pytest.raises(ModelError):
            model(np.zeros(4))

    def test_non_finite_input(self):
        model = init_model([2, 1], seed=0)
        with pytest.raises(ModelError):
            model(np.array([np.nan, 0.0]))


class TestParameterCount:
    @pytest.mark.parametrize("arch,expected", [
        ([2, 1, 1], 5),
        ([2, 10, 32, 16, 1], 927),
        ([30, 20, 20, 20, 1], 1481),
        ([30, 1000, 1], 32001),
    ])
    def test_reference_architectures(self, arch, expected):
        assert init_model(arch, seed=0).parameter_count() == expected

    def test_closed_form_on_random_architectures(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            depth = int(rng.integers(1, 5))
            arch = [int(rng.integers(1, 40)) for _ in range(depth + 1)] + [1]
            model = init_model(arch, seed=0)
            expected = sum(arch[i] * arch[i + 1] + arch[i + 1]
                           for i in range(len(arch) - 1))
            assert model.parameter_count() == expected


def finite_difference_gradients(model, X, y, step=1e-4):
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for gw, w in zip(grads_w, model.weights):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = batch_loss(model, X, y)
            w[idx] = orig - step
            down = batch_loss(model, X, y)
            w[idx] = orig
            gw[idx] = (up - down) / (2 * step)
    for gb, b in zip(grads_b, model.biases):
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            up = batch_loss(model, X, y)
            b[idx] = orig - step
            down = batch_loss(model, X, y)
            b[idx] = orig
            gb[idx] = (up - down) / (2 * step)
    return grads_w, grads_b


def flatten(grads_w, grads_b):
    return np.concatenate([g.ravel() for g in grads_w + grads_b])


def sample_away_from_kinks(model, rng, count, step):
    """Inputs whose hidden pre-activations stay clear of relu kinks.

    Central differences are meaningless within a step of a kink (the loss
    is not differentiable there), so the check samples where the gradient
    exists and is smooth. Two-sided margin of 100 steps keeps the whole
    perturbed neighborhood on one side.
    """
    X = rng.normal(size=(count * 20, model.dimension))
    keep = np.ones(X.shape[0], dtype=bool)
    if model.hidden_activation == "relu":
        h = X
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            z = h @ w.T + b
            keep &= (np.abs(z) > 100 * step).all(axis=1)
            h = np.maximum(z, 0.0)
    X = X[keep][:count]
    assert X.shape[0] >= max(4, count // 2), "too few kink-free samples drawn"
    return X


def reference_steps(dataset, sizes, config):
    """Each epoch's list of (rows, dropout masks) steps, drawn from the seed
    streams ``train`` uses: [seed, 1] shuffles the epochs and [seed, 2]
    draws the masks, one per hidden layer in layer order (rate 0: none)."""
    shuffle_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])
    widths = sizes[1:-1]
    rates = list(config.dropout_rates)
    if len(rates) == 1:
        rates = rates * len(widths)
    n = dataset.count
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        steps = []
        for start in range(0, n, config.batch_size):
            rows = order[start:start + config.batch_size]
            masks = None
            if rates:
                masks = [None if rate == 0.0
                         else (dropout_rng.random((rows.size, width)) >= rate) / (1.0 - rate)
                         for width, rate in zip(widths, rates)]
            steps.append((rows, masks))
        yield steps


def reference_train(dataset, sizes, config, activation):
    """Independent training oracle: one plain loop per layer, rebuilding
    the model after every step, on the steps of ``reference_steps``.
    Returns the model and the mean loss of each epoch."""
    net = init_model(sizes, config.seed, activation)
    X, y = dataset.features, dataset.labels.astype(float)
    lr, beta1, beta2 = config.learning_rate, 0.9, 0.999
    moments = {}
    epoch_losses = []
    step = 0
    for steps in reference_steps(dataset, sizes, config):
        losses = []
        for rows, masks in steps:
            grads_w, grads_b, loss = batch_gradients(net, X[rows], y[rows], masks)
            losses.append(loss)
            step += 1
            new = {}
            for layer in range(len(net.weights)):
                for key, param, grad in (("w", net.weights[layer], grads_w[layer]),
                                         ("b", net.biases[layer], grads_b[layer])):
                    if config.optimizer == "sgd":
                        new[key, layer] = param - lr * grad
                        continue
                    m, v = moments.get((key, layer), (0.0, 0.0))
                    m = beta1 * m + (1 - beta1) * grad
                    v = beta2 * v + (1 - beta2) * grad ** 2
                    moments[key, layer] = (m, v)
                    m_hat = m / (1 - beta1 ** step)
                    v_hat = v / (1 - beta2 ** step)
                    new[key, layer] = param - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            layers = range(len(net.weights))
            net = MlpModel(sizes, [new["w", i] for i in layers],
                           [new["b", i] for i in layers], activation)
        epoch_losses.append(float(np.mean(losses)))
    return net, epoch_losses


def per_array_update_train(dataset, sizes, config, activation):
    """Training with one in-place optimizer update per weight and bias
    array, in the expressions and op order that the flat-buffer update of
    ``train`` must reproduce bit for bit, on the steps of
    ``reference_steps``: Adam in Kingma & Ba's order, its bias corrections
    folded into the step size alpha and into eps. Returns the model and the
    mean loss of each epoch."""
    model = init_model(sizes, config.seed, activation)
    X, y = dataset.features, dataset.labels.astype(np.float64)
    params = model.weights + model.biases
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    lr, beta1, beta2, eps = config.learning_rate, 0.9, 0.999, 1e-8
    epoch_losses = []
    t = 0
    for steps in reference_steps(dataset, sizes, config):
        losses = []
        for rows, masks in steps:
            grads_w, grads_b, loss = batch_gradients(model, X[rows], y[rows], masks)
            losses.append(loss)
            t += 1
            for param, grad, (m, v) in zip(params, grads_w + grads_b, moments):
                if config.optimizer == "sgd":
                    param -= lr * grad
                    continue
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad * grad
                root2 = math.sqrt(1 - beta2 ** t)
                alpha = lr * root2 / (1 - beta1 ** t)
                param -= m / (np.sqrt(v) + eps * root2) * alpha
        epoch_losses.append(float(np.mean(losses)))
    return model, epoch_losses


class TestGradients:
    def test_tiny_dataset_gradient_check(self):
        """Analytic gradient at init matches central differences to 1e-5
        relative on the 1-D two-point dataset."""
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = init_model([1, 1], seed=3)
        grads_w, grads_b, _ = batch_gradients(model, X, y)
        fd_w, fd_b = finite_difference_gradients(model, X, y)
        analytic = flatten(grads_w, grads_b)
        numeric = flatten(fd_w, fd_b)
        assert np.linalg.norm(analytic - numeric) <= 1e-5 * np.linalg.norm(numeric)

    @pytest.mark.parametrize("arch,activation,seed", [
        ([3, 4, 1], "relu", 51),
        ([2, 5, 3, 1], "relu", 52),
        ([3, 4, 1], "tanh", 53),
        ([4, 3, 2, 1], "tanh", 54),
    ])
    def test_random_small_models(self, arch, activation, seed):
        rng = np.random.default_rng(seed)
        model = init_model(arch, seed=11, hidden_activation=activation)
        X = sample_away_from_kinks(model, rng, count=12, step=1e-4)
        y = rng.integers(0, 2, size=X.shape[0]).astype(float)
        grads_w, grads_b, _ = batch_gradients(model, X, y)
        fd_w, fd_b = finite_difference_gradients(model, X, y, step=1e-4)
        analytic = flatten(grads_w, grads_b)
        numeric = flatten(fd_w, fd_b)
        assert np.linalg.norm(analytic - numeric) <= 1e-4 * max(np.linalg.norm(numeric), 1e-12)

    @pytest.mark.parametrize("activation,rates", [("relu", ()), ("tanh", (0.5, 0.0))])
    def test_gradients_written_into_out(self, activation, rates):
        """With ``out``, backprop writes into the given arrays, here views
        of one flat buffer, and returns those very arrays, with the bits
        of the call without ``out``."""
        rng = np.random.default_rng(55)
        sizes = [4, 6, 5, 1]
        model = init_model(sizes, seed=13, hidden_activation=activation)
        X = rng.normal(size=(9, 4))
        y = rng.integers(0, 2, size=9).astype(float)
        masks = [None if rate == 0.0 else (rng.random((9, width)) >= rate) / (1.0 - rate)
                 for width, rate in zip(sizes[1:-1], rates)] if rates else None
        arrays = model.weights + model.biases
        flat = np.full(sum(a.size for a in arrays), np.nan)
        bounds = np.cumsum([a.size for a in arrays])[:-1]
        views = [part.reshape(a.shape) for part, a in zip(np.split(flat, bounds), arrays)]
        out = (views[:3], views[3:])
        got_w, got_b, got_loss = batch_gradients(model, X, y, masks, out=out)
        want_w, want_b, want_loss = batch_gradients(model, X, y, masks)
        assert got_w is out[0] and got_b is out[1]
        assert all(a is b for a, b in zip(got_w + got_b, views))
        for got, want in zip(got_w + got_b, want_w + want_b):
            assert not np.shares_memory(got, want)
            assert np.array_equal(got, want)
        assert got_loss == want_loss
        assert np.array_equal(flat, flatten(want_w, want_b))


class TestTrain:
    def test_separable_blobs_reach_full_accuracy(self, blobs_2d):
        config = TrainConfig(epochs=300, batch_size=32, learning_rate=1e-2,
                             seed=0, optimizer="adam", target_train_accuracy=1.0)
        model, report = train(blobs_2d, [2, 1, 1], config, hidden_activation="tanh")
        assert report.final_accuracy == 1.0
        assert model.parameter_count() == 5

    @pytest.mark.parametrize("optimizer,rates,activation", [
        ("adam", (), "relu"),
        ("sgd", (), "tanh"),
        ("adam", (0.5,), "relu"),
        ("sgd", (0.0, 0.3), "tanh"),
    ])
    def test_matches_reference_loop(self, optimizer, rates, activation):
        """Three epochs of ``train`` on a [3, 6, 5, 1] net, with a short last
        batch, match the per-layer reference loop: a single dropout rate
        applies to both hidden layers, and a zero rate draws no mask."""
        ds = make_blobs(per_class=20, dimension=3, center_distance=3.0,
                        spread=1.0, seed=31)
        config = TrainConfig(epochs=3, batch_size=16, seed=12, optimizer=optimizer,
                             learning_rate=0.05 if optimizer == "sgd" else 0.01,
                             dropout_rates=rates)
        net, report = train(ds, [3, 6, 5, 1], config, hidden_activation=activation)
        expected, losses = reference_train(ds, [3, 6, 5, 1], config, activation)
        for got, want in zip(net.weights + net.biases, expected.weights + expected.biases):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        np.testing.assert_allclose(report.epoch_loss, losses, rtol=1e-10, atol=0)
        assert report.epochs_run == 3

    @pytest.mark.parametrize("optimizer,rates,activation", [
        ("adam", (), "relu"),
        ("adam", (0.5,), "relu"),
        ("sgd", (), "tanh"),
        ("sgd", (0.0, 0.3), "tanh"),
    ])
    def test_matches_per_array_update_bitwise(self, optimizer, rates, activation):
        """The one update over the flat parameter buffer gives the bits of
        one in-place update per array: weights, biases and epoch losses
        over three epochs of a [3, 6, 5, 1] net with a short last batch."""
        ds = make_blobs(per_class=20, dimension=3, center_distance=3.0,
                        spread=1.0, seed=31)
        config = TrainConfig(epochs=3, batch_size=16, seed=12, optimizer=optimizer,
                             learning_rate=0.05 if optimizer == "sgd" else 0.01,
                             dropout_rates=rates)
        net, report = train(ds, [3, 6, 5, 1], config, hidden_activation=activation)
        expected, losses = per_array_update_train(ds, [3, 6, 5, 1], config, activation)
        for got, want in zip(net.weights + net.biases, expected.weights + expected.biases):
            assert np.array_equal(got, want)
        assert report.epoch_loss == losses

    @pytest.mark.parametrize("optimizer,rates,activation,sizes", [
        ("adam", (), "relu", [3, 25000, 1]),
        ("sgd", (), "tanh", [3, 25000, 1]),
        ("adam", (0.5,), "relu", [3, 300, 300, 1]),
    ])
    def test_multi_chunk_update_matches_per_array_update_bitwise(self, optimizer, rates,
                                                                 activation, sizes):
        """Nets of more than two update chunks and a short last one (125,001
        and 91,801 parameters, one dropout rate for both hidden layers of
        the second) keep the bits of one in-place update per array: weights,
        biases and epoch losses over three epochs with a short last batch."""
        chunk = model_module._UPDATE_CHUNK
        count = init_model(sizes, seed=0).parameter_count()
        assert count > 2 * chunk and count % chunk != 0
        ds = make_blobs(per_class=20, dimension=3, center_distance=3.0,
                        spread=1.0, seed=32)
        config = TrainConfig(epochs=3, batch_size=16, seed=14, optimizer=optimizer,
                             learning_rate=0.05 if optimizer == "sgd" else 0.01,
                             dropout_rates=rates)
        net, report = train(ds, sizes, config, hidden_activation=activation)
        expected, losses = per_array_update_train(ds, sizes, config, activation)
        for got, want in zip(net.weights + net.biases, expected.weights + expected.biases):
            assert np.array_equal(got, want)
        assert report.epoch_loss == losses

    def test_trained_models_own_their_parameters(self, blobs_2d):
        """Training another model, of the same or of another architecture,
        leaves a trained model's arrays as they were."""
        config = TrainConfig(epochs=3, batch_size=32, learning_rate=1e-2, seed=4)
        first, _ = train(blobs_2d, [2, 5, 3, 1], config)
        before = [a.copy() for a in first.weights + first.biases]
        others = [train(blobs_2d, [2, 5, 3, 1], config)[0],
                  train(blobs_2d, [2, 9, 1],
                        TrainConfig(epochs=3, batch_size=16, learning_rate=1e-2, seed=5))[0]]
        for got, want in zip(first.weights + first.biases, before):
            assert np.array_equal(got, want)
        for other in others:
            for a in first.weights + first.biases:
                assert not any(np.shares_memory(a, b) for b in other.weights + other.biases)

    def test_trained_model_round_trips_bitwise(self, blobs_2d, tmp_path):
        """A trained model survives save/load and pickle (which the scoring
        pool uses) with every parameter and forward output bit for bit."""
        config = TrainConfig(epochs=3, batch_size=32, learning_rate=1e-2, seed=6)
        net, _ = train(blobs_2d, [2, 7, 4, 1], config)
        save_model(net, tmp_path / "m.json")
        X = blobs_2d.features
        for copy in (load_model(tmp_path / "m.json"), pickle.loads(pickle.dumps(net))):
            for got, want in zip(copy.weights + copy.biases, net.weights + net.biases):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(copy(X), net(X))

    def test_target_accuracy_outside_unit_interval_rejected(self):
        for target in (3.0, -0.1, float("nan")):
            with pytest.raises(ModelError, match="target_train_accuracy"):
                TrainConfig(target_train_accuracy=target)

    def test_zero_epochs_is_noop(self, blobs_2d):
        config = TrainConfig(epochs=0, seed=7)
        model, report = train(blobs_2d, [2, 3, 1], config)
        reference = init_model([2, 3, 1], seed=7)
        for w, v in zip(model.weights, reference.weights):
            np.testing.assert_array_equal(w, v)
        assert report.epoch_accuracy == []
        assert report.epochs_run == 0

    def test_tiny_1d_dataset_trains(self):
        ds = LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
        config = TrainConfig(epochs=2000, batch_size=2, learning_rate=0.1,
                             seed=1, optimizer="adam", target_train_accuracy=1.0)
        _, report = train(ds, [1, 1], config)
        assert report.final_accuracy == 1.0

    def test_fixed_seed_bit_reproducible(self, blobs_2d):
        config = TrainConfig(epochs=5, batch_size=32, learning_rate=1e-2, seed=21)
        m1, _ = train(blobs_2d, [2, 4, 1], config)
        m2, _ = train(blobs_2d, [2, 4, 1], config)
        for w, v in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w, v)

    def test_dimension_mismatch(self, blobs_2d):
        with pytest.raises(ModelError, match="dimension"):
            train(blobs_2d, [3, 1], TrainConfig(epochs=1))

    def test_dropout_changes_training_not_evaluation(self, blobs_2d):
        base = TrainConfig(epochs=5, batch_size=32, learning_rate=1e-2, seed=8)
        with_dropout = TrainConfig(epochs=5, batch_size=32, learning_rate=1e-2,
                                   seed=8, dropout_rates=(0.5,))
        m_plain, _ = train(blobs_2d, [2, 8, 1], base)
        m_drop, _ = train(blobs_2d, [2, 8, 1], with_dropout)
        # training trajectories differ
        assert any(not np.array_equal(a, b)
                   for a, b in zip(m_plain.weights, m_drop.weights))
        # but evaluation-mode forward of one fixed model ignores dropout config
        X = blobs_2d.features[:10]
        np.testing.assert_array_equal(m_drop(X), m_drop(X))

    def test_divergence_reported_with_epoch(self, blobs_2d):
        from dbcscore import TrainingDiverged
        config = TrainConfig(epochs=50, batch_size=400, learning_rate=1e12,
                             seed=0, optimizer="sgd")
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            train(blobs_2d, [2, 8, 1], config)
        assert err.value.epoch >= 0

    @pytest.mark.parametrize("logit,label", [(math.inf, 1), (-math.inf, 0),
                                             (math.inf, 0), (math.nan, 1)])
    def test_non_finite_logit_diverges_at_its_epoch(self, monkeypatch, logit, label):
        """One step whose logit is infinite or NaN raises TrainingDiverged
        naming that step's epoch, even where its row's exact loss is 0 (an
        infinite logit on the row's own side), which the clip on
        probabilities turned into a finite loss."""
        from dbcscore import TrainingDiverged
        ds = make_blobs(per_class=3, dimension=2, center_distance=4.0,
                        spread=1.0, seed=33)
        config = TrainConfig(epochs=5, batch_size=1, learning_rate=1e-2, seed=3)
        real = model_module.batch_gradients
        steps = []

        def poisoned(model, X, y, *args, **kwargs):
            steps.append(int(y[0]))
            # the first step of epoch 2 (six steps an epoch) on a row of `label`
            if len(steps) > 12 and steps[12:].count(label) == 1 and y[0] == label:
                bias = model.biases[-1][0]
                model.biases[-1][0] = logit
                try:
                    return real(model, X, y, *args, **kwargs)
                finally:
                    model.biases[-1][0] = bias
            return real(model, X, y, *args, **kwargs)

        monkeypatch.setattr(model_module, "batch_gradients", poisoned)
        with pytest.raises(TrainingDiverged) as err:
            train(ds, [2, 4, 1], config)
        assert err.value.epoch == 2

    def test_steps_allocate_no_parameter_sized_array(self, monkeypatch):
        """From one call of batch_gradients to the next, a step (its
        backprop, its optimizer update and the next row) allocates less
        than a quarter of the parameter array: no per-step copy of the
        gradients or the parameters, and no update temporary the size of an
        update chunk. One-row batches keep the rows that the caller copies
        and frees within each window small beside that bound."""
        sizes = [3000, 30, 1]
        nbytes = 8 * init_model(sizes, seed=0).parameter_count()
        assert nbytes > 700_000 and 8 * model_module._UPDATE_CHUNK > nbytes // 4
        ds = make_blobs(per_class=10, dimension=3000, center_distance=3.0,
                        spread=1.0, seed=34)
        real = model_module.batch_gradients
        peaks = []

        def measured(*args, **kwargs):
            # peaks[-1] holds the traced bytes at the previous call until
            # this call turns it into that window's peak above them
            peak = tracemalloc.get_traced_memory()[1]
            if peaks:
                peaks[-1] = peak - peaks[-1]
            tracemalloc.reset_peak()
            peaks.append(tracemalloc.get_traced_memory()[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "batch_gradients", measured)
        for optimizer in ("adam", "sgd"):
            peaks.clear()
            tracemalloc.start()
            try:
                train(ds, sizes, TrainConfig(epochs=2, batch_size=1, seed=5,
                                             optimizer=optimizer))
            finally:
                tracemalloc.stop()
            steps = peaks[:-1]
            assert len(steps) == 39
            assert max(steps) < nbytes // 4, (optimizer, max(steps), nbytes)


def exact_bce(z, y, clip):
    """Oracle: mean binary cross-entropy of sigmoid(z) against 0/1 labels y
    in 50-digit decimal arithmetic, each row's loss ln(1 + e^s) with
    s = (1 - 2y) z; with ``clip``, as the loss once was, every probability
    is first clipped to [1e-12, 1 - 1e-12]."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        floor = decimal.Decimal("1e-12")
        total = decimal.Decimal(0)
        for zi, yi in zip(z, y):
            x = (decimal.Decimal(float(zi)) * (1 - 2 * int(yi))).exp()
            # ln(1 + x) by its series where 1 + x would round x away
            loss = x - x * x / 2 + x ** 3 / 3 if x < 1e-20 else (1 + x).ln()
            if clip:
                # the probability of the row's own label is e^-loss
                loss = min(max(loss, -(1 - floor).ln()), -floor.ln())
            total += loss
        return float(total / len(z))


class TestLoss:
    @staticmethod
    def logit_model():
        """A [1, 1] net whose logit is its input."""
        return MlpModel([1, 1], [np.array([[1.0]])], [np.array([0.0])])

    @pytest.mark.parametrize("label", [0, 1])
    def test_matches_clipped_bce_inside_the_clip(self, label):
        """Wherever p = sigmoid(z) lies in [1e-12, 1 - 1e-12] the clip did
        nothing, and the loss from the logits equals the old clipped BCE
        to 1e-12 relative, row by row and as a batch mean."""
        model = self.logit_model()
        z = np.concatenate([np.linspace(-27.6, 27.6, 277), [-1e-9, 0.0, 1e-9]])
        assert sigmoid(z).min() >= 1e-12 and sigmoid(z).max() <= 1.0 - 1e-12
        y = np.full(z.size, float(label))
        for zi, yi in zip(z, y):
            got = batch_loss(model, [[zi]], [yi])
            assert got == pytest.approx(exact_bce([zi], [yi], clip=True), rel=1e-12)
        mixed = np.arange(z.size) % 2
        assert batch_loss(model, z[:, None], mixed) == pytest.approx(
            exact_bce(z, mixed, clip=True), rel=1e-12)

    def test_exact_and_finite_far_outside_the_clip(self):
        """For |z| up to 700 the loss stays finite and exact, where the clip
        capped a wrong label's loss near 27.63 and floored a right one's
        at 1e-12; batch_gradients returns the same loss."""
        model = self.logit_model()
        z = np.concatenate([-np.geomspace(700.0, 28.0, 40), np.geomspace(28.0, 700.0, 40)])
        for label in (0.0, 1.0):
            y = np.full(z.size, label)
            for zi, yi in zip(z, y):
                got = batch_loss(model, [[zi]], [yi])
                assert math.isfinite(got)
                assert got == pytest.approx(exact_bce([zi], [yi], clip=False), rel=1e-12)
            got = batch_loss(model, z[:, None], y)
            assert got == pytest.approx(exact_bce(z, y, clip=False), rel=1e-12)
            assert got == batch_gradients(model, z[:, None], y)[2]
        assert batch_loss(model, [[700.0]], [0.0]) == pytest.approx(700.0, rel=1e-15)
        assert exact_bce([700.0], [0.0], clip=True) == pytest.approx(-math.log(1e-12))


class TestSaveLoad:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_model([3, 5, 1], seed=13)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 3))
        np.testing.assert_array_equal(model(X), loaded(X))

    def test_mismatched_shape_rejected(self, tmp_path):
        model = init_model([2, 2, 1], seed=0)
        path = tmp_path / "m.json"
        save_model(model, path)
        import json
        doc = json.loads(path.read_text())
        doc["weights"][0] = [[1.0, 2.0, 3.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="chain"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = init_model([2, 2, 1], seed=0)
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        with pytest.raises(ModelError, match="malformed"):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": "other/9"}')
        with pytest.raises(ModelError, match="version"):
            load_model(path)


class TestSigmoid:
    def test_range_and_symmetry(self):
        z = np.linspace(-800, 800, 4001)
        s = sigmoid(z)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        np.testing.assert_allclose(s + sigmoid(-z), 1.0, atol=1e-12)
