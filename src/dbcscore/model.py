"""Dense feed-forward binary classifiers with a scalar sigmoid head.

The model is the object under boundary analysis: a pure, deterministic
decision function mapping a feature vector to a probability in [0, 1].
Training runs plain batched backprop on binary cross-entropy with either
SGD or Adam; dropout uses inverted scaling during training so that
evaluation-mode forward passes never depend on the dropout configuration.

Evaluation and training share one layer loop, ``_forward_cached``.
Training holds every weight and bias in one flat float64 buffer and runs
one in-place optimizer update over it per step; a trained model's arrays
are reshaped views of that buffer. ``train`` rebinds ``model.weights[i]``
and ``model.biases[i]`` to those views once, before the first step, and
nothing else may rebind them while a training run is in progress.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODEL_FORMAT_VERSION = "dbc-model/1"

_HIDDEN_ACTIVATIONS = ("relu", "tanh")


class ModelError(ValueError):
    """Raised for malformed model definitions or model files."""


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


def sigmoid(z):
    """Numerically stable logistic function, output always in [0, 1]."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class MlpModel:
    """Fully-connected net: sizes [n, h1, ..., hL, 1], sigmoid output.

    ``weights[i]`` has shape (out_i, in_i) and ``biases[i]`` shape (out_i,).
    Instances are callable: a 1-D input yields a float, a 2-D batch of rows
    yields a 1-D array of probabilities.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "relu"

    def __post_init__(self):
        sizes = [int(s) for s in self.layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ModelError(f"layer_sizes must be >= 2 positive integers, got {sizes}")
        if sizes[-1] != 1:
            raise ModelError(f"output layer must have size 1, got {sizes[-1]}")
        if self.hidden_activation not in _HIDDEN_ACTIVATIONS:
            raise ModelError(f"hidden_activation must be one of {_HIDDEN_ACTIVATIONS}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ModelError("one weight matrix and bias vector required per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.shape != (sizes[i + 1], sizes[i]):
                raise ModelError(
                    f"layer {i} weight shape {w.shape} does not chain "
                    f"{sizes[i]} -> {sizes[i + 1]}"
                )
            if b.shape != (sizes[i + 1],):
                raise ModelError(f"layer {i} bias shape {b.shape}, expected ({sizes[i + 1]},)")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ModelError(f"layer {i} has non-finite parameters")
            self.weights[i] = w
            self.biases[i] = b
        self.layer_sizes = sizes

    @property
    def dimension(self) -> int:
        return self.layer_sizes[0]

    def parameter_count(self) -> int:
        """Total trainable parameters: sum of in*out + out over layers."""
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward(self, x):
        """Evaluation-mode forward pass; dropout never applies here."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        batch = x[None, :] if single else x
        if batch.ndim != 2 or batch.shape[1] != self.dimension:
            raise ModelError(
                f"input of shape {x.shape} does not match model dimension {self.dimension}"
            )
        if not np.isfinite(batch).all():
            raise ModelError("non-finite input to forward pass")
        p = sigmoid(_forward_cached(self, batch)[2])
        return float(p[0]) if single else p

    __call__ = forward

    def predict(self, x):
        """Hard labels: 1 on the f >= 0.5 side, else 0."""
        p = self.forward(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        return (p >= 0.5).astype(np.int64)


def init_model(layer_sizes, seed: int, hidden_activation: str = "relu") -> MlpModel:
    """Glorot-uniform weights in ±sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng([seed, 0])
    sizes = [int(s) for s in layer_sizes]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(sizes, weights, biases, hidden_activation)


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"
    dropout_rates: tuple[float, ...] = ()
    target_train_accuracy: float | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ModelError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ModelError("epochs must be >= 0 and batch_size >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ModelError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        for r in self.dropout_rates:
            if not 0.0 <= r < 1.0:
                raise ModelError(f"dropout rates must lie in [0, 1), got {r}")
        target = self.target_train_accuracy
        if target is not None and not 0.0 <= target <= 1.0:
            raise ModelError(f"target_train_accuracy must lie in [0, 1], got {target}")


@dataclass
class TrainReport:
    epoch_accuracy: list[float] = field(default_factory=list)
    epoch_loss: list[float] = field(default_factory=list)
    final_accuracy: float = float("nan")
    epochs_run: int = 0


def _forward_cached(model: MlpModel, X, dropout_masks=None):
    # inputs[i] is what layer i consumes (post-dropout); hidden[i] is the
    # pre-dropout activation of hidden layer i, needed for derivatives.
    # The bias and activation work in place on each matmul output: the
    # bits of h @ w.T + b without its temporary, and X is never written.
    h = X
    inputs = [h]
    hidden = []
    for i, (w, b) in enumerate(zip(model.weights[:-1], model.biases[:-1])):
        h = h @ w.T
        h += b
        if model.hidden_activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
        hidden.append(h)
        if dropout_masks is not None and dropout_masks[i] is not None:
            h = h * dropout_masks[i]
        inputs.append(h)
    logits = inputs[-1] @ model.weights[-1].T
    logits += model.biases[-1]
    return inputs, hidden, logits[:, 0]


def _bce(p, y) -> float:
    """Mean binary cross-entropy of probabilities p against labels y."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def batch_loss(model: MlpModel, X, y) -> float:
    """Mean binary cross-entropy of the evaluation-mode forward pass."""
    _, _, logits = _forward_cached(model, np.asarray(X, dtype=np.float64))
    return _bce(sigmoid(logits), np.asarray(y, dtype=np.float64))


def batch_gradients(model: MlpModel, X, y, dropout_masks=None):
    """Backprop gradients of mean BCE w.r.t. every weight and bias.

    Returns (grads_w, grads_b, loss). With ``dropout_masks`` given, the same
    masks scale activations on the forward and backward passes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    inputs, hidden, logits = _forward_cached(model, X, dropout_masks)
    p = sigmoid(logits)
    m = X.shape[0]
    loss = _bce(p, y)

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = ((p - y) / m)[:, None]
    grads_w[-1] = delta.T @ inputs[-1]
    grads_b[-1] = delta.sum(axis=0)
    for i in range(len(model.weights) - 2, -1, -1):
        delta = delta @ model.weights[i + 1]
        if dropout_masks is not None and dropout_masks[i] is not None:
            delta = delta * dropout_masks[i]
        if model.hidden_activation == "relu":
            delta = delta * (hidden[i] > 0)
        else:
            delta = delta * (1.0 - hidden[i] ** 2)
        grads_w[i] = delta.T @ inputs[i]
        grads_b[i] = delta.sum(axis=0)
    return grads_w, grads_b, loss


def train(dataset, layer_sizes, config: TrainConfig, hidden_activation: str = "relu"):
    """Fit an MLP on the dataset; returns (model, TrainReport).

    Deterministic for a fixed config seed: initialization, epoch shuffling
    and dropout masks each draw from fixed sub-streams of the seed. Training
    stops early once evaluation-mode train accuracy reaches
    ``target_train_accuracy``. Raises TrainingDiverged if the loss goes
    non-finite.
    """
    sizes = [int(s) for s in layer_sizes]
    if sizes[0] != dataset.dimension:
        raise ModelError(
            f"architecture input size {sizes[0]} does not match dataset dimension "
            f"{dataset.dimension}"
        )
    n_hidden = len(sizes) - 2
    rates = config.dropout_rates
    if rates and len(rates) == 1 and n_hidden > 1:
        rates = rates * n_hidden
    if rates and len(rates) != n_hidden:
        raise ModelError(
            f"{len(rates)} dropout rates given for {n_hidden} hidden layers"
        )

    model = init_model(sizes, config.seed, hidden_activation)
    report = TrainReport()
    if config.epochs == 0:
        return model, report

    shuffle_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])
    X = dataset.features
    y = dataset.labels.astype(np.float64)
    n = X.shape[0]

    # every weight and bias lives in one flat buffer; the model's arrays are
    # views of it, so one in-place update per step moves every layer
    arrays = model.weights + model.biases
    params = np.concatenate([a.ravel() for a in arrays])
    bounds = np.cumsum([a.size for a in arrays])[:-1]
    views = [part.reshape(a.shape) for part, a in zip(np.split(params, bounds), arrays)]
    n_layers = len(model.weights)
    model.weights[:] = views[:n_layers]
    model.biases[:] = views[n_layers:]
    grads, s, r = (np.empty_like(params) for _ in range(3))
    m, v = np.zeros_like(params), np.zeros_like(params)
    lr = config.learning_rate
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            # one mask per hidden layer, drawn in layer order; rate 0 draws none
            masks = [None if rate == 0.0 else
                     (dropout_rng.random((batch.size, size)) >= rate) / (1.0 - rate)
                     for size, rate in zip(sizes[1:-1], rates)] if rates else None
            grads_w, grads_b, loss = batch_gradients(model, X[batch], y[batch], masks)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch)
            epoch_losses.append(loss)
            t += 1
            np.concatenate([g.ravel() for g in grads_w + grads_b], out=grads)
            if config.optimizer == "sgd":
                np.multiply(lr, grads, out=s)
                params -= s
                continue
            # Adam, in the op order of lr * m_hat / (sqrt(v_hat) + eps) with
            # m_hat = m / (1 - beta1**t) and v_hat = v / (1 - beta2**t);
            # that order fixes the bits of every trained model
            m *= beta1
            np.multiply(1 - beta1, grads, out=s)
            m += s
            v *= beta2
            np.multiply(1 - beta2, grads, out=s)
            s *= grads
            v += s
            np.divide(m, 1 - beta1 ** t, out=s)
            np.divide(v, 1 - beta2 ** t, out=r)
            np.sqrt(r, out=r)
            r += eps
            s *= lr
            s /= r
            params -= s
        acc = float(np.mean(model.predict(X) == dataset.labels))
        report.epoch_accuracy.append(acc)
        report.epoch_loss.append(float(np.mean(epoch_losses)))
        report.epochs_run = epoch + 1
        if config.target_train_accuracy is not None and acc >= config.target_train_accuracy:
            break
    report.final_accuracy = report.epoch_accuracy[-1]
    return model, report


def save_model(model: MlpModel, path) -> None:
    """Write the model as JSON (version dbc-model/1), full float precision."""
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "layer_sizes": model.layer_sizes,
        "hidden_activation": model.hidden_activation,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_model(path) -> MlpModel:
    """Load a dbc-model/1 file; forward outputs round-trip bitwise."""
    path = Path(path)
    if not path.exists():
        raise ModelError(f"no such file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed model file {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("version") != MODEL_FORMAT_VERSION:
        raise ModelError(
            f"unsupported model file version {doc.get('version')!r} in {path}"
            if isinstance(doc, dict) else f"malformed model file {path}"
        )
    try:
        sizes = doc["layer_sizes"]
        weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
        activation = doc["hidden_activation"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model file {path}: {exc}") from None
    return MlpModel(sizes, weights, biases, activation)
