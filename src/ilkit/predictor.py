"""Baseline property predictors.

Two trainable models over the 89-float system feature layout: closed-form
ridge regression and a small feedforward network trained by mini-batch
gradient descent with hand-written backpropagation. Both standardize
features on the training set and are fully deterministic for a fixed seed.
A newline-delimited-JSON child-process protocol lets an externally trained
model serve predictions to the screening loops.
"""

from __future__ import annotations

import json
import math
import select
import shlex
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import PSEUDO_LABEL_LENGTH, SystemRecord, build_pseudo_labels
from .errors import (
    ConfigError,
    ExternalPredictorError,
    PredictionError,
    TrainingError,
)

LAYOUT_TAG = f"system-features/v1/{PSEUDO_LABEL_LENGTH}"
MODEL_SCHEMA_VERSION = 1
PROTOCOL_SCHEMA_VERSION = 1


def finite_number(value) -> float:
    """A JSON number that is no bool and is finite, as a float."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"value {value!r} is not a finite number")
    return float(value)


def featurize_record(record: SystemRecord) -> np.ndarray:
    """Input features for one record (identical layout to the pseudo-labels)."""
    return np.asarray(build_pseudo_labels(record), dtype=float)


def featurize_records(records) -> np.ndarray:
    return np.stack([featurize_record(r) for r in records])


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray

    @staticmethod
    def fit(X: np.ndarray) -> "Standardizer":
        mean = X.mean(axis=0)
        # Constant columns pass through; their std can be the mean's rounding residue.
        scale = np.where(np.ptp(X, axis=0) > 0, X.std(axis=0), 1.0)
        return Standardizer(mean, scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale

    def inverse(self, Z: np.ndarray) -> np.ndarray:
        return Z * self.scale + self.mean


@dataclass(frozen=True)
class RidgeModel:
    property: str
    standardizer: Standardizer
    weights: np.ndarray  # in standardized feature space
    bias: float
    lam: float
    layout: str = LAYOUT_TAG

    def predict_features(self, X: np.ndarray) -> np.ndarray:
        Z = self.standardizer.transform(np.atleast_2d(X))
        return Z @ self.weights + self.bias

    def coefficients(self) -> tuple[np.ndarray, float]:
        """Weights and bias mapped back to raw feature space."""
        w = self.weights / self.standardizer.scale
        b = self.bias - float(np.dot(self.weights, self.standardizer.mean / self.standardizer.scale))
        return w, b

    def to_json_dict(self) -> dict:
        return {
            **_model_header("ridge", self),
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "lambda": self.lam,
        }


def train_ridge(X, y, lam: float, property_name: str = "") -> RidgeModel:
    """Minimize ||Zw + b - y||^2 + lam*||w||^2 by the normal equations on
    standardized features; the bias is the target mean and is unpenalized."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y) or len(y) < 1:
        raise TrainingError("X must be 2-D with one target per row")
    if not (np.isfinite(lam) and lam >= 0):
        raise TrainingError(f"lambda must be finite and >= 0, not {lam}")
    std = Standardizer.fit(X)
    Z = std.transform(X)
    y_mean = float(y.mean())
    A = Z.T @ Z + lam * np.eye(Z.shape[1])
    rhs = Z.T @ (y - y_mean)
    try:
        w = np.linalg.solve(A, rhs)
        w += np.linalg.solve(A, rhs - A @ w)  # one refinement step tightens the residual
    except np.linalg.LinAlgError as exc:
        raise TrainingError(
            f"normal equations are singular ({exc}); use lambda > 0"
        ) from exc
    residual = float(np.max(np.abs(A @ w - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if residual > 1e-6 * scale:
        raise TrainingError(
            f"normal equations ill-conditioned (residual {residual:.3g}); use lambda > 0"
        )
    return RidgeModel(property_name, std, w, y_mean, lam)


@dataclass(frozen=True)
class MLPConfig:
    hidden: tuple[int, ...] = (128, 64)
    activation: str = "tanh"
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0

    def validate(self) -> None:
        if self.activation not in ("tanh", "relu"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, not {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size >= 1 and epochs >= 0 required")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden layer sizes must be >= 1")


@dataclass
class MLPModel:
    property: str
    standardizer: Standardizer
    layer_sizes: tuple[int, ...]
    activation: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss_trace: list[float] = field(default_factory=list)
    layout: str = LAYOUT_TAG

    def _act(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x) if self.activation == "tanh" else np.maximum(x, 0.0)

    def _layers(self, Z: np.ndarray):
        """(activations from Z on, output) of one forward pass."""
        acts = [Z]
        for k in range(len(self.weights) - 1):
            acts.append(self._act(acts[-1] @ self.weights[k] + self.biases[k]))
        return acts, (acts[-1] @ self.weights[-1] + self.biases[-1]).ravel()

    def forward(self, Z: np.ndarray) -> np.ndarray:
        return self._layers(Z)[1]

    def predict_features(self, X: np.ndarray) -> np.ndarray:
        return self.forward(self.standardizer.transform(np.atleast_2d(X)))

    def loss_and_gradients(self, Z: np.ndarray, y: np.ndarray):
        """Mean-squared-error loss and gradients for standardized inputs."""
        acts, out = self._layers(Z)
        err = out - y
        loss = float(np.mean(err**2))

        d_pre = (2.0 / len(y)) * err[:, None]
        grads_w = [acts[-1].T @ d_pre]
        grads_b = [d_pre.sum(axis=0)]
        for k in range(len(self.weights) - 2, -1, -1):
            # tanh' = 1 - tanh^2 and relu' = (relu > 0), from the layer's output.
            t = acts[k + 1]
            d_act = 1.0 - t * t if self.activation == "tanh" else t > 0
            d_pre = (d_pre @ self.weights[k + 1].T) * d_act
            grads_w.insert(0, acts[k].T @ d_pre)
            grads_b.insert(0, d_pre.sum(axis=0))
        return loss, grads_w, grads_b

    def to_json_dict(self) -> dict:
        return {
            **_model_header("mlp", self),
            "layer_sizes": list(self.layer_sizes),
            "activation": self.activation,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }


def _init_mlp(n_features: int, config: MLPConfig, property_name: str, std: Standardizer) -> MLPModel:
    sizes = (n_features, *config.hidden, 1)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        # Biases drawn too: zero biases put relu pre-activations exactly on
        # the kink whenever an upstream layer dies, which breaks gradient
        # checks and wastes units.
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MLPModel(property_name, std, sizes, config.activation, weights, biases)


def train_mlp(X, y, config: MLPConfig, property_name: str = "") -> MLPModel:
    """Mini-batch gradient descent on MSE; returns the epoch-final model with
    its loss trace (entry 0 is the pre-training loss)."""
    config.validate()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError("X must be 2-D with one target per row")
    if len(y) < config.batch_size:
        raise TrainingError(
            f"batch_size {config.batch_size} exceeds the {len(y)} training samples"
        )
    std = Standardizer.fit(X)
    Z = std.transform(X)
    model = _init_mlp(X.shape[1], config, property_name, std)
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))

    def full_loss() -> float:
        return float(np.mean((model.forward(Z) - y) ** 2))

    model.loss_trace.append(full_loss())
    n = len(y)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            _loss, grads_w, grads_b = model.loss_and_gradients(Z[idx], y[idx])
            for k in range(len(model.weights)):
                model.weights[k] -= config.learning_rate * grads_w[k]
                model.biases[k] -= config.learning_rate * grads_b[k]
        epoch_loss = full_loss()
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"training diverged at epoch {epoch + 1} (loss={epoch_loss})")
        model.loss_trace.append(epoch_loss)
    return model


def predict(model, record: SystemRecord) -> float:
    """Single-record prediction; the model must match the record's property."""
    if record.property is not None and model.property and record.property != model.property:
        raise PredictionError(
            f"model predicts {model.property}, record carries {record.property}"
        )
    if model.layout != LAYOUT_TAG:
        raise PredictionError(f"model layout {model.layout!r} != expected {LAYOUT_TAG!r}")
    n = len(model.standardizer.mean)
    if n != PSEUDO_LABEL_LENGTH:
        raise PredictionError(f"model takes {n} features, its layout has {PSEUDO_LABEL_LENGTH}")
    return float(model.predict_features(featurize_record(record))[0])


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model.to_json_dict(), fh)


def _model_header(kind: str, model) -> dict:
    """The JSON fields both model kinds share, in file order."""
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": kind,
        "property": model.property,
        "layout": model.layout,
        "mean": model.standardizer.mean.tolist(),
        "scale": model.standardizer.scale.tolist(),
    }


def _array(value, name: str, shape: tuple) -> np.ndarray:
    array = np.asarray(value, dtype=float)
    if array.shape != shape:
        raise ValueError(f"model {name} has shape {array.shape}, not {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"model {name} holds a value that is not a finite number")
    return array


def load_model(path):
    """The model saved at ``path``; a file that is not one whole model is a
    ConfigError naming ``path``."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        version = obj.get("schema_version")
        if type(version) is not int or version != MODEL_SCHEMA_VERSION:  # True == 1.0 == 1
            raise ValueError(f"unsupported model schema_version {version}")
        n = len(obj["mean"])
        std = Standardizer(_array(obj["mean"], "mean", (n,)), _array(obj["scale"], "scale", (n,)))
        if obj["kind"] == "ridge":
            return RidgeModel(
                obj["property"], std, _array(obj["weights"], "weights", (n,)),
                float(_array(obj["bias"], "bias", ())), float(_array(obj["lambda"], "lambda", ())),
                layout=obj["layout"],
            )
        if obj["kind"] == "mlp":
            sizes = tuple(obj["layer_sizes"])
            shapes = list(zip(sizes[:-1], sizes[1:]))
            if sizes[0] != n or sizes[-1] != 1 or obj["activation"] not in ("tanh", "relu"):
                raise ValueError(f"bad layer_sizes {sizes} or activation {obj['activation']!r}")
            weights, biases = obj["weights"], obj["biases"]
            if len(weights) != len(shapes) or len(biases) != len(shapes):
                raise ValueError(f"model needs {len(shapes)} weight matrices and bias vectors")
            return MLPModel(
                obj["property"], std, sizes, obj["activation"],
                [_array(w, "weights", shape) for w, shape in zip(weights, shapes)],
                [_array(b, "biases", shape[1:]) for b, shape in zip(biases, shapes)],
                layout=obj["layout"],
            )
        raise ValueError(f"unknown model kind {obj['kind']!r}")
    except KeyError as exc:
        raise ConfigError(f"{path}: model file has no {exc}") from None
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"{path}: malformed model file: {exc}") from None


class ExternalPredictor:
    """Child-process predictor speaking newline-delimited JSON.

    One request ``{"schema_version": 1, "record": {...}}`` per line on the
    child's stdin, one ``{"value": <finite number>}`` per line on its stdout, strictly
    in order with a single request in flight. The child lives for one
    ``with`` block. Calling the instance on a record sends the next request;
    errors name its 0-based index among all requests sent to this child.
    """

    def __init__(self, command: str | list[str], timeout: float = 10.0):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._buffer = b""
        self._sent = 0

    def __enter__(self) -> "ExternalPredictor":
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise ExternalPredictorError(f"cannot start predictor {self.command}: {exc}") from exc
        return self

    def __exit__(self, *exc) -> None:
        for stream in (self._proc.stdin, self._proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._proc.terminate()
        self._proc.wait()
        self._proc = None

    def _exit_code(self) -> int | None:
        """The child's exit code, waiting briefly for a child that is exiting."""
        try:
            return self._proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            return None

    def _read_line(self, index: int) -> bytes:
        deadline = time.monotonic() + self.timeout
        stdout = self._proc.stdout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExternalPredictorError(
                    f"record {index}: no response within {self.timeout}s"
                )
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            chunk = stdout.read(65536)
            if not chunk:
                raise ExternalPredictorError(
                    f"record {index}: predictor process closed stdout "
                    f"(exit code {self._exit_code()})"
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def __call__(self, record: SystemRecord) -> float:
        if self._proc is None:
            raise ExternalPredictorError("predictor process is not running")
        index = self._sent
        self._sent += 1
        request = json.dumps(
            {"schema_version": PROTOCOL_SCHEMA_VERSION, "record": record.to_json_dict()}
        )
        try:
            self._proc.stdin.write(request.encode() + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ExternalPredictorError(
                f"record {index}: predictor process exited (code {self._exit_code()})"
            ) from exc
        line = self._read_line(index)
        try:
            return finite_number(json.loads(line)["value"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ExternalPredictorError(
                f"record {index}: malformed response {line[:200]!r}"
            ) from exc


def external_predict(command: str | list[str], records, timeout: float = 10.0) -> list[float]:
    """Run the child-process protocol over all records, strictly in order."""
    with ExternalPredictor(command, timeout=timeout) as pred:
        return [pred(rec) for rec in records]
