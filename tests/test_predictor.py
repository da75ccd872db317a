import hashlib
import json
import sys

import numpy as np
import pytest

from ilkit.datasets import SystemRecord, validate_record
from ilkit.errors import (
    ConfigError,
    ExternalPredictorError,
    PredictionError,
    TrainingError,
)
from ilkit.predictor import (
    MLPConfig,
    RidgeModel,
    Standardizer,
    external_predict,
    featurize_record,
    load_model,
    predict,
    save_model,
    train_mlp,
    train_ridge,
)

EMIM = "CCn1cc[n+](C)c1"
TF2N = "O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F"
CO2 = "O=C=O"


def _record(temperature=298.15):
    return validate_record(
        SystemRecord(
            category="il_solute", cation=EMIM, anion=TF2N, solute=CO2,
            temperature=temperature,
        )
    )


def test_featurize_record_deterministic():
    rec = _record()
    a = featurize_record(rec)
    b = featurize_record(rec)
    assert np.array_equal(a, b)
    assert a.shape == (89,)


def test_temperature_only_changes_index_84():
    a = featurize_record(_record(298.15))
    b = featurize_record(_record(350.0))
    diff = np.nonzero(a != b)[0]
    assert list(diff) == [84]


def test_il_bulk_record_zero_slots():
    rec = validate_record(
        SystemRecord(category="il_bulk_with_T", cation=EMIM, anion=TF2N, temperature=298.15)
    )
    x = featurize_record(rec)
    assert np.all(x[42:84] == 0.0)


def _planted_linear(n=60, d=5, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.normal(size=(n, d))
    y = 3.0 * X[:, 1] + 1.0
    return X, y


def test_ridge_recovers_planted_coefficients():
    X, y = _planted_linear()
    model = train_ridge(X, y, lam=0.0)
    w, b = model.coefficients()
    assert w[1] == pytest.approx(3.0, abs=1e-6)
    assert b == pytest.approx(1.0, abs=1e-6)
    for wi in np.delete(w, 1):
        assert wi == pytest.approx(0.0, abs=1e-6)
    assert model.predict_features(X) == pytest.approx(y, abs=1e-6)


def test_ridge_huge_lambda_collapses_to_mean():
    X, y = _planted_linear()
    model = train_ridge(X, y, lam=1e9)
    assert np.max(np.abs(model.weights)) < 1e-3
    assert model.predict_features(X) == pytest.approx(np.full_like(y, y.mean()), abs=1e-3)


def test_ridge_single_sample():
    model = train_ridge(np.array([[1.0, 2.0]]), np.array([7.0]), lam=1.0)
    assert model.predict_features(np.array([[1.0, 2.0]]))[0] == pytest.approx(7.0)


def test_ridge_singular_without_penalty():
    X = np.zeros((4, 3))
    X[:, 0] = [1, 2, 3, 4]
    X[:, 1] = [2, 4, 6, 8]  # duplicated direction after standardization
    y = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(TrainingError, match="lambda > 0"):
        train_ridge(X, y, lam=0.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_ridge_rejects_a_penalty_that_is_not_finite_and_nonnegative(lam):
    X, y = _planted_linear(n=20, d=3, seed=1)
    with pytest.raises(TrainingError, match=f"lambda must be finite and >= 0, not {lam}"):
        train_ridge(X, y, lam=lam)


def test_ridge_normal_equation_residual():
    X, y = _planted_linear(n=200, d=12, seed=3)
    for lam in (0.0, 0.5, 10.0):
        model = train_ridge(X, y, lam=lam)
        Z = model.standardizer.transform(X)
        A = Z.T @ Z + lam * np.eye(Z.shape[1])
        rhs = Z.T @ (y - y.mean())
        assert np.max(np.abs(A @ model.weights - rhs)) < 1e-8


def test_standardizer_roundtrip():
    rng = np.random.Generator(np.random.PCG64(8))
    X = rng.normal(size=(50, 7)) * 100 + 3
    std = Standardizer.fit(X)
    assert np.max(np.abs(std.inverse(std.transform(X)) - X)) < 1e-12


def test_standardizer_passes_constant_columns_through():
    # The std of 61 copies of 8.81 is 1.8e-15, the rounding residue of the mean.
    X = np.column_stack([np.full(61, 8.81), np.arange(61.0)])
    assert X.std(axis=0)[0] > 0
    std = Standardizer.fit(X)
    assert std.scale[0] == 1.0
    assert abs(std.transform(np.array([[9.0, 0.0]]))[0, 0] - 0.19) < 1e-12


def test_mlp_zero_epochs_returns_initialization():
    X, y = _planted_linear()
    cfg = MLPConfig(hidden=(8,), epochs=0, batch_size=16, seed=5)
    a = train_mlp(X, y, cfg)
    b = train_mlp(X, y, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert len(a.loss_trace) == 1


def test_mlp_recovers_planted_linear():
    X, y = _planted_linear(n=200, d=4, seed=2)
    cfg = MLPConfig(hidden=(), learning_rate=0.05, batch_size=200, epochs=500, seed=1)
    model = train_mlp(X, y, cfg)
    pred = model.predict_features(X)
    assert np.max(np.abs(pred - y)) < 1e-3


def test_mlp_deterministic():
    X, y = _planted_linear(seed=9)
    cfg = MLPConfig(hidden=(16, 8), epochs=5, batch_size=16, seed=33)
    a = train_mlp(X, y, cfg)
    b = train_mlp(X, y, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert a.loss_trace == b.loss_trace


def test_mlp_full_batch_loss_monotone_on_convex_task():
    X, y = _planted_linear(n=100, d=3, seed=4)
    cfg = MLPConfig(hidden=(), learning_rate=1e-3, batch_size=100, epochs=100, seed=2)
    model = train_mlp(X, y, cfg)
    trace = model.loss_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_divergence_reports_epoch():
    X, y = _planted_linear(n=64, d=4, seed=6)
    cfg = MLPConfig(hidden=(8,), learning_rate=50.0, batch_size=8, epochs=30, seed=3)
    with pytest.raises(TrainingError, match="epoch"):
        train_mlp(X, y * 1e6, cfg)


def test_gradients_match_finite_differences():
    rng = np.random.Generator(np.random.PCG64(12))
    for trial in range(12):
        d = int(rng.integers(2, 6))
        hidden = tuple(int(h) for h in rng.integers(2, 5, size=int(rng.integers(1, 3))))
        activation = "tanh" if trial % 2 == 0 else "relu"
        cfg = MLPConfig(hidden=hidden, activation=activation, epochs=0, batch_size=3, seed=trial)
        X = rng.normal(size=(3, d))
        y = rng.normal(size=3)
        model = train_mlp(X, y, cfg)
        Z = model.standardizer.transform(X)
        _, grads_w, grads_b = model.loss_and_gradients(Z, y)
        h = 1e-5
        for k in range(len(model.weights)):
            for index in np.ndindex(model.weights[k].shape):
                orig = model.weights[k][index]
                model.weights[k][index] = orig + h
                lp, _, _ = model.loss_and_gradients(Z, y)
                model.weights[k][index] = orig - h
                lm, _, _ = model.loss_and_gradients(Z, y)
                model.weights[k][index] = orig
                fd = (lp - lm) / (2 * h)
                scale = max(abs(fd), abs(grads_w[k][index]), 1e-8)
                assert abs(fd - grads_w[k][index]) / scale < 1e-4


# sha256 of the weights, biases and loss trace after training on a seeded
# 200x7 problem, per (activation, hidden layers). A change to initialization,
# the forward pass or backpropagation that moves any bit fails here.
MLP_TRAINING_SHA256 = {
    ("tanh", ()): "9ebaec2e293a006ae2d069c3da0aa21eec60065dac9c8d1b334a914e0ca24f5b",
    ("tanh", (8,)): "89339badfbdd6b9ed7f4b1d98c5cf39c2de5110bee79cab4a420bc2f4ceb731f",
    ("tanh", (8, 4)): "6fd1b68aac0ac8fc37b520b575cc0fae5f300342c028c47908d38f5957c19fcc",
    ("tanh", (6, 5, 3)): "976dd75f679b9af770b9818e0fc432d3a70d861c51e0252a28dfdb8ea383fa67",
    ("relu", ()): "9ebaec2e293a006ae2d069c3da0aa21eec60065dac9c8d1b334a914e0ca24f5b",
    ("relu", (8,)): "1bf31277be15f385097e768d9ccd83e4d27da1dc832ddf3b6bbcd91184446d0f",
    ("relu", (8, 4)): "9b1e6b033d3aa47898bd07f5b4977596ce562129287a2b9ff7699ac11ee28f4b",
    ("relu", (6, 5, 3)): "29a26ed9ac078349bdc49b948c0e74c408db25c25d4c4206df6f7210e07ddbeb",
}


@pytest.mark.parametrize("activation, hidden", sorted(MLP_TRAINING_SHA256))
def test_mlp_training_equals_pinned_digest(activation, hidden):
    rng = np.random.Generator(np.random.PCG64(14))
    X = rng.normal(size=(200, 7))
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=200)
    cfg = MLPConfig(
        hidden=hidden, activation=activation, learning_rate=1e-2, batch_size=16, epochs=4, seed=5
    )
    model = train_mlp(X, y, cfg)
    h = hashlib.sha256()
    for array in [*model.weights, *model.biases, np.asarray(model.loss_trace)]:
        h.update(array.tobytes())
    assert h.hexdigest() == MLP_TRAINING_SHA256[activation, hidden]


def test_predict_property_mismatch():
    X, y = _planted_linear()
    model = train_ridge(X[:, :89] if X.shape[1] >= 89 else np.pad(X, ((0, 0), (0, 89 - X.shape[1]))), y, 1.0, "mass_density")
    rec = validate_record(
        SystemRecord(
            category="il_solute", cation=EMIM, anion=TF2N, solute=CO2,
            temperature=298.15, property="solvation_dg", value=-1.0,
        )
    )
    with pytest.raises(PredictionError):
        predict(model, rec)


def test_predict_constant_model():
    std = Standardizer(np.zeros(89), np.ones(89))
    model = RidgeModel("solvation_dg", std, np.zeros(89), 2.5, 1.0)
    assert predict(model, _record()) == 2.5


def test_model_json_roundtrip(tmp_path):
    X, y = _planted_linear()
    ridge = train_ridge(np.pad(X, ((0, 0), (0, 89 - X.shape[1]))), y, 0.3, "solvation_dg")
    path = tmp_path / "model.json"
    save_model(ridge, path)
    again = load_model(path)
    assert again.property == "solvation_dg"
    assert np.allclose(again.weights, ridge.weights)
    mlp = train_mlp(X, y, MLPConfig(hidden=(6,), epochs=2, batch_size=16, seed=1), "solvation_dg")
    save_model(mlp, tmp_path / "mlp.json")
    again = load_model(tmp_path / "mlp.json")
    assert np.allclose(again.predict_features(X), mlp.predict_features(X))


@pytest.mark.parametrize("version", [True, 1.0])
def test_model_json_schema_version_must_be_the_int_1(tmp_path, version):
    std = Standardizer(np.zeros(89), np.ones(89))
    path = tmp_path / "model.json"
    save_model(RidgeModel("solvation_dg", std, np.zeros(89), 2.5, 1.0), path)
    obj = json.loads(path.read_text())
    obj["schema_version"] = version
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="unsupported model schema_version"):
        load_model(path)


_ECHO_ZERO = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    json.loads(line)\n"
    "    print(json.dumps({'value': 0.0}), flush=True)\n"
)

_ECHO_TEMPERATURE = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    print(json.dumps({'value': req['record']['temperature_K']}), flush=True)\n"
)

_BAD_THIRD = (
    "import sys, json\n"
    "for i, line in enumerate(sys.stdin):\n"
    "    if i == 3:\n"
    "        print('not json', flush=True)\n"
    "    else:\n"
    "        print(json.dumps({'value': 1.0}), flush=True)\n"
)


def _records(n):
    return [_record(temperature=290.0 + i) for i in range(n)]


def test_external_echo_zero():
    values = external_predict([sys.executable, "-c", _ECHO_ZERO], _records(4))
    assert values == [0.0, 0.0, 0.0, 0.0]


def test_external_returns_temperatures():
    records = _records(3)
    values = external_predict([sys.executable, "-c", _ECHO_TEMPERATURE], records)
    assert values == [r.temperature for r in records]


def test_external_malformed_response_names_record():
    with pytest.raises(ExternalPredictorError, match="record 3"):
        external_predict([sys.executable, "-c", _BAD_THIRD], _records(5))


# Answers 1.0 to the first request and its first argument to the second.
_ANSWER_SECOND = (
    "import sys\n"
    "for i, line in enumerate(sys.stdin):\n"
    "    print(sys.argv[1] if i == 1 else '{\"value\": 1.0}', flush=True)\n"
)


@pytest.mark.parametrize(
    "answer", ['{"value": NaN}', '{"value": Infinity}', '{"value": true}', '{"value": "1.5"}']
)
def test_external_value_that_is_not_a_finite_number_is_malformed(answer):
    with pytest.raises(ExternalPredictorError) as info:
        external_predict([sys.executable, "-c", _ANSWER_SECOND, answer], _records(3))
    assert str(info.value) == f"record 1: malformed response {answer.encode()!r}"


def test_external_process_exit_reported():
    with pytest.raises(ExternalPredictorError, match="record 0"):
        external_predict([sys.executable, "-c", "import sys; sys.exit(3)"], _records(2))


def test_external_timeout():
    slow = "import time, sys; sys.stdin.readline(); time.sleep(5)"
    with pytest.raises(ExternalPredictorError, match="no response"):
        external_predict([sys.executable, "-c", slow], _records(1), timeout=0.4)
