import gc
import math
import random

import numpy as np
import pytest

from ilkit.datasets import SystemRecord, generate_synthetic_systems, validate_record
from ilkit.errors import MetricError, SplitError
from ilkit.evalharness import (
    SCHEMES,
    cross_validate,
    group_key,
    kendall_tau,
    make_split,
    pearson_r,
    rank_aggregate,
    rmse,
)
from oracles.metrics_oracle import naive_tau_b

CATIONS = [f"CCCCn1cc[n+](C{'C' * i})c1" for i in range(10)]
ANIONS = ["O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F", "[S-]C#N", "N#C[N-]C#N",
          "N#C[C-](C#N)C#N", "N#C[B-](C#N)(C#N)C#N", "CCOP(=O)([O-])OCC"]
SOLUTES = ["O=C=O", "N", "CCO", "CC(C)O"]
SOLVENTS = ["O", "CCCCO", "CCO"]


def _bulk_records(n=40, seed=0):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        cation = CATIONS[i % len(CATIONS)]
        anion = ANIONS[i % len(ANIONS)]
        records.append(
            validate_record(
                SystemRecord(
                    category="il_bulk_with_T", cation=cation, anion=anion,
                    temperature=298.15, property="mass_density",
                    value=1.0 + 0.01 * rng.random(), source_id=str(i),
                )
            )
        )
    return records


def test_round_robin_balance():
    records = _bulk_records()
    plan = make_split(records, "cation", k=5, seed=1)
    counts = [0] * 5
    for _g, fold in plan.assignment.items():
        counts[fold] += 1
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == 10


def test_groups_never_split_across_folds():
    records = _bulk_records()
    plan = make_split(records, "cation", k=5, seed=1)
    fold_groups = [set() for _ in range(5)]
    for i, rec in enumerate(records):
        fold_groups[plan.fold_of(rec)].add(group_key(rec, "cation"))
    for a in range(5):
        for b in range(a + 1, 5):
            assert not (fold_groups[a] & fold_groups[b])


def test_split_deterministic():
    records = _bulk_records()
    assert make_split(records, "il_pair", k=4, seed=9) == make_split(records, "il_pair", k=4, seed=9)


def test_too_few_groups():
    records = _bulk_records()[:3]
    with pytest.raises(SplitError, match="fewer distinct groups"):
        make_split(records, "cation", k=5, seed=0)


def test_missing_role_for_scheme():
    records = _bulk_records()
    with pytest.raises(SplitError, match="solvent"):
        make_split(records, "solvent", k=2, seed=0)


def test_rmse_examples():
    assert rmse([1, 2], [1, 2]) == 0.0
    assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    base = [1.0, 5.0, -2.0]
    shifted = [x + 0.7 for x in base]
    assert rmse(shifted, base) == pytest.approx(0.7, abs=1e-12)


def test_pearson_examples():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(MetricError):
        pearson_r([1, 1, 1], [1, 2, 3])


def test_pearson_affine_invariance():
    rng = random.Random(5)
    x = [rng.random() for _ in range(30)]
    y = [rng.random() for _ in range(30)]
    r = pearson_r(x, y)
    assert pearson_r([3 * v + 1 for v in x], y) == pytest.approx(r, abs=1e-12)
    assert pearson_r(x, [0.5 * v - 2 for v in y]) == pytest.approx(r, abs=1e-12)


def test_kendall_examples():
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0
    assert kendall_tau([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(5 / math.sqrt(30), abs=1e-12)
    with pytest.raises(MetricError):
        kendall_tau([1, 1, 1], [1, 2, 3])


def test_kendall_matches_naive_oracle():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(2, 200)
        x = [rng.randint(0, 10) for _ in range(n)]
        y = [rng.randint(0, 10) for _ in range(n)]
        n0 = n * (n - 1) // 2
        from collections import Counter

        def ties(v):
            return sum(c * (c - 1) // 2 for c in Counter(v).values())

        if ties(x) == n0 or ties(y) == n0:
            continue
        assert kendall_tau(x, y) == pytest.approx(naive_tau_b(x, y), abs=1e-12)


def test_kendall_tau_leaves_no_cyclic_garbage():
    rng = random.Random(5)
    x = [rng.randint(0, 20) for _ in range(400)]
    y = [rng.random() for _ in range(400)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(10):
            kendall_tau(x, y)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class _ConstantModel:
    def __init__(self, value):
        self.value = value

    def predict_features(self, X):
        return np.full(len(X), self.value)


def _constant_trainer(X, y):
    return _ConstantModel(float(np.mean(y)))


def test_constant_predictor_fold_rmse_closed_form():
    # A constant predictor has undefined correlations, so the closed-form
    # check runs through the fold plan directly: per fold, rmse against the
    # training mean equals the test residual around that mean.
    records = _bulk_records(n=40)
    plan = make_split(records, "cation", k=4, seed=2)
    y = np.array([r.value for r in records])
    for test_idx in plan.folds(records):
        train_mean = np.mean([y[i] for i in range(len(y)) if i not in set(test_idx)])
        model = _constant_trainer(None, np.delete(y, test_idx))
        got = rmse(model.predict_features(np.zeros((len(test_idx), 1))), y[test_idx])
        expect = float(np.sqrt(np.mean((y[test_idx] - train_mean) ** 2)))
        assert got == pytest.approx(expect, abs=1e-12)


def test_cross_validate_rejects_constant_predictions():
    records = _bulk_records(n=40)
    plan = make_split(records, "cation", k=4, seed=2)
    with pytest.raises(MetricError):
        cross_validate(records, plan, _constant_trainer, "mass_density")


def test_cross_validate_deterministic():
    records = _bulk_records(n=40)
    plan = make_split(records, "cation", k=4, seed=2)

    def trainer(X, y):
        from ilkit.predictor import train_ridge

        return train_ridge(X, y, lam=1.0)

    a = cross_validate(records, plan, trainer, "mass_density")
    b = cross_validate(records, plan, trainer, "mass_density")
    assert a == b


def test_report_formatting():
    records = _bulk_records(n=40)
    plan = make_split(records, "cation", k=4, seed=2)

    def trainer(X, y):
        from ilkit.predictor import train_ridge

        return train_ridge(X, y, lam=1.0)

    report = cross_validate(records, plan, trainer, "mass_density")
    row = report.format_row()
    assert row.count("±") == 3
    blob = report.to_json_dict()
    assert set(blob["summary"]) == {"rmse", "pearson_r", "kendall_tau"}
    assert blob["summary"]["rmse"]["std"] == pytest.approx(
        np.std([f.rmse for f in report.per_fold], ddof=1)
    )


def test_rank_aggregate_dominant_model():
    tables = {
        ds: {
            "good": {"rmse": 0.1, "pearson_r": 0.99, "kendall_tau": 0.9},
            "bad": {"rmse": 0.5, "pearson_r": 0.8, "kendall_tau": 0.6},
        }
        for ds in ("d1", "d2", "d3")
    }
    ranks = rank_aggregate(tables)
    assert ranks["overall"]["good"] == 1.0
    assert ranks["overall"]["bad"] == 2.0


def test_rank_aggregate_mirrored_wins():
    tables = {
        "d1": {
            "a": {"rmse": 0.1, "pearson_r": 0.99, "kendall_tau": 0.9},
            "b": {"rmse": 0.5, "pearson_r": 0.80, "kendall_tau": 0.6},
        },
        "d2": {
            "a": {"rmse": 0.5, "pearson_r": 0.80, "kendall_tau": 0.6},
            "b": {"rmse": 0.1, "pearson_r": 0.99, "kendall_tau": 0.9},
        },
    }
    ranks = rank_aggregate(tables)
    assert ranks["overall"]["a"] == 1.5
    assert ranks["overall"]["b"] == 1.5


def test_rank_aggregate_hand_table():
    tables = {
        "d1": {
            "m1": {"rmse": 1.0, "pearson_r": 0.9, "kendall_tau": 0.6},
            "m2": {"rmse": 2.0, "pearson_r": 0.9, "kendall_tau": 0.8},
            "m3": {"rmse": 3.0, "pearson_r": 0.5, "kendall_tau": 0.7},
        },
        "d2": {
            "m1": {"rmse": 2.0, "pearson_r": 0.7, "kendall_tau": 0.9},
            "m2": {"rmse": 1.0, "pearson_r": 0.8, "kendall_tau": 0.9},
            "m3": {"rmse": 3.0, "pearson_r": 0.9, "kendall_tau": 0.9},
        },
    }
    # d1: rmse ranks m1=1,m2=2,m3=3; pearson m1/m2 tie at 1.5, m3=3; tau m2=1,m3=2,m1=3.
    # d2: rmse m2=1,m1=2,m3=3; pearson m3=1,m2=2,m1=3; tau all tie at 2.
    ranks = rank_aggregate(tables)
    d1 = ranks["per_dataset"]["d1"]
    assert d1["m1"] == pytest.approx((1 + 1.5 + 3) / 3)
    assert d1["m2"] == pytest.approx((2 + 1.5 + 1) / 3)
    assert d1["m3"] == pytest.approx((3 + 3 + 2) / 3)
    d2 = ranks["per_dataset"]["d2"]
    assert d2["m1"] == pytest.approx((2 + 3 + 2) / 3)
    assert ranks["overall"]["m1"] == pytest.approx((d1["m1"] + d2["m1"]) / 2)


def test_rank_aggregate_missing_model():
    tables = {
        "d1": {"a": {"rmse": 1, "pearson_r": 1, "kendall_tau": 1}},
        "d2": {"b": {"rmse": 1, "pearson_r": 1, "kendall_tau": 1}},
    }
    with pytest.raises(MetricError):
        rank_aggregate(tables)


def test_all_schemes_leakage_free():
    pools = {
        "cations": CATIONS,
        "anions": ANIONS,
        "solutes": SOLUTES,
        "solvents": SOLVENTS,
    }
    records = generate_synthetic_systems(pools, 300, seed=6)
    for scheme in SCHEMES:
        usable = []
        for r in records:
            try:
                group_key(r, scheme)
                usable.append(r)
            except SplitError:
                continue
        if len({group_key(r, scheme) for r in usable}) < 3:
            continue
        plan = make_split(usable, scheme, k=3, seed=8)
        folds = plan.folds(usable)
        fold_groups = [
            {group_key(usable[i], scheme) for i in fold} for fold in folds
        ]
        for a in range(3):
            for b in range(a + 1, 3):
                assert not (fold_groups[a] & fold_groups[b]), scheme
