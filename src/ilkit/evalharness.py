"""Grouped cross-validation and evaluation metrics.

Splits assign whole groups (cations, ion pairs, ternary tuples, solvents,
or solute-solvent pairs) to folds so no group ever spans a train/test
boundary. Metrics are RMSE, Pearson r, and tie-corrected Kendall tau-b;
fold summaries report mean +/- sample standard deviation.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .datasets import SystemRecord
from .errors import MetricError, SplitError

SCHEMES = ("cation", "il_pair", "ternary", "solvent", "solute_solvent")

_SCHEME_ROLES = {
    "cation": ("cation",),
    "il_pair": ("cation", "anion"),
    "ternary": ("cation", "anion", "solute"),
    "solvent": ("solvent",),
    "solute_solvent": ("solute", "solvent"),
}


def group_key(record: SystemRecord, scheme: str) -> tuple[str, ...]:
    if scheme not in _SCHEME_ROLES:
        raise SplitError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    parts = []
    for role in _SCHEME_ROLES[scheme]:
        value = getattr(record, role)
        if value is None:
            raise SplitError(f"record lacks the {role} role required by scheme {scheme}")
        parts.append(value)
    return tuple(parts)


@dataclass(frozen=True)
class SplitPlan:
    scheme: str
    k: int
    seed: int
    assignment: dict[tuple[str, ...], int]

    def fold_of(self, record: SystemRecord) -> int:
        return self.assignment[group_key(record, self.scheme)]

    def folds(self, records) -> list[list[int]]:
        """Record indices per fold."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for i, rec in enumerate(records):
            out[self.fold_of(rec)].append(i)
        return out

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "scheme": self.scheme,
            "k": self.k,
            "seed": self.seed,
            "assignment": {"|".join(key): fold for key, fold in sorted(self.assignment.items())},
        }


def make_split(records, scheme: str, k: int = 5, seed: int = 42) -> SplitPlan:
    """Shuffle the distinct groups with the seed, deal round-robin into k folds."""
    if not records:
        raise SplitError("cannot split an empty record list")
    if k < 2:
        raise SplitError("k must be >= 2")
    groups = sorted({group_key(r, scheme) for r in records})
    if len(groups) < k:
        raise SplitError(f"fewer distinct groups ({len(groups)}) than k ({k})")
    rng = random.Random(seed)
    rng.shuffle(groups)
    assignment = {g: i % k for i, g in enumerate(groups)}
    return SplitPlan(scheme, k, seed, assignment)


def rmse(pred, actual) -> float:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.size == 0:
        raise MetricError("rmse needs equal-length non-empty vectors")
    return float(np.sqrt(np.mean((pred - actual) ** 2)))


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise MetricError("pearson_r needs equal-length vectors of size >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        raise MetricError("pearson_r is undefined for constant input")
    return float(np.sum(xc * yc) / (sx * sy))


def kendall_tau(x, y) -> float:
    """Tau-b: (C - D) / sqrt((n0 - t_x)(n0 - t_y)).

    Discordant pairs are the strict inversions of the y-sequence taken in
    (x, y) order, counted against a sorted prefix; tie-group sizes correct
    the pair totals.
    """
    x = list(map(float, x))
    y = list(map(float, y))
    n = len(x)
    if n != len(y) or n < 2:
        raise MetricError("kendall_tau needs equal-length vectors of size >= 2")
    n0 = n * (n - 1) // 2
    t_x, t_y, t_xy = (
        sum(c * (c - 1) // 2 for c in Counter(values).values())
        for values in (x, y, zip(x, y))
    )
    if n0 == t_x or n0 == t_y:
        raise MetricError("kendall_tau is undefined when one input is entirely tied")

    # Sorting places equal-x entries in ascending y, so no inversion forms
    # inside an x-tie group.
    discordant = 0
    seen: list[float] = []
    for v in (yv for _xv, yv in sorted(zip(x, y))):
        discordant += len(seen) - bisect.bisect_right(seen, v)
        bisect.insort(seen, v)
    joint = n0 - t_x - t_y + t_xy  # pairs untied in both coordinates
    concordant = joint - discordant
    s = concordant - discordant
    return float(s / math.sqrt((n0 - t_x) * (n0 - t_y)))


@dataclass(frozen=True)
class FoldMetrics:
    rmse: float
    pearson_r: float
    kendall_tau: float


@dataclass(frozen=True)
class MetricReport:
    property: str
    scheme: str
    per_fold: tuple[FoldMetrics, ...]

    def _values(self, name: str) -> list[float]:
        return [getattr(f, name) for f in self.per_fold]

    def mean(self, name: str) -> float:
        return float(np.mean(self._values(name)))

    def std(self, name: str) -> float:
        vals = self._values(name)
        if len(vals) < 2:
            return 0.0
        return float(np.std(vals, ddof=1))

    def format_row(self) -> str:
        """The usual 'mean+/-std' presentation, 3 significant figures."""
        cells = []
        for name in ("rmse", "pearson_r", "kendall_tau"):
            cells.append(f"{self.mean(name):.3g}±{self.std(name):.3g}")
        return ",".join(cells)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "property": self.property,
            "scheme": self.scheme,
            "per_fold": [
                {"rmse": f.rmse, "pearson_r": f.pearson_r, "kendall_tau": f.kendall_tau}
                for f in self.per_fold
            ],
            "summary": {
                name: {"mean": self.mean(name), "std": self.std(name)}
                for name in ("rmse", "pearson_r", "kendall_tau")
            },
        }


def cross_validate(records, split: SplitPlan, trainer, property_name: str) -> MetricReport:
    """Train on out-of-fold records, evaluate on each fold, summarize.

    ``trainer`` is any (X, y) -> model callable whose result offers
    ``predict_features(X)``.
    """
    from .predictor import featurize_records

    records = [r for r in records if r.property == property_name]
    if not records:
        raise MetricError(f"no records carry property {property_name!r}")
    X = featurize_records(records)
    y = np.asarray([r.value for r in records], dtype=float)
    folds = split.folds(records)
    per_fold = []
    for fold_idx, test_idx in enumerate(folds):
        if len(test_idx) < 2:
            raise MetricError(
                f"fold {fold_idx} has {len(test_idx)} test records; need >= 2"
            )
        test_mask = np.zeros(len(records), dtype=bool)
        test_mask[test_idx] = True
        model = trainer(X[~test_mask], y[~test_mask])
        pred = model.predict_features(X[test_mask])
        per_fold.append(
            FoldMetrics(
                rmse=rmse(pred, y[test_mask]),
                pearson_r=pearson_r(pred, y[test_mask]),
                kendall_tau=kendall_tau(pred, y[test_mask]),
            )
        )
    return MetricReport(property_name, split.scheme, tuple(per_fold))


def _average_ranks(values: list[float], descending: bool) -> list[float]:
    """Competition-free ranks (1-based); ties share the mean rank."""
    order = sorted(range(len(values)), key=lambda i: -values[i] if descending else values[i])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        mean_rank = (pos + end) / 2 + 1
        for p in range(pos, end + 1):
            ranks[order[p]] = mean_rank
        pos = end + 1
    return ranks


def rank_aggregate(tables: dict[str, dict[str, dict[str, float]]]) -> dict[str, object]:
    """Average metric ranks within each dataset, then across datasets.

    ``tables`` maps dataset -> model -> {rmse, pearson_r, kendall_tau} means.
    RMSE ranks ascending; the correlation metrics rank descending. Returns
    per-dataset and overall average ranks per model.
    """
    if not tables:
        raise MetricError("rank_aggregate needs at least one dataset table")
    datasets = sorted(tables)
    models = sorted(tables[datasets[0]])
    for ds in datasets:
        if sorted(tables[ds]) != models:
            raise MetricError(f"dataset {ds!r} does not cover the same models")
        for m in models:
            for metric in ("rmse", "pearson_r", "kendall_tau"):
                if metric not in tables[ds][m]:
                    raise MetricError(f"dataset {ds!r}, model {m!r}: missing {metric}")

    per_dataset: dict[str, dict[str, float]] = {}
    for ds in datasets:
        metric_ranks = []
        for metric, descending in (
            ("rmse", False),
            ("pearson_r", True),
            ("kendall_tau", True),
        ):
            vals = [tables[ds][m][metric] for m in models]
            metric_ranks.append(_average_ranks(vals, descending))
        per_dataset[ds] = {
            m: float(np.mean([metric_ranks[j][i] for j in range(3)]))
            for i, m in enumerate(models)
        }
    overall = {
        m: float(np.mean([per_dataset[ds][m] for ds in datasets])) for m in models
    }
    return {"overall": overall, "per_dataset": per_dataset}
