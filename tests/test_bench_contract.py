"""The benchmark's tracer against the library it wraps.

``bench/spans.py`` and ``bench/workloads.py`` wrap ilkit functions through
module and class attributes (``screening.tanimoto``,
``FingerprintCache.get``, ``beam_search`` and the rest). A library change
that drops or renames one of those names breaks every traced benchmark
run. This test loads both files by path, unchanged, traces one small
``screen`` search through the benchmark's own ``Screen`` workload, and
checks that the search counters move and that uninstalling restores every
attribute.
"""

import csv
import importlib.util
import sys
from pathlib import Path

from ilkit import predictor, screening
from ilkit.chem import canonicalize
from ilkit.datasets import SystemRecord

ROOT = Path(__file__).resolve().parents[1]

EMIM = "CCn1cc[n+](C)c1"
CO2 = "O=C=O"
# Carboxylates and sulfonates: close enough that a search at the
# benchmark's 0.3 floor finds neighbours.
ANIONS = [
    "CC(=O)[O-]", "CCC(=O)[O-]", "CCCC(=O)[O-]", "CCCCC(=O)[O-]", "OCC(=O)[O-]",
    "CC(O)C(=O)[O-]", "CS(=O)(=O)[O-]", "CCS(=O)(=O)[O-]", "CCCS(=O)(=O)[O-]",
    "FC(F)(F)C(=O)[O-]", "FC(F)(F)S(=O)(=O)[O-]", "[S-]C#N", "N#C[N-]C#N",
]


def _load(name: str, monkeypatch):
    """A bench module by path, registered (for the test's duration) as dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _screen_inputs(path: Path) -> Path:
    """pool.smi, seeds.csv and model.json in the layout ``Screen`` reads."""
    (path / "pool.smi").write_text("".join(f"{s}\n" for s in ANIONS))
    with open(path / "seeds.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["category", "cation", "anion", "solute", "temperature_K"])
        writer.writerow(["il_solute", EMIM, ANIONS[1], CO2, "298.15"])
    records = [
        SystemRecord("il_solute", cation=canonicalize(EMIM), anion=canonicalize(a),
                     solute=canonicalize(CO2), temperature=298.15)
        for a in ANIONS
    ]
    X = predictor.featurize_records(records)
    y = [0.1 * len(a) for a in ANIONS]
    model = predictor.train_ridge(X, y, lam=1.0, property_name="solvation_dg")
    predictor.save_model(model, path / "model.json")
    return path


def _ilkit_attributes() -> dict:
    snap = {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if name == "ilkit" or name.startswith("ilkit.")
    }
    snap["FingerprintCache"] = dict(vars(screening.FingerprintCache))
    return snap


def test_bench_tracer_counts_a_search_and_uninstalls(tmp_path, monkeypatch):
    spans = _load("spans", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    screen = workloads.Screen(_screen_inputs(tmp_path))
    before = _ilkit_attributes()
    plain_tanimoto = screening.tanimoto

    tracer = spans.Tracer()
    workloads.install_tracing(tracer)
    try:
        assert screening.tanimoto is not plain_tanimoto
        result = screen.run_op(0)
    finally:
        tracer.uninstall()

    assert result.failed == [] and result.output.ranked
    assert tracer.calls["screening.search"] == 1
    metrics = workloads.layer_metrics(tracer, 1.0, 1.0)
    # floor_rejected is reported too; it counts only the molecules that
    # reach the scalar floor check, so it may read 0.
    for name in ("screening.candidates", "screening.scored", "screening.predictor_calls",
                 "screening.fp_cache.hit_frac", "fingerprints.tanimoto.calls",
                 "fingerprints.make.calls"):
        assert metrics[name][0] > 0, name
    assert "screening.floor_rejected" in metrics

    after = _ilkit_attributes()
    for owner, attrs in before.items():
        changed = [k for k, v in attrs.items() if after[owner].get(k) is not v]
        assert changed == [], owner
    assert screening.tanimoto is plain_tanimoto
