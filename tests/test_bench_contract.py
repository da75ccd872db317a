"""The benchmark's tracer against the library it wraps.

``bench/spans.py`` and ``bench/workloads.py`` wrap ilkit functions through
module and class attributes (``screening.tanimoto``,
``FingerprintCache.get``, ``beam_search`` and the rest). A library change
that drops or renames one of those names breaks every traced benchmark
run. These tests load both files by path, unchanged, trace one small
``screen`` search and one small ``similarity`` round through the
benchmark's own workloads, and check the counters, that a traced round has
the untraced round's output digest, that the untraced digests equal pinned
values and that uninstalling restores every attribute.
"""

import csv
import importlib.util
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ilkit import predictor, screening
from ilkit.chem import canonicalize, table
from ilkit.datasets import SystemRecord, save_records

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
MOLECULES = [
    (EMIM, "emim"), ("CC(=O)[O-]", "acetate"), ("FC(F)(F)S(=O)(=O)[O-]", "triflate"),
    ("c1ccccc1O", "phenol"), ("CCCCN", "butylamine"), ("OCC(=O)[O-]", "glycolate"),
]

# Ingest pass: ten cations with eight records each, so that every
# cation-split training fold holds the 64 rows of the benchmark's MLP
# batch. Half of the ions are respelled from another atom order
# (written, respelled).
CV_CATIONS = [
    ("CCn1cc[n+](C)c1", "c1[n+](C)ccn1CC"), ("CCCn1cc[n+](C)c1", "C[n+]1ccn(CCC)c1"),
    ("CCCCn1cc[n+](C)c1", "c1cn(CCCC)c[n+]1C"), ("CCCCCn1cc[n+](C)c1", "n1(CCCCC)cc[n+](C)c1"),
    ("CCCCCCn1cc[n+](C)c1", "C(CCCCC)n1c[n+](C)cc1"), ("CCCC[n+]1ccccc1", "c1cc[n+](CCCC)cc1"),
    ("CCCC[N+](C)(C)C", "C[N+](C)(CCCC)C"), ("CC[N+]1(C)CCCC1", "C1CC[N+](C)(CC)C1"),
    ("CCCCCCCCn1cc[n+](C)c1", "C(CCCCCCC)n1cc[n+](C)c1"), ("CC[n+]1ccccc1", "c1ccc[n+](CC)c1"),
]
CV_ANIONS = [
    ("CC(=O)[O-]", "[O-]C(C)=O"), ("CCC(=O)[O-]", "O=C([O-])CC"),
    ("CS(=O)(=O)[O-]", "[O-]S(C)(=O)=O"), ("FC(F)(F)S(=O)(=O)[O-]", "O=S(=O)([O-])C(F)(F)F"),
    ("N#C[N-]C#N", "[N-](C#N)C#N"),
]
CV_SOLUTES = ["O=C=O", "CCO", "c1ccccc1"]

# Round digests of the three rounds below. A change that alters a search
# ranking, a canonical SMILES, a descriptor, a fingerprint, a matrix or a
# leaf order on purpose regenerates them and says which output moved.
SCREEN_DIGEST = "3bc834ef70c72407"
SIMILARITY_DIGEST = "47139c967dcb22df"
INGEST_CV_DIGEST = "74ea72a52ba9d741"


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


def _assert_restored(before):
    after = _ilkit_attributes()
    for owner, attrs in before.items():
        changed = [k for k, v in attrs.items() if after[owner].get(k) is not v]
        assert changed == [], owner


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
    # Pool molecules seen for the first time pass through the cache too.
    assert metrics["screening.fp_cache.hit_frac"][0] < 1.0

    _assert_restored(before)
    assert screening.tanimoto is plain_tanimoto


def _screen_round(workloads, inputs, monkeypatch):
    """Run one ``Screen`` round from an empty molecule table; return its digest."""
    monkeypatch.setattr(table, "_entries", OrderedDict())
    screen = workloads.Screen(inputs)
    results = [screen.run_op(i) for i in range(screen.round_ops)]
    assert all(r.failed == [] for r in results)
    return screen.digest([r.output for r in results])


def test_bench_tracer_leaves_a_screen_round_unchanged(tmp_path, monkeypatch):
    spans = _load("spans", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    inputs = _screen_inputs(tmp_path)
    untraced = _screen_round(workloads, inputs, monkeypatch)

    tracer = spans.Tracer()
    workloads.install_tracing(tracer)
    try:
        traced = _screen_round(workloads, inputs, monkeypatch)
    finally:
        tracer.uninstall()

    assert untraced == SCREEN_DIGEST
    assert traced == untraced
    assert tracer.calls["screening.search"] == 1


def _similarity_round(workloads, inputs):
    """Run every op of one ``Similarity`` round on fresh molecules; return its digest."""
    similarity = workloads.Similarity(inputs)
    results = [similarity.run_op(i) for i in range(similarity.round_ops)]
    assert all(r.failed == [] and r.rejected == [] for r in results)
    outputs = [results[-1].output]
    assert similarity.check(outputs) == []
    return similarity.digest(outputs)


def test_bench_tracer_counts_a_similarity_round_and_uninstalls(tmp_path, monkeypatch):
    spans = _load("spans", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    (tmp_path / "mols.smi").write_text("".join(f"{s} {name}\n" for s, name in MOLECULES))
    untraced = _similarity_round(workloads, tmp_path)
    assert untraced == SIMILARITY_DIGEST
    before = _ilkit_attributes()

    tracer = spans.Tracer()
    workloads.install_tracing(tracer)
    try:
        traced = _similarity_round(workloads, tmp_path)
    finally:
        tracer.uninstall()

    assert traced == untraced
    # Two kinds in each molecule's op and two in the matrices; the matrices
    # find each fingerprint kept on its molecule, through the same wrapper.
    assert tracer.calls["fingerprints.make"] == 4 * len(MOLECULES)
    assert tracer.calls["fingerprints.matrix"] == 2
    assert tracer.calls["cluster"] == 1
    _assert_restored(before)


def _ingest_inputs(path: Path) -> Path:
    """records.csv, expected_roles.txt and meta.json in the layout ``IngestCV`` reads."""
    rows = [
        (cation, CV_ANIONS[(ci + k) % len(CV_ANIONS)], CV_SOLUTES[(ci + 2 * k) % len(CV_SOLUTES)],
         (ci + k) % 2)
        for ci, cation in enumerate(CV_CATIONS)
        for k in range(8)
    ]
    canonical = [
        SystemRecord("il_solute", cation=canonicalize(c[0]), anion=canonicalize(a[0]),
                     solute=canonicalize(s), temperature=298.15)
        for c, a, s, _spelling in rows
    ]
    # A planted linear target over the feature rows, as the generator makes.
    X = predictor.featurize_records(canonical)
    y = X @ np.random.Generator(np.random.PCG64(7)).normal(size=X.shape[1]) * 0.05 + 0.1
    written = [
        SystemRecord("il_solute", cation=c[spelling], anion=a[spelling], solute=s,
                     temperature=298.15, property="solvation_dg", value=float(value))
        for (c, a, s, spelling), value in zip(rows, y)
    ]
    save_records(written, path / "records.csv")
    (path / "expected_roles.txt").write_text(
        "".join(f"{r.cation} {r.anion} {r.solute}\n" for r in canonical)
    )
    (path / "meta.json").write_text('{"workload": "ingest_cv", "seed": 7, "size": "test"}')
    return path


def _ingest_round(workloads, inputs):
    """Run one ``IngestCV`` pass from an empty molecule table; return its digest."""
    table._entries.clear()
    ingest = workloads.IngestCV(inputs)
    result = ingest.run_op(0)
    assert result.failed == [] and result.items == 8 * len(CV_CATIONS)
    assert ingest.check([result.output]) == []
    return ingest.digest([result.output])


def test_bench_tracer_counts_an_ingest_pass_and_uninstalls(tmp_path, monkeypatch):
    spans = _load("spans", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    inputs = _ingest_inputs(tmp_path)
    monkeypatch.setattr(table, "_entries", OrderedDict())
    untraced = _ingest_round(workloads, inputs)
    assert untraced == INGEST_CV_DIGEST
    before = _ilkit_attributes()

    tracer = spans.Tracer()
    workloads.install_tracing(tracer)
    try:
        traced = _ingest_round(workloads, inputs)
    finally:
        tracer.uninstall()

    assert traced == untraced
    metrics = workloads.layer_metrics(tracer, 1.0, 1.0)
    assert metrics["datasets.load.records"][0] == 8 * len(CV_CATIONS)
    assert metrics["datasets.validate.calls"][0] == 8 * len(CV_CATIONS)
    assert metrics["predictor.fit.calls"][0] == 2 * 5  # ridge and MLP on each fold
    for name in ("chem.parse.calls", "chem.canonicalize.calls", "descriptors.calls",
                 "predictor.featurize.rows", "evalharness.split.s", "evalharness.cv.s",
                 "evalharness.metrics.s"):
        assert metrics[name][0] > 0, name
    _assert_restored(before)
