"""The three benchmark workloads and the traced layer wrappers.

Each workload is a closed loop: one caller, one process, no threads. Its
constructor is the set-up (read the generated files, load the model); each
``run_op(i)`` call is one timed operation that returns an ``OpResult``; an
op that handles items is one latency sample. A round is
``run_op(0) .. run_op(round_ops - 1)`` in a fresh process, so every
round does the same work on the same inputs and no cache carries over from
one round to the next. Library functions are always looked up through their
module at call time, so the wrappers that ``install_tracing`` puts on module
attributes see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ilkit import chem, cluster, datasets, descriptors, evalharness, featurize, fingerprints
from ilkit import predictor, screening
from ilkit.chem import canon as chem_canon
from ilkit.errors import IlkitError

TEMPERATURE = 298.15
PROPERTY = "solvation_dg"
SEARCH_FLOOR = 0.3

# Panel entries the library rejects today (hypervalent [P-]; a molecule too
# symmetric for the canonical tie-break budget). They stay in every pass, so
# their time is measured; an IlkitError from them is reported by name as a
# known rejection, and a success is checked like any other molecule.
KNOWN_REJECTIONS = {"PF6", "FAP", "tBu4"}


@dataclass
class OpResult:
    items: int                       # searches, records or molecules handled
    output: object                   # what the correctness checks and digest read
    failed: list[str] = field(default_factory=list)    # "input: error"
    rejected: list[str] = field(default_factory=list)  # known rejections


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Screen:
    """Repeated beam searches over one anion pool, one shared fingerprint cache."""

    name = "screen"

    def __init__(self, inputs: Path):
        self.pool = [line.strip() for line in open(inputs / "pool.smi") if line.strip()]
        with open(inputs / "seeds.csv", newline="") as fh:
            self.seeds = [
                datasets.SystemRecord(row["category"], cation=row["cation"], anion=row["anion"],
                                      solute=row["solute"], temperature=float(row["temperature_K"]))
                for row in csv.DictReader(fh)
            ]
        self.round_ops = len(self.seeds)  # one search from each seed record
        model = predictor.load_model(inputs / "model.json")
        self.model = model
        self.predict = lambda record: predictor.predict(model, record)
        self.config = screening.SearchConfig(
            objective="minimize", property=PROPERTY, beam_width=8, iterations=5,
            similarity_floor=SEARCH_FLOOR,
        )
        self.cache = screening.FingerprintCache()

    def run_op(self, i: int) -> OpResult:
        seed = self.seeds[i]
        try:
            result = screening.beam_search(
                [seed], {"anion": self.pool}, self.predict, self.config, self.cache
            )
        except IlkitError as exc:
            return OpResult(1, None, [f"seed {seed.anion}: {exc!r}"])
        return OpResult(1, result)

    def check(self, outputs) -> list[str]:
        errors = []
        for i, result in enumerate(outputs):
            if result is None:
                continue
            values = [c.value for c in result.best_trace]
            if any(b > a for a, b in zip(values, values[1:])):
                errors.append(f"search {i}: best trace is not monotone: {values}")
            for cand in result.ranked:
                if cand.provenance == "expanded" and cand.similarity < SEARCH_FLOOR:
                    errors.append(f"search {i}: expansion below the floor ({cand.similarity})")
        exhaustive = screening.SearchConfig(
            objective="minimize", property=PROPERTY, beam_width=len(self.pool) + 1,
            iterations=1, similarity_floor=0.0,
        )
        for seed in self.seeds[:3]:
            result = screening.beam_search(
                [seed], {"anion": self.pool}, self.predict, exhaustive, self.cache
            )
            brute = min(
                (predictor.predict(self.model, _with_anion(seed, a)), a) for a in self.pool
            )
            best = result.ranked[0]
            if (best.value, best.record.anion) != brute:
                errors.append(
                    f"exhaustive search from {seed.anion} found {(best.value, best.record.anion)}, "
                    f"brute force {brute}"
                )
        return errors

    def digest(self, outputs) -> str:
        parts = []
        for result in outputs:
            if result is None:
                parts.append(None)
                continue
            parts.append([(c.roles_key(), c.value, c.provenance, c.iteration) for c in result.ranked])
            parts.append([c.value for c in result.best_trace])
        return _digest(parts)


def _with_anion(record, anion):
    return datasets.SystemRecord(
        record.category, cation=record.cation, anion=anion, solute=record.solute,
        temperature=record.temperature,
    )


class IngestCV:
    """Labelled CSV -> validated records -> cation-grouped CV with ridge and MLP."""

    name = "ingest_cv"
    round_ops = 1

    def __init__(self, inputs: Path):
        self.records_path = inputs / "records.csv"
        self.expected = [tuple(line.split()) for line in open(inputs / "expected_roles.txt")]
        self.split_seed = json.loads((inputs / "meta.json").read_text())["seed"]
        self.mlp_config = predictor.MLPConfig(
            hidden=(32,), learning_rate=1e-3, batch_size=64, epochs=15, seed=7
        )

    def _ridge(self, X, y):
        return predictor.train_ridge(X, y, lam=1.0, property_name=PROPERTY)

    def _mlp(self, X, y):
        return predictor.train_mlp(X, y, self.mlp_config, PROPERTY)

    def run_op(self, i: int) -> OpResult:
        try:
            records = datasets.load_records(self.records_path)
            plan = evalharness.make_split(records, "cation", k=5, seed=self.split_seed)
            ridge = evalharness.cross_validate(records, plan, self._ridge, PROPERTY)
            mlp = evalharness.cross_validate(records, plan, self._mlp, PROPERTY)
        except IlkitError as exc:
            n = len(self.expected)
            return OpResult(n, None, [f"{self.records_path.name}: {exc!r}"] * n)
        roles = [(r.cation, r.anion, r.solute) for r in records]
        return OpResult(len(records), (roles, ridge, mlp))

    def check(self, outputs) -> list[str]:
        errors = []
        for i, output in enumerate(outputs):
            if output is None:
                continue
            roles, ridge, mlp = output
            if roles != self.expected:
                bad = sum(1 for a, b in zip(roles, self.expected) if a != b)
                errors.append(
                    f"pass {i}: {bad} loaded role tuples differ from the generated molecules "
                    f"({len(roles)} loaded, {len(self.expected)} expected)"
                )
            if not ridge.mean("pearson_r") > 0.9:
                errors.append(f"pass {i}: ridge pearson_r {ridge.mean('pearson_r')} <= 0.9")
            if not mlp.mean("pearson_r") > 0.5:
                errors.append(f"pass {i}: MLP pearson_r {mlp.mean('pearson_r')} <= 0.5")
        return errors

    def digest(self, outputs) -> str:
        parts = []
        for output in outputs:
            if output is None:
                parts.append(None)
                continue
            roles, ridge, mlp = output
            parts += [roles, ridge.to_json_dict(), mlp.to_json_dict()]
        return _digest(parts)


@dataclass
class Prepared:
    name: str
    canonical: str
    descriptors: list[float]
    ecfp: object
    atom_pair: object
    n_atom_rows: int
    n_bond_rows: int


class Similarity:
    """Per-molecule preparation, then the mean similarity matrix and the
    dendrogram leaf order. Op ``i`` prepares molecule ``i``; the last op
    builds the matrix and the leaf order from every prepared molecule. The
    molecules are distinct and a round runs in a fresh process, so nothing
    is seen twice by one process."""

    name = "similarity"

    def __init__(self, inputs: Path):
        self.mols = [tuple(line.split()) for line in open(inputs / "mols.smi") if line.strip()]
        self.round_ops = len(self.mols) + 1
        self.prepared: list[tuple[Prepared, object]] = []

    def run_op(self, i: int) -> OpResult:
        if i < len(self.mols):
            return self.prepare(*self.mols[i])
        mols = [mol for _item, mol in self.prepared]
        matrix = np.mean(
            [fingerprints.similarity_matrix(mols, kind) for kind in ("ecfp", "atom_pair")], axis=0
        )
        order = cluster.hierarchical_cluster(matrix).leaf_order
        return OpResult(0, ([item for item, _mol in self.prepared], matrix, order))

    def prepare(self, smiles: str, name: str) -> OpResult:
        try:
            mol = chem.parse_smiles(smiles)
            item = Prepared(
                name,
                mol.canonical_smiles,
                descriptors.compute_descriptors(mol).as_list(),
                fingerprints.make_fingerprint(mol, "ecfp"),
                fingerprints.make_fingerprint(mol, "atom_pair"),
                len(featurize.atom_features(mol)),
                len(featurize.bond_features(mol)[0]),
            )
        except IlkitError as exc:
            message = f"{name} {smiles}: {type(exc).__name__}: {exc}"
            if name in KNOWN_REJECTIONS:
                return OpResult(1, None, rejected=[message])
            return OpResult(1, None, [message])
        self.prepared.append((item, mol))
        return OpResult(1, None)

    def check(self, outputs) -> list[str]:
        errors = []
        for i, (items, matrix, order) in enumerate(outputs):
            n = len(items)
            if matrix.shape != (n, n):
                errors.append(f"pass {i}: matrix shape {matrix.shape} for {n} molecules")
                continue
            if not np.array_equal(matrix, matrix.T):
                errors.append(f"pass {i}: matrix is not symmetric")
            if not np.all(np.diag(matrix) == 1.0):
                errors.append(f"pass {i}: matrix diagonal is not 1")
            rng = random.Random(i)
            for _ in range(min(300, n * n)):
                a, b = rng.randrange(n), rng.randrange(n)
                want = (
                    fingerprints.tanimoto(items[a].ecfp, items[b].ecfp)
                    + fingerprints.tanimoto(items[a].atom_pair, items[b].atom_pair)
                ) / 2 if a != b else 1.0
                if abs(matrix[a, b] - want) > 1e-12:
                    errors.append(f"pass {i}: cell ({a},{b}) = {matrix[a, b]}, scalar tanimoto {want}")
                    break
            if sorted(order) != list(range(n)):
                errors.append(f"pass {i}: leaf order is not a permutation of {n} leaves")
            for item in items:
                if chem.canonicalize(item.canonical) != item.canonical:
                    errors.append(f"pass {i}: {item.name} canonical SMILES is not a fixed point")
        return errors

    def digest(self, outputs) -> str:
        parts = []
        for items, matrix, order in (o for o in outputs if o is not None):
            for item in items:
                parts.append((item.name, item.canonical, item.descriptors, item.ecfp.to_hex(),
                              item.atom_pair.to_hex(), item.n_atom_rows, item.n_bond_rows))
            parts.append(hashlib.sha256(matrix.tobytes()).hexdigest())
            parts.append(order)
        return _digest(parts)


WORKLOADS = {w.name: w for w in (Screen, IngestCV, Similarity)}


def install_tracing(tracer) -> None:
    """Wrap the public entry points of every ilkit layer."""
    span, counted, install = tracer.span, tracer.counted, tracer.install
    text_key = lambda args, kwargs, result: args[0]                      # noqa: E731
    mol_key = lambda args, kwargs, result: tracer.text_of(args[0])       # noqa: E731

    def add(counter, amount):
        tracer.counts[counter] += amount

    # chem: canonicalize(text) covers parse + canonical form; a canonical
    # form computed lazily outside it (Molecule.canonical_smiles) is its own
    # chem.canonicalize span.
    install(chem.parser.parse_smiles,
            span("chem.parse", chem.parser.parse_smiles, on_result=tracer.remember_parse))
    install(chem_canon.canonicalize, span("chem.canonicalize", chem_canon.canonicalize, key=text_key))
    install(chem_canon.canonical_form,
            span("chem.canonicalize", chem_canon.canonical_form, key=mol_key, merge_nested=True))

    install(descriptors.compute_descriptors,
            span("descriptors", descriptors.compute_descriptors, key=mol_key))
    for fn in (featurize.atom_features, featurize.bond_features, featurize.assemble_system):
        install(fn, span("featurize", fn))

    install(fingerprints.make_fingerprint, span("fingerprints.make", fingerprints.make_fingerprint))
    install(fingerprints.similarity_matrix, span(
        "fingerprints.matrix", fingerprints.similarity_matrix,
        on_result=lambda a, k, m: add("fingerprints.matrix.pairs", m.shape[0] * (m.shape[0] - 1) // 2),
    ))
    # screening resolves its own tanimoto name: count candidates and the
    # ones the similarity floor rejects there (every traced search uses
    # SEARCH_FLOOR); count everywhere else.
    plain_tanimoto = fingerprints.tanimoto

    def screened(args, kwargs, sim):
        add("screening.candidates", 1)
        if sim < SEARCH_FLOOR:
            add("screening.floor_rejected", 1)

    tracer.replace(screening, "tanimoto",
                   counted("fingerprints.tanimoto", plain_tanimoto, on_result=screened))
    install(plain_tanimoto, counted("fingerprints.tanimoto", plain_tanimoto))

    install(cluster.hierarchical_cluster, span(
        "cluster", cluster.hierarchical_cluster,
        on_call=lambda a, k: add("cluster.n", len(a[0])),
    ))

    install(datasets.load_records, span(
        "datasets.load", datasets.load_records,
        on_result=lambda a, k, recs: add("datasets.load.records", len(recs)),
    ))
    install(datasets.validate_record, counted("datasets.validate", datasets.validate_record))
    install(datasets.build_pseudo_labels, span("datasets.pseudo_labels", datasets.build_pseudo_labels))

    for fn in (predictor.train_ridge, predictor.train_mlp):
        install(fn, span("predictor.fit", fn))
    install(predictor.featurize_records, span(
        "predictor.featurize", predictor.featurize_records,
        on_result=lambda a, k, X: add("predictor.featurize.rows", len(X)),
    ))
    install(predictor.predict, span("predictor.predict", predictor.predict))

    install(evalharness.make_split, span("evalharness.split", evalharness.make_split))
    install(evalharness.cross_validate, span("evalharness.cv", evalharness.cross_validate))
    for fn in (evalharness.rmse, evalharness.pearson_r, evalharness.kendall_tau):
        install(fn, span("evalharness.metrics", fn))

    install(screening.beam_search, span(
        "screening.search", screening.beam_search,
        on_result=lambda a, k, res: add("screening.scored", len(res.ranked)),
    ))
    plain_get = screening.FingerprintCache.get

    def cache_get(cache, smiles):
        before = tracer.calls["fingerprints.make"]
        fp = plain_get(cache, smiles)
        add("screening.fp_cache.gets", 1)
        if tracer.calls["fingerprints.make"] == before:
            add("screening.fp_cache.hits", 1)
        return fp

    tracer.replace(screening.FingerprintCache, "get", cache_get)


def layer_metrics(tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced run."""
    t = tracer
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[name + ".calls"] = (t.calls[name], "count")

    def seconds(name):
        out[name + ".s"] = (t.self_s[name], "s")

    for name in ("chem.parse", "chem.canonicalize"):
        calls(name)
        seconds(name)
        out[name + ".failed"] = (t.failed[name], "count")
    out["chem.canonicalize.unique_frac"] = (t.unique_frac("chem.canonicalize"), "ratio")
    out["chem.canonicalize.max_ms"] = (t.max_s["chem.canonicalize"] * 1e3, "ms")
    calls("descriptors")
    seconds("descriptors")
    out["descriptors.unique_frac"] = (t.unique_frac("descriptors"), "ratio")
    calls("featurize")
    seconds("featurize")
    calls("fingerprints.make")
    seconds("fingerprints.make")
    calls("fingerprints.tanimoto")
    out["fingerprints.tanimoto.s"] = (t.sampled_seconds("fingerprints.tanimoto"), "s")
    out["fingerprints.matrix.pairs"] = (t.counts["fingerprints.matrix.pairs"], "count")
    seconds("fingerprints.matrix")
    out["cluster.n"] = (t.counts["cluster.n"], "count")
    seconds("cluster")
    out["datasets.load.records"] = (t.counts["datasets.load.records"], "count")
    seconds("datasets.load")
    calls("datasets.validate")
    calls("datasets.pseudo_labels")
    seconds("datasets.pseudo_labels")
    calls("predictor.fit")
    seconds("predictor.fit")
    out["predictor.featurize.rows"] = (t.counts["predictor.featurize.rows"], "count")
    seconds("predictor.featurize")
    calls("predictor.predict")
    seconds("predictor.predict")
    seconds("evalharness.split")
    seconds("evalharness.cv")
    seconds("evalharness.metrics")
    seconds("screening.search")
    for name in ("candidates", "floor_rejected", "scored"):
        out["screening." + name] = (t.counts["screening." + name], "count")
    out["screening.predictor_calls"] = (t.calls["predictor.predict"], "count")
    gets = t.counts["screening.fp_cache.gets"]
    out["screening.fp_cache.hit_frac"] = (
        t.counts["screening.fp_cache.hits"] / gets if gets else 0.0, "ratio"
    )
    out["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1.0, "ratio")
    out["trace.coverage_frac"] = (t.total_self_s() / traced_wall_s, "ratio")
    return out
