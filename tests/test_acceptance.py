"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Every expected value here is either hand-derived, produced by an
independent oracle in tests/oracles/, or a published reference number.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import load_ions
from genmol import corpus, random_molecule
from ilkit.chem import canonicalize, parse_smiles, write_smiles
from ilkit.datasets import (
    SystemRecord,
    build_hydration_benchmark,
    build_pseudo_labels,
    generate_synthetic_systems,
    validate_record,
)
from ilkit.descriptors import DESCRIPTOR_NAMES, compute_descriptors
from ilkit.errors import MetricError
from ilkit.evalharness import (
    cross_validate,
    group_key,
    kendall_tau,
    make_split,
    pearson_r,
    rank_aggregate,
    rmse,
)
from ilkit.fingerprints import Fingerprint, ecfp, ecfp_identifiers, tanimoto
from ilkit.cluster import hierarchical_cluster
from ilkit.predictor import (
    MLPConfig,
    train_mlp,
    train_ridge,
)
from ilkit.screening import (
    FingerprintCache,
    LookupPredictor,
    SearchConfig,
    beam_search,
    hydration_dg,
    il_organic_transfer,
    modify_anion,
    modify_side_chain,
)
from oracles.cluster_oracle import oracle_average_linkage
from oracles.descriptors_oracle import oracle_descriptors
from oracles.iso import isomorphic
from oracles.metrics_oracle import naive_tau_b
from test_descriptors import PANEL


def test_criterion_01_canonicalization_corpus():
    """Idempotence + permutation invariance on >=500 molecules with >=1000
    re-encodings, round-trip isomorphism by brute-force oracle, under 60 s."""
    start = time.monotonic()
    ions = load_ions()
    mols = corpus(seed=101, size=500)
    mols += [parse_smiles(s) for s in ions.values()]
    rng = random.Random(2024)
    reencodings = 0
    for mol in mols:
        ref = mol.canonical_smiles
        assert canonicalize(ref) == ref  # idempotence
        for _ in range(2):
            perm = list(range(len(mol.atoms)))
            rng.shuffle(perm)
            assert canonicalize(write_smiles(mol, order=perm)) == ref
            reencodings += 1
        heavy = sum(1 for a in mol.atoms if a.element != "H")
        if heavy <= 30:
            assert isomorphic(mol, parse_smiles(ref))
    assert reencodings >= 1000
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"canonicalization suite took {elapsed:.1f}s"


def test_criterion_02_descriptors_oracle_and_hand_values():
    """Full 21-vector vs independent oracle within 1e-6 on the 20-molecule
    panel; hand-derived reference values hold exactly."""
    assert len(PANEL) == 20
    for smiles in PANEL:
        mol = parse_smiles(smiles)
        got = compute_descriptors(mol).as_list()
        want = oracle_descriptors(mol)
        for name, g, w in zip(DESCRIPTOR_NAMES, got, want):
            assert abs(g - w) <= 1e-6, f"{smiles}: {name}: {g} vs {w}"

    ethane = compute_descriptors(parse_smiles("CC"))
    assert ethane.balaban_j == pytest.approx(1.0, abs=1e-12)
    propane = compute_descriptors(parse_smiles("CCC"))
    assert propane.balaban_j == pytest.approx(1.6330, abs=1e-4)
    assert propane.kappa1 == pytest.approx(3.0, abs=1e-12)
    methane = compute_descriptors(parse_smiles("C"))
    assert methane.tpsa == 0.0
    ethanol = compute_descriptors(parse_smiles("CCO"))
    assert ethanol.mol_weight == pytest.approx(46.069, abs=1e-3)


def test_criterion_03_fingerprints_similarity_clustering():
    """Unfolded Tanimoto equals set arithmetic exactly; similarity properties
    over 1e4 random pairs; clustering matches the O(n^3) oracle."""
    mols = corpus(seed=55, size=30)
    for i in range(0, len(mols) - 1, 2):
        a_ids = ecfp_identifiers(mols[i])
        b_ids = ecfp_identifiers(mols[i + 1])
        unfolded = tanimoto(ecfp(mols[i], nbits=0), ecfp(mols[i + 1], nbits=0))
        assert unfolded == len(a_ids & b_ids) / len(a_ids | b_ids)

    rng = random.Random(500)
    for _ in range(10_000):
        x = Fingerprint.from_ids(
            "ecfp", {rng.randrange(10**7) for _ in range(rng.randint(0, 30))}, 2048
        )
        y = Fingerprint.from_ids(
            "ecfp", {rng.randrange(10**7) for _ in range(rng.randint(0, 30))}, 2048
        )
        t = tanimoto(x, y)
        assert 0.0 <= t <= 1.0
        assert t == tanimoto(y, x)
        if x.popcount:
            assert tanimoto(x, x) == 1.0

    for trial in range(20):
        trial_rng = random.Random(900 + trial)
        n = trial_rng.randint(5, 10)
        sim = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                sim[i, j] = sim[j, i] = trial_rng.random()
        got = hierarchical_cluster(sim)
        want = oracle_average_linkage(sim)
        assert len(got.merges) == len(want)
        for merge, (a, b, d, size) in zip(got.merges, want):
            assert {merge.left, merge.right} == {a, b}
            assert merge.distance == pytest.approx(d, abs=1e-9)
            assert merge.size == size


def test_criterion_04_metrics():
    """Reference metric values and tau-b равен the O(n^2) oracle on 100
    random tied vectors."""
    assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert pearson_r(x, [2 * v for v in x]) == pytest.approx(1.0, abs=1e-12)
    assert kendall_tau([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(
        5 / math.sqrt(30), abs=1e-12
    )

    rng = random.Random(4096)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 200)
        xs = [rng.randint(0, 9) for _ in range(n)]
        ys = [rng.randint(0, 9) for _ in range(n)]
        n0 = n * (n - 1) // 2
        from collections import Counter

        def tie_pairs(v):
            return sum(c * (c - 1) // 2 for c in Counter(v).values())

        if tie_pairs(xs) == n0 or tie_pairs(ys) == n0:
            continue
        assert kendall_tau(xs, ys) == pytest.approx(naive_tau_b(xs, ys), abs=1e-12)
        checked += 1


def _scheme_datasets():
    cations = [f"CC{'C' * i}n1cc[n+](C)c1" for i in range(15)]
    anions = [f"{'C' * i}CC(=O)[O-]" for i in range(10)]
    solutes = ["O=C=O", "N", "CCO", "CCC", "CC(C)O", "c1ccccc1"]
    solvents = ["O", "CCCCO", "CCO", "CC(C)O", "CCOCC"]
    il_pools = {"cations": cations, "anions": anions, "solutes": solutes}
    organic_pools = {"solvents": solvents, "solutes": solutes + ["CCN", "CCCl", "CS"]}
    il_records = generate_synthetic_systems(il_pools, 500, seed=77, categories=["il_solute"])
    # organic capacity is 5 x 9 = 45 groups; enough distinct groups for k=5.
    organic_records = generate_synthetic_systems(
        organic_pools, 45, seed=78, categories=["organic_solute"]
    )
    return il_records, organic_records


def test_criterion_05_split_schemes_leakage_free():
    """All five schemes: zero train/test group overlap, spread <= 1,
    deterministic under a fixed seed, on a 500-system synthetic dataset."""
    il_records, organic_records = _scheme_datasets()
    assert len(il_records) == 500
    for scheme, records in (
        ("cation", il_records),
        ("il_pair", il_records),
        ("ternary", il_records),
        ("solvent", organic_records),
        ("solute_solvent", organic_records),
    ):
        plan = make_split(records, scheme, k=5, seed=13)
        again = make_split(records, scheme, k=5, seed=13)
        assert plan == again, scheme

        counts = [0] * 5
        for fold in plan.assignment.values():
            counts[fold] += 1
        assert max(counts) - min(counts) <= 1, scheme

        folds = plan.folds(records)
        fold_groups = [
            {group_key(records[i], scheme) for i in fold} for fold in folds
        ]
        for a in range(5):
            for b in range(a + 1, 5):
                assert not (fold_groups[a] & fold_groups[b]), scheme


def test_criterion_06_regression():
    """Backprop gradients vs central differences (50 random configs, <1e-4
    relative); ridge recovers (3, 1) within 1e-6; normal-equation residual
    below 1e-8."""
    rng = np.random.Generator(np.random.PCG64(777))
    for trial in range(50):
        d = int(rng.integers(2, 6))
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(h) for h in rng.integers(2, 5, size=depth))
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
            for index in np.ndindex(model.biases[k].shape):
                orig = model.biases[k][index]
                model.biases[k][index] = orig + h
                lp, _, _ = model.loss_and_gradients(Z, y)
                model.biases[k][index] = orig - h
                lm, _, _ = model.loss_and_gradients(Z, y)
                model.biases[k][index] = orig
                fd = (lp - lm) / (2 * h)
                scale = max(abs(fd), abs(grads_b[k][index]), 1e-8)
                assert abs(fd - grads_b[k][index]) / scale < 1e-4

    gen = np.random.Generator(np.random.PCG64(11))
    X = gen.normal(size=(80, 6))
    y = 3.0 * X[:, 1] + 1.0
    model = train_ridge(X, y, lam=0.0)
    w, b = model.coefficients()
    assert abs(w[1] - 3.0) < 1e-6
    assert abs(b - 1.0) < 1e-6
    for lam in (0.0, 1.0, 100.0):
        m = train_ridge(X, y, lam=lam)
        Z = m.standardizer.transform(X)
        A = Z.T @ Z + lam * np.eye(Z.shape[1])
        rhs = Z.T @ (y - y.mean())
        assert float(np.max(np.abs(A @ m.weights - rhs))) < 1e-8


def test_criterion_07_thermodynamic_cycle_and_benchmark():
    """Cycle identities close to <=1e-12; hydration benchmark yields exactly
    ten virtual systems per solute with zero known-pair overlap."""
    rng = random.Random(31)
    for _ in range(500):
        solv = rng.uniform(-20, 20)
        t_ilw = rng.uniform(-20, 20)
        t_ow = rng.uniform(-20, 20)
        assert abs(hydration_dg(solv, t_ilw) + t_ilw - solv) <= 1e-12
        assert abs(il_organic_transfer(t_ilw, t_ow) + t_ow - t_ilw) <= 1e-12

    cations = [f"CC{'C' * i}n1cc[n+](C)c1" for i in range(6)]
    anions = [f"{'C' * i}CC(=O)[O-]" for i in range(5)]
    solutes = ["O=C=O", "N", "CCO"]
    known = []
    for i, solute in enumerate(solutes):
        for j in range(4):
            known.append(
                validate_record(
                    SystemRecord(
                        category="il_solute",
                        cation=cations[(i + j) % 6],
                        anion=anions[(i * 2 + j) % 5],
                        solute=solute,
                        temperature=298.15,
                        property="solvation_dg",
                        value=-1.0 - 0.1 * j,
                    )
                )
            )
    virtual = build_hydration_benchmark(known, seed=99)
    known_pairs = {(r.cation, r.anion) for r in known}
    emitted_pairs = {(r.cation, r.anion) for r in virtual}
    assert not (emitted_pairs & known_pairs)
    per_solute: dict[str, int] = {}
    for rec in virtual:
        per_solute[rec.solute] = per_solute.get(rec.solute, 0) + 1
    assert set(per_solute) == {canonicalize(s) for s in solutes}
    assert all(count == 10 for count in per_solute.values())
    # Benchmark protocol: subtract per system, then average the ten values.
    solvation = {r.roles_key(): -2.0 for r in virtual}
    transfer = {r.roles_key(): -0.5 for r in virtual}
    for solute in per_solute:
        values = [
            hydration_dg(solvation[r.roles_key()], transfer[r.roles_key()])
            for r in virtual
            if r.solute == solute
        ]
        assert len(values) == 10
        assert np.mean(values) == pytest.approx(-1.5, abs=1e-12)


# Published reference chains for the two modification loops.
_EMIM = "CCn1cc[n+](C)c1"
_ANION_CHAIN = [
    ("[S-]C#N", -0.5964),
    ("N#C[N-]C#N", -0.7336),
    ("N#C[C-](C#N)C#N", -1.3686),
    ("O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F", -1.6346),
    ("N#C[B-](C#N)(C#N)C#N", -1.7204),
]
_CATION_CHAIN = [
    ("CCn1cc[n+](C)c1", -1.8748),
    ("OCCn1cc[n+](C)c1", -1.9520),
    ("CCn1cc[nH+]c1", -1.9692),
    ("OCCn1cc[nH+]c1", -2.1151),
]


def test_criterion_08_published_ranking_reproduction():
    """With published predictions as a lookup predictor, both modification
    loops select the published winners and reproduce the inequality chains."""
    anion_pred = LookupPredictor(
        {(_EMIM, a, "O=C=O", None): v for a, v in _ANION_CHAIN}
    )
    result = modify_anion(
        _EMIM, "[S-]C#N", [a for a, _v in _ANION_CHAIN], anion_pred,
        solute="O=C=O", budget=5,
    )
    assert result.ranked[0].record.anion == canonicalize("N#C[B-](C#N)(C#N)C#N")
    assert result.ranked[0].value == pytest.approx(-1.7204, abs=1e-12)
    got_chain = [c.value for c in sorted(result.ranked, key=lambda c: -c.value)]
    assert got_chain == [v for _a, v in _ANION_CHAIN]
    by_value = sorted(result.ranked, key=lambda c: -c.value)
    assert [c.record.anion for c in by_value] == [canonicalize(a) for a, _v in _ANION_CHAIN]

    tf2n = "O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F"
    cation_pred = LookupPredictor(
        {(c, tf2n, "N", None): v for c, v in _CATION_CHAIN}
    )
    result = modify_side_chain(
        tf2n, _EMIM, [c for c, _v in _CATION_CHAIN], cation_pred,
        solute="N", budget=5,
    )
    assert result.ranked[0].record.cation == canonicalize("OCCn1cc[nH+]c1")
    assert result.ranked[0].value == pytest.approx(-2.1151, abs=1e-12)
    by_value = sorted(result.ranked, key=lambda c: -c.value)
    assert [c.record.cation for c in by_value] == [canonicalize(c) for c, _v in _CATION_CHAIN]
    assert [c.value for c in by_value] == [v for _c, v in _CATION_CHAIN]


def _screening_pool(rng, size, cache):
    """Deduplicated-by-fingerprint pool with a built-in similarity family:
    canonical SMILES -> fingerprint, in the order they were admitted."""
    seen = set()
    pool = {}

    def admit(smi):
        smi, fp = cache.get(smi)
        if fp.bits not in seen:
            seen.add(fp.bits)
            pool[smi] = fp

    for _ in range(max(10, size // 15)):
        chain = "C" * rng.randint(5, 12)
        sub = rng.choice(["O", "N", "S", "Cl", ""])
        pos = rng.randint(1, len(chain) - 1)
        admit(chain[:pos] + (f"({sub})" if sub else "") + chain[pos:])
    while len(pool) < size:
        admit(random_molecule(rng, max_heavy=10).canonical_smiles)
    return pool


def _seed_record(anion):
    return SystemRecord(
        category="il_solute", cation=canonicalize(_EMIM), anion=anion,
        solute=canonicalize("O=C=O"), temperature=298.15,
    )


def test_criterion_09_search():
    """Planted-target recovery from every qualifying seed on a 2000-molecule
    pool; exhaustive-width equals brute force on 50 random pools; the running
    best is monotone in every run."""
    rng = random.Random(606)
    cache = FingerprintCache()
    fps = _screening_pool(rng, 2000, cache)
    pool = list(fps)
    target = pool[0]
    target_fp = fps[target]

    def predictor(record):
        return tanimoto(fps[record.anion], target_fp)

    qualifying = [
        smi for smi in pool
        if smi != target and tanimoto(fps[smi], target_fp) >= 0.3
    ]
    assert len(qualifying) >= 5
    cfg = SearchConfig(objective="maximize", beam_width=8, iterations=5, similarity_floor=0.3)
    for seed_smiles in qualifying:
        result = beam_search([_seed_record(seed_smiles)], {"anion": pool}, predictor, cfg, cache)
        assert result.ranked[0].record.anion == target
        assert result.ranked[0].value == 1.0
        assert result.iterations_run <= 5
        values = [c.value for c in result.best_trace]
        assert all(b >= a for a, b in zip(values, values[1:]))

    # Exhaustive limit vs brute force on 50 random sub-pools.
    monotone_runs = 0
    for trial in range(50):
        sub_rng = random.Random(7000 + trial)
        sub = sub_rng.sample(pool, sub_rng.randint(5, 500))
        sub_target = sub_rng.choice(sub)
        sub_target_fp = fps[sub_target]

        def sub_predictor(record, fp=sub_target_fp):
            return tanimoto(fps[record.anion], fp)

        cfg = SearchConfig(
            objective="maximize", beam_width=len(sub) + 1, iterations=1, similarity_floor=0.0
        )
        result = beam_search([_seed_record(sub[0])], {"anion": sub}, sub_predictor, cfg, cache)
        brute = min(sub, key=lambda s: (-sub_predictor(_seed_record(s)), s))
        assert result.ranked[0].record.anion == brute
        assert result.ranked[0].value == pytest.approx(
            sub_predictor(_seed_record(brute)), abs=0
        )
        values = [c.value for c in result.best_trace]
        if all(b >= a for a, b in zip(values, values[1:])):
            monotone_runs += 1
    assert monotone_runs == 50


def test_criterion_10_end_to_end_smoke():
    """10k synthetic systems -> pseudo-labels -> MLP on a synthetic target ->
    cation-split cross-validation -> rank/plot data, under 5 minutes."""
    start = time.monotonic()
    cations = [f"CC{'C' * i}n1cc[n+](C{'C' * (i % 3)})c1" for i in range(30)]
    anions = [f"{'C' * i}CC(=O)[O-]" for i in range(13)] + [
        f"{'C' * i}CS(=O)(=O)[O-]" for i in range(12)
    ]
    solutes = ["O=C=O", "N", "CCO", "CCC", "CC(C)O", "c1ccccc1", "CCN", "CS",
               "CCCl", "C1CC1", "CC=C", "C#N", "CCOC", "CC(C)=O", "CCBr"]
    solvents = ["O", "CCCCO", "CCO", "CC(C)O", "CCOCC", "CCCO", "CC(C)CO", "OCCO"]
    pools = {"cations": cations, "anions": anions, "solutes": solutes, "solvents": solvents}
    records = generate_synthetic_systems(pools, 10_000, seed=2025)
    assert len(records) == 10_000

    X = np.array([build_pseudo_labels(r) for r in records])
    assert X.shape == (10_000, 89)

    # Synthetic ground truth over the descriptor features.
    gen = np.random.Generator(np.random.PCG64(17))
    w_true = gen.normal(size=89) * 0.05
    y = X @ w_true + 0.5 * np.tanh(X[:, 13] / 100.0) + 0.1

    il_solute = [
        (rec, xi, yi)
        for rec, xi, yi in zip(records, X, y)
        if rec.category == "il_solute"
    ]
    cv_records = [
        validate_record(
            SystemRecord(
                category=rec.category, cation=rec.cation, anion=rec.anion,
                solute=rec.solute, temperature=rec.temperature,
                property="solvation_dg", value=float(yi),
            )
        )
        for rec, _xi, yi in il_solute[:4000]
    ]
    plan = make_split(cv_records, "cation", k=5, seed=404)
    mlp_cfg = MLPConfig(hidden=(32,), learning_rate=1e-3, batch_size=64, epochs=15, seed=7)

    def mlp_trainer(Xt, yt):
        return train_mlp(Xt, yt, mlp_cfg, "solvation_dg")

    def ridge_trainer(Xt, yt):
        return train_ridge(Xt, yt, lam=1.0, property_name="solvation_dg")

    mlp_report = cross_validate(cv_records, plan, mlp_trainer, "solvation_dg")
    ridge_report = cross_validate(cv_records, plan, ridge_trainer, "solvation_dg")
    for report in (mlp_report, ridge_report):
        assert len(report.per_fold) == 5
        assert report.mean("rmse") >= 0.0
        assert -1.0 <= report.mean("kendall_tau") <= 1.0
    # The synthetic target is essentially linear: both baselines must beat chance.
    assert mlp_report.mean("pearson_r") > 0.5
    assert ridge_report.mean("pearson_r") > 0.9

    tables = {
        "synthetic_solvation": {
            "mlp": dict(zip(("rmse", "pearson_r", "kendall_tau"),
                            (mlp_report.mean("rmse"), mlp_report.mean("pearson_r"),
                             mlp_report.mean("kendall_tau")))),
            "ridge": dict(zip(("rmse", "pearson_r", "kendall_tau"),
                              (ridge_report.mean("rmse"), ridge_report.mean("pearson_r"),
                               ridge_report.mean("kendall_tau")))),
        }
    }
    ranks = rank_aggregate(tables)
    assert set(ranks["overall"]) == {"mlp", "ridge"}
    assert sorted(ranks["overall"].values()) == [1.0, 2.0]

    counts, edges = np.histogram(y, bins=20)
    assert counts.sum() == 10_000 and len(edges) == 21

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"end-to-end smoke took {elapsed:.1f}s"
