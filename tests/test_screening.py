import math
import random

import pytest

from genmol import random_molecule
from ilkit.chem import canonicalize, parse_smiles
from ilkit.datasets import SystemRecord, validate_record
from ilkit.errors import SearchError
from ilkit.fingerprints import ecfp, tanimoto
from ilkit.screening import (
    LookupPredictor,
    SearchConfig,
    beam_search,
    hydration_dg,
    il_organic_transfer,
    modify_anion,
    modify_side_chain,
    top_k_seeds,
)

EMIM = "CCn1cc[n+](C)c1"
SCN = "[S-]C#N"
DCA = "N#C[N-]C#N"
TCM = "N#C[C-](C#N)C#N"
TF2N = "O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F"
TCB = "N#C[B-](C#N)(C#N)C#N"
CO2 = "O=C=O"
NH3 = "N"
ETOHMIM = "OCCn1cc[n+](C)c1"
EIM = "CCn1cc[nH+]c1"
ETOHIM = "OCCn1cc[nH+]c1"

# Published chain: anion substitution for CO2 absorption at 298 K.
ANION_VALUES = {SCN: -0.5964, DCA: -0.7336, TCM: -1.3686, TF2N: -1.6346, TCB: -1.7204}
# Published chain: cation side-chain engineering for NH3 uptake.
CATION_VALUES = {EMIM: -1.8748, ETOHMIM: -1.9520, EIM: -1.9692, ETOHIM: -2.1151}


def _anion_lookup():
    return LookupPredictor(
        {(EMIM, anion, CO2, None): v for anion, v in ANION_VALUES.items()}
    )


def _cation_lookup():
    return LookupPredictor(
        {(cation, TF2N, NH3, None): v for cation, v in CATION_VALUES.items()}
    )


def test_thermo_relations():
    assert hydration_dg(-5.0, -2.0) == -3.0
    assert hydration_dg(4.2, 0.0) == 4.2
    assert il_organic_transfer(3.0, 0.0) == 3.0
    assert il_organic_transfer(1.7, 1.7) == 0.0


def test_cycle_closure_identities():
    rng = random.Random(1)
    for _ in range(200):
        solv = rng.uniform(-10, 10)
        t_ilw = rng.uniform(-10, 10)
        t_ow = rng.uniform(-10, 10)
        assert abs(hydration_dg(solv, t_ilw) + t_ilw - solv) <= 1e-12
        assert abs(il_organic_transfer(t_ilw, t_ow) + t_ow - t_ilw) <= 1e-12


def test_thermo_rejects_nonfinite():
    with pytest.raises(SearchError):
        hydration_dg(float("nan"), 0.0)


def _anion_records():
    return [
        validate_record(
            SystemRecord(
                category="il_solute", cation=EMIM, anion=a, solute=CO2,
                temperature=298.15, property="solvation_dg", value=v,
            )
        )
        for a, v in ANION_VALUES.items()
    ]


def test_top_k_seeds_argmin():
    cfg = SearchConfig(objective="minimize", top_k=1)
    result = top_k_seeds(_anion_records(), _anion_lookup(), cfg)
    assert len(result.ranked) == 1
    assert result.ranked[0].record.anion == canonicalize(TCB)
    assert not result.underfilled


def test_top_k_full_sorted_list():
    cfg = SearchConfig(objective="minimize", top_k=5)
    result = top_k_seeds(_anion_records(), _anion_lookup(), cfg)
    assert [c.value for c in result.ranked] == sorted(ANION_VALUES.values())


def test_top_k_underfilled_flag():
    cfg = SearchConfig(objective="minimize", top_k=50)
    result = top_k_seeds(_anion_records(), _anion_lookup(), cfg)
    assert len(result.ranked) == 5
    assert result.underfilled


def test_top_k_published_co2_pair():
    cfg = SearchConfig(objective="minimize", top_k=2)
    result = top_k_seeds(_anion_records(), _anion_lookup(), cfg)
    assert [c.record.anion for c in result.ranked] == [canonicalize(TCB), canonicalize(TF2N)]


def test_modify_anion_reproduces_published_ranking():
    result = modify_anion(EMIM, SCN, list(ANION_VALUES), _anion_lookup(), solute=CO2, budget=5)
    best = result.ranked[0]
    assert best.record.anion == canonicalize(TCB)
    assert best.value == pytest.approx(-1.7204)
    chain = [c.value for c in sorted(result.ranked, key=lambda c: -c.value)]
    assert chain == pytest.approx([-0.5964, -0.7336, -1.3686, -1.6346, -1.7204])


def test_modify_anion_trajectory_monotone():
    result = modify_anion(EMIM, SCN, list(ANION_VALUES), _anion_lookup(), solute=CO2, budget=5)
    values = [c.value for c in result.best_trace]
    assert values[0] == pytest.approx(-0.5964)  # seed pair score
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(-1.7204)


def test_modify_anion_budget_zero():
    result = modify_anion(EMIM, SCN, list(ANION_VALUES), _anion_lookup(), solute=CO2, budget=0)
    assert len(result.ranked) == 1
    assert result.ranked[0].value == pytest.approx(-0.5964)


def test_modify_anion_singleton_pool_constant():
    result = modify_anion(EMIM, SCN, [SCN], _anion_lookup(), solute=CO2, budget=5)
    assert all(c.value == pytest.approx(-0.5964) for c in result.best_trace)


def test_modify_side_chain_reproduces_published_ranking():
    result = modify_side_chain(
        TF2N, EMIM, list(CATION_VALUES), _cation_lookup(), solute=NH3, budget=5
    )
    best = result.ranked[0]
    assert best.record.cation == canonicalize(ETOHIM)
    assert best.value == pytest.approx(-2.1151)
    chain = [c.value for c in sorted(result.ranked, key=lambda c: -c.value)]
    assert chain == pytest.approx([-1.8748, -1.9520, -1.9692, -2.1151])


def test_modify_side_chain_trajectory_monotone():
    result = modify_side_chain(
        TF2N, EMIM, list(CATION_VALUES), _cation_lookup(), solute=NH3, budget=5
    )
    values = [c.value for c in result.best_trace]
    assert all(b <= a for a, b in zip(values, values[1:]))


def _similarity_family(rng, count):
    """Structurally related molecules: substituted alkyl chains off one core."""
    out = []
    for _ in range(count):
        chain = "C" * rng.randint(5, 12)
        sub = rng.choice(["O", "N", "S", "Cl", ""])
        pos = rng.randint(1, len(chain) - 1)
        smi = chain[:pos] + (f"({sub})" if sub else "") + chain[pos:]
        out.append(canonicalize(smi))
    return out


def _pool_and_predictor(seed, size=400):
    """Pool of random molecules plus a similarity family; the predictor is
    Tanimoto similarity to a hidden family member.

    The pool is deduplicated by fingerprint so similarity 1.0 identifies the
    target uniquely (distinct long chains can share every ECFP environment).
    """
    rng = random.Random(seed)
    seen_fp = set()
    pool = []

    def admit(smi):
        bits = ecfp(parse_smiles(smi)).bits
        if bits not in seen_fp:
            seen_fp.add(bits)
            pool.append(smi)

    for smi in _similarity_family(rng, max(10, size // 20)):
        admit(smi)
    while len(pool) < size:
        admit(random_molecule(rng, max_heavy=10).canonical_smiles)
    target = pool[0]
    target_fp = ecfp(parse_smiles(target))

    def predictor(record):
        return tanimoto(ecfp(parse_smiles(record.anion)), target_fp)

    return pool, target, predictor


def _seed_record(anion):
    return SystemRecord(
        category="il_solute", cation=canonicalize(EMIM), anion=canonicalize(anion),
        solute=canonicalize(CO2), temperature=298.15,
    )


def test_beam_exhaustive_limit_equals_brute_force():
    pool, target, predictor = _pool_and_predictor(seed=3, size=120)
    cfg = SearchConfig(objective="maximize", beam_width=500, iterations=1, similarity_floor=0.0)
    result = beam_search([_seed_record(pool[-1])], {"anion": pool}, predictor, cfg)
    # Brute force with the same (value, canonical key) tie-break.
    brute = min(
        (canonicalize(s) for s in pool),
        key=lambda s: (-predictor(_seed_record(s)), s),
    )
    assert result.ranked[0].value == pytest.approx(predictor(_seed_record(brute)))
    assert result.ranked[0].record.anion == brute == canonicalize(target)


def test_beam_iterations_zero_returns_ranked_seeds():
    pool, _target, predictor = _pool_and_predictor(seed=4, size=50)
    cfg = SearchConfig(objective="maximize", beam_width=4, iterations=0)
    seeds = [_seed_record(s) for s in pool[:5]]
    result = beam_search(seeds, {"anion": pool}, predictor, cfg)
    assert len(result.ranked) == 5
    values = [c.value for c in result.ranked]
    assert values == sorted(values, reverse=True)


def test_beam_similarity_floor_error():
    pool, _target, predictor = _pool_and_predictor(seed=5, size=30)
    cfg = SearchConfig(objective="maximize", beam_width=4, iterations=3, similarity_floor=1.0)
    with pytest.raises(SearchError, match="similarity floor"):
        beam_search([_seed_record(pool[0])], {"anion": pool}, predictor, cfg)


def test_beam_planted_target_found_from_qualifying_seeds():
    pool, target, predictor = _pool_and_predictor(seed=6, size=300)
    target_fp = ecfp(parse_smiles(target))
    qualifying = [
        s for s in pool
        if s != target and tanimoto(ecfp(parse_smiles(s)), target_fp) >= 0.3
    ]
    assert qualifying, "pool must contain qualifying seeds"
    cfg = SearchConfig(objective="maximize", beam_width=8, iterations=5, similarity_floor=0.3)
    for seed in qualifying:
        result = beam_search([_seed_record(seed)], {"anion": pool}, predictor, cfg)
        assert result.ranked[0].record.anion == canonicalize(target)
        assert result.ranked[0].value == 1.0


def test_beam_trace_monotone_and_deterministic():
    pool, _target, predictor = _pool_and_predictor(seed=7, size=200)
    cfg = SearchConfig(objective="maximize", beam_width=4, iterations=5, similarity_floor=0.1)
    a = beam_search([_seed_record(pool[0])], {"anion": pool}, predictor, cfg)
    b = beam_search([_seed_record(pool[0])], {"anion": pool}, predictor, cfg)
    assert a == b
    values = [c.value for c in a.best_trace]
    assert all(y >= x for x, y in zip(values, values[1:]))


def test_lookup_predictor_missing_entry():
    predictor = _anion_lookup()
    with pytest.raises(SearchError, match="no entry"):
        predictor(_seed_record("CC(=O)[O-]"))


def test_beam_seed_spelling_is_canonicalized():
    seed = SystemRecord(
        "il_solute", cation=EMIM, anion="[O-]C(C)=O", solute=CO2, temperature=298.15
    )
    pool = ["CC(=O)[O-]", "CCC(=O)[O-]", SCN, DCA]
    cfg = SearchConfig(iterations=2)
    result = beam_search([seed], {"anion": pool}, lambda rec: float(len(rec.anion)), cfg)
    acetate = canonicalize("CC(=O)[O-]")
    assert [c.provenance for c in result.ranked if c.record.anion == acetate] == ["seed"]
    assert len(result.ranked) == len(pool)
    seed_cand = next(c for c in result.ranked if c.provenance == "seed")
    assert seed_cand.record.roles_key() == (canonicalize(EMIM), acetate, canonicalize(CO2), None)
