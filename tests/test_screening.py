import functools
import math
import random
from collections import OrderedDict
from dataclasses import replace

import pytest

from genmol import random_molecule
from ilkit import fingerprints, screening
from ilkit.chem import canonicalize, parse_smiles, table
from ilkit.datasets import SystemRecord, validate_record
from ilkit.errors import ConfigError, IlkitError, SearchError
from ilkit.fingerprints import ecfp, tanimoto
from ilkit.screening import (
    FingerprintCache,
    LookupPredictor,
    SearchConfig,
    beam_search,
    hydration_dg,
    il_organic_transfer,
    modify_anion,
    modify_side_chain,
    top_k_seeds,
)
from oracles import search_oracle

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


# Equality with the per-pair search: the packed prefilter must leave every
# SearchResult, predictor call and error exactly as the scalar loop had them.


def _both(seeds, pools, predictor, cfg):
    """(result or error, predictor calls) from the library and the oracle."""
    out = []
    for search in (beam_search, search_oracle.beam_search):
        calls = []

        def counted(record):
            calls.append(record.roles_key())
            return predictor(record)

        try:
            result = search(seeds, pools, counted, cfg)
        except SearchError as exc:
            result = ("SearchError", str(exc))
        out.append((result, calls))
    return out


def _assert_same_search(seeds, pools, predictor, cfg):
    (got, got_calls), (want, want_calls) = _both(seeds, pools, predictor, cfg)
    assert got == want
    assert got_calls == want_calls
    return got


def test_packed_search_equals_per_pair_on_planted_target():
    pool, target, predictor = _pool_and_predictor(seed=6, size=300)
    target_fp = ecfp(parse_smiles(target))
    qualifying = [
        s for s in pool
        if s != target and tanimoto(ecfp(parse_smiles(s)), target_fp) >= 0.3
    ]
    cfg = SearchConfig(objective="maximize", beam_width=8, iterations=5, similarity_floor=0.3)
    for seed in qualifying[:6]:
        result = _assert_same_search([_seed_record(seed)], {"anion": pool}, predictor, cfg)
        assert result.ranked[0].record.anion == canonicalize(target)


@pytest.mark.parametrize("objective", ["maximize", "minimize"])
def test_packed_search_equals_per_pair_at_exhaustive_width(objective):
    pool, _target, predictor = _pool_and_predictor(seed=8, size=150)
    rng = random.Random(8)
    for trial in range(4):
        sub = rng.sample(pool, rng.randint(5, 120))
        cfg = SearchConfig(
            objective=objective, beam_width=len(sub) + 1, iterations=1 + trial % 2,
            similarity_floor=0.0,
        )
        seeds = [_seed_record(s) for s in rng.sample(sub, 1 + trial)]
        result = _assert_same_search(seeds, {"anion": sub}, predictor, cfg)
        assert len(result.ranked) == len(sub)


def test_packed_search_equals_per_pair_with_floor_at_an_attained_similarity():
    pool, _target, predictor = _pool_and_predictor(seed=9, size=200)
    seed = pool[3]
    seed_fp = ecfp(parse_smiles(seed))
    attained = sorted({tanimoto(ecfp(parse_smiles(s)), seed_fp) for s in pool if s != seed})
    for floor in (attained[len(attained) // 2], attained[-1], attained[-2]):
        cfg = SearchConfig(objective="maximize", beam_width=4, iterations=3, similarity_floor=floor)
        result = _assert_same_search([_seed_record(seed)], {"anion": pool}, predictor, cfg)
        first = [c for c in result.ranked if c.iteration == 1]
        assert first and min(c.similarity for c in first) == floor


def test_packed_search_equals_per_pair_on_floor_errors():
    pool, _target, predictor = _pool_and_predictor(seed=5, size=30)
    cfg = SearchConfig(objective="maximize", beam_width=4, iterations=3, similarity_floor=1.0)
    (got, _), (want, _) = _both([_seed_record(pool[0])], {"anion": pool}, predictor, cfg)
    assert got == want and got[0] == "SearchError" and "similarity floor" in got[1]
    # A pool holding only the seed's own molecule has no candidate, so no error.
    for pool_of_seed in ([pool[0]], [pool[0], pool[0]]):
        result = _assert_same_search(
            [_seed_record(pool[0])], {"anion": pool_of_seed}, predictor, cfg
        )
        assert [c.provenance for c in result.ranked] == ["seed"]


@pytest.mark.parametrize("nbits", [0, 32])
def test_packed_search_equals_per_pair_unfolded_and_padded(nbits):
    pool, _target, _predictor = _pool_and_predictor(seed=10, size=120)
    target = pool[1]

    def predictor(record):
        return -abs(len(record.anion) - len(target)) - 0.01 * (record.anion != target)

    for floor in (0.0, 0.3, 0.5):
        cfg = SearchConfig(
            objective="maximize", beam_width=6, iterations=4, similarity_floor=floor, nbits=nbits
        )
        for seed in pool[5:8]:
            _assert_same_search([_seed_record(seed)], {"anion": pool}, predictor, cfg)


def test_packed_search_equals_per_pair_over_two_roles():
    pool, target, _predictor = _pool_and_predictor(seed=11, size=80)
    cations = pool[:40]
    anions = pool[40:]
    target_fp = ecfp(parse_smiles(target))

    def predictor(record):
        return (
            tanimoto(ecfp(parse_smiles(record.cation)), target_fp)
            + 0.5 * tanimoto(ecfp(parse_smiles(record.anion)), target_fp)
        )

    seed = SystemRecord(
        "il_solute", cation=cations[7], anion=anions[3], solute=canonicalize(CO2),
        temperature=298.15,
    )
    for floor in (0.1, 0.3):
        cfg = SearchConfig(objective="maximize", beam_width=5, iterations=4, similarity_floor=floor)
        _assert_same_search([seed], {"cation": cations, "anion": anions}, predictor, cfg)


def _roles_and_predictor(pool, target, two_roles):
    """Seed maker, pools and a predictor over one (anion) or two (cation,
    anion) roles: Tanimoto to ``target``, the anion's at half weight."""
    target_fp = ecfp(parse_smiles(target))
    similarity = functools.cache(lambda smi: tanimoto(ecfp(parse_smiles(smi)), target_fp))
    if not two_roles:
        return _seed_record, {"anion": pool}, lambda record: similarity(record.anion)
    half = len(pool) // 2
    pools = {"cation": pool[:half], "anion": pool[half:]}

    def seed(smiles):
        return SystemRecord("il_solute", cation=smiles, anion=pools["anion"][-1],
                            solute=canonicalize(CO2), temperature=298.15)

    return seed, pools, lambda record: similarity(record.cation) + 0.5 * similarity(record.anion)


def test_search_equals_per_pair_on_drawn_searches():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pool, target, _predictor = _pool_and_predictor(seed=16, size=60)

    @hypothesis.settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @hypothesis.given(data=st.data())
    def check(data):
        two_roles = data.draw(st.booleans())
        sub = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=24, unique=True))
        seed, pools, predictor = _roles_and_predictor(sub, target, two_roles)
        starts = next(iter(pools.values()))
        seeds = [seed(s) for s in data.draw(st.lists(st.sampled_from(starts), min_size=1, max_size=3))]
        cfg = SearchConfig(
            objective=data.draw(st.sampled_from(["maximize", "minimize"])),
            beam_width=data.draw(st.integers(1, 6)),
            iterations=data.draw(st.integers(0, 5)),
            similarity_floor=data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 0.6)),
            nbits=data.draw(st.sampled_from([0, 32, 2048])),
        )
        _assert_same_search(seeds, pools, predictor, cfg)

    check()


def _beam_history(result, cfg):
    """The beam at the start of each iteration run, rebuilt from the ranking."""
    minimize = cfg.objective == "minimize"

    def top(cands):
        return sorted(cands, key=lambda c: screening._sort_key(c, minimize))[: cfg.beam_width]

    beam = top(c for c in result.ranked if c.provenance == "seed")
    history = []
    for iteration in range(1, result.iterations_run + 1):
        history.append(beam)
        beam = top([*beam, *(c for c in result.ranked if c.iteration == iteration)])
    return history


def test_each_member_is_packed_once_and_each_new_candidate_compared_once(monkeypatch):
    pool, target, _predictor = _pool_and_predictor(seed=11, size=80)
    seed, pools, predictor = _roles_and_predictor(pool, target, two_roles=True)
    cfg = SearchConfig(objective="maximize", beam_width=5, iterations=5, similarity_floor=0.1)
    packed, compared, predicted = [], [], []
    for name, log in (("packed_tanimoto", packed), ("tanimoto", compared)):
        plain = getattr(screening, name)
        monkeypatch.setattr(screening, name, lambda *a, plain=plain, log=log: log.append(1) or plain(*a))
    result = beam_search(
        [seed(pools["cation"][3])], pools, lambda rec: predicted.append(1) or predictor(rec), cfg
    )
    history = _beam_history(result, cfg)
    members = {c.roles_key() for beam in history for c in beam}
    # Some member stays in the beam for at least three iterations.
    assert max(sum(c.roles_key() == key for beam in history for c in beam) for key in members) >= 3
    assert len(packed) == len(members) * len(pools)
    seeds = sum(c.provenance == "seed" for c in result.ranked)
    assert len(compared) == len(predicted) - seeds == len(result.ranked) - seeds


def test_packed_search_equals_per_pair_on_duplicate_seeds():
    pool, _target, predictor = _pool_and_predictor(seed=13, size=120)
    seed = _seed_record(pool[4])
    # The same role tuple respelled (CO2 is not written canonically) and labelled.
    respelled = SystemRecord("il_solute", cation=EMIM, anion=pool[4], solute=CO2, temperature=298.15)
    assert respelled.solute != seed.solute
    labelled = replace(seed, property="solvation_dg", value=-1.5, source_id="lit")
    cfg = SearchConfig(objective="maximize", beam_width=4, iterations=3, similarity_floor=0.3)
    seeds = [respelled, _seed_record(pool[9]), labelled]
    result = _assert_same_search(seeds, {"anion": pool}, predictor, cfg)
    kept = [c.record for c in result.ranked if c.provenance == "seed"]
    assert sorted(kept, key=lambda r: r.anion) == sorted(
        [seed, _seed_record(pool[9])], key=lambda r: r.anion
    )


def test_repeated_searches_over_one_pool_equal_per_pair_and_prepare_it_once(monkeypatch):
    pool, _target, predictor = _pool_and_predictor(seed=12, size=150)
    calls = []
    plain = screening.canonicalize
    monkeypatch.setattr(screening, "canonicalize", lambda s: calls.append(s) or plain(s))
    cfg = SearchConfig(objective="maximize", beam_width=6, iterations=4, similarity_floor=0.3)
    for seed in (pool[5], pool[6], pool[5]):
        _assert_same_search([_seed_record(seed)], {"anion": pool}, predictor, cfg)
    # The pool is prepared: a further search canonicalizes only the seed's three roles.
    calls.clear()
    beam_search([_seed_record(pool[7])], {"anion": pool}, predictor, cfg)
    assert len(calls) == 3
    # The prepared pool is shared between searches and cannot be written to.
    _smiles, _fps, (words, counts) = screening._search_pool("anion", pool, FingerprintCache())
    assert not words.flags.writeable and not counts.flags.writeable


def test_atom_pair_caches_that_differ_only_in_radius_share_entries(monkeypatch):
    monkeypatch.setattr(table, "_entries", OrderedDict())
    calls = []
    plain = fingerprints.atom_pair_identifiers
    monkeypatch.setattr(fingerprints, "atom_pair_identifiers", lambda mol: calls.append(1) or plain(mol))
    first = FingerprintCache("atom_pair", 1).get("CCO")
    assert FingerprintCache("atom_pair", 3).get("OCC") == first
    assert len(calls) == 1


def test_atom_pair_searches_that_differ_only_in_radius_prepare_the_pool_once(monkeypatch):
    pool, _target, predictor = _pool_and_predictor(seed=14, size=60)
    monkeypatch.setattr(table, "_entries", OrderedDict())
    packed = []
    plain = screening.pack
    monkeypatch.setattr(screening, "pack", lambda fps, nbits: packed.append(len(fps)) or plain(fps, nbits))
    results = [
        beam_search([_seed_record(pool[3])], {"anion": pool}, predictor, SearchConfig(
            objective="maximize", beam_width=4, iterations=3, similarity_floor=0.3,
            fingerprint="atom_pair", radius=radius,
        ))
        for radius in (1, 3)
    ]
    assert results[0] == results[1]
    assert [n for n in packed if n > 1] == [len(set(map(canonicalize, pool)))]


def test_a_cache_must_have_the_search_config_fingerprint_key():
    pool, _target, predictor = _pool_and_predictor(seed=15, size=20)
    seeds, pools = [_seed_record(pool[0])], {"anion": pool}
    pairs = SearchConfig(iterations=1, fingerprint="atom_pair", radius=1)
    # An atom-pair radius is not part of the key.
    beam_search(seeds, pools, predictor, pairs, FingerprintCache("atom_pair", 3))
    for cfg, cache in [
        (SearchConfig(iterations=1, radius=1), FingerprintCache("ecfp", 3)),
        (SearchConfig(iterations=1), FingerprintCache("ecfp", 2, 64)),
        (pairs, FingerprintCache("ecfp", 1)),
    ]:
        with pytest.raises(ConfigError, match="^fingerprint cache parameters do not match"):
            beam_search(seeds, pools, predictor, cfg, cache)


def test_bad_pool_smiles_raises_on_every_search():
    pool, _target, predictor = _pool_and_predictor(seed=5, size=30)
    cfg = SearchConfig(iterations=2)
    errors = []
    for _ in range(2):
        with pytest.raises(IlkitError) as info:
            beam_search([_seed_record(pool[0])], {"anion": [*pool, "CC(C"]}, predictor, cfg)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    for _ in range(2):
        with pytest.raises(SearchError, match="pool for role 'anion' is empty"):
            beam_search([_seed_record(pool[0])], {"anion": []}, predictor, cfg)
