import random
import tracemalloc

import pytest

from genmol import corpus
from ilkit.chem import canon, canonicalize, parse_smiles, table, write_smiles
from ilkit.datasets import SystemRecord, descriptor_values, load_records, save_records
from ilkit.descriptors import compute_descriptors
from ilkit.errors import IlkitError
from ilkit.fingerprints import make_fingerprint
from ilkit.screening import FingerprintCache, SearchConfig, _search_pool, beam_search


def _respellings(seed: int, size: int) -> list[str]:
    """Distinct texts: each corpus molecule canonical and in a shuffled atom order."""
    rng = random.Random(seed)
    texts = []
    for mol in corpus(seed=seed, size=size):
        order = list(range(len(mol.atoms)))
        rng.shuffle(order)
        texts += [mol.canonical_smiles, write_smiles(mol, order=order)]
    return list(dict.fromkeys(texts))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_table_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(table, "MAX_ENTRIES", 16)
    table._entries.clear()
    texts = _respellings(seed=41, size=30)
    assert len(texts) > 3 * table.MAX_ENTRIES
    for text in texts:
        assert canonicalize(text) == parse_smiles(text).canonical_smiles
        assert len(table._entries) <= table.MAX_ENTRIES
    # Oldest entries went first; the newest is still held.
    assert table._entries[texts[-1]] == canonicalize(texts[-1])
    assert texts[0] not in table._entries


def test_bad_smiles_raises_the_same_error_every_time():
    errors = []
    for _ in range(2):
        with pytest.raises(IlkitError) as info:
            canonicalize("CC(C")
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert "CC(C" not in table._entries


def test_derived_values_are_bit_identical_to_direct_computation():
    """Whichever spelling fills an entry, every spelling and the canonical
    SMILES read values bit-identical to those of the raw text's own parse."""
    cache = FingerprintCache("ecfp", 2, 2048)
    pairs = FingerprintCache("atom_pair", 2, 0)
    for warm in (False, True):
        if not warm:
            table._entries.clear()
        for text in _respellings(seed=43, size=25):
            mol = parse_smiles(text)
            for spelling in (text, canonicalize(text)):
                assert _bits(descriptor_values(spelling)) == _bits(compute_descriptors(mol).as_list())
                assert cache.get(spelling)[1] == make_fingerprint(mol, "ecfp", 2, 2048)
                assert pairs.get(spelling)[1] == make_fingerprint(mol, "atom_pair", 2, 0)


MESYLATE = "[O-]S(C)(=O)=O"  # canonical: CS([O-])(=O)=O


def test_a_respelled_ion_reads_the_canonical_entry():
    table._entries.clear()
    canonical = canonicalize(MESYLATE)
    assert canonical != MESYLATE
    want = _bits(compute_descriptors(parse_smiles(canonical)).as_list())
    assert _bits(descriptor_values(MESYLATE)) == want
    assert (MESYLATE, "descriptors") not in table._entries
    assert _bits(table._entries[(canonical, "descriptors")]) == want


def test_prediction_on_a_respelled_ion_equals_the_canonical_record():
    from ilkit.predictor import featurize_records, predict, train_ridge

    anions = ["CC(=O)[O-]", "[S-]C#N", "N#C[N-]C#N", "CS([O-])(=O)=O", "FC(F)(F)S(=O)(=O)[O-]"]
    records = [
        SystemRecord("il_solute", cation="CCn1cc[n+](C)c1", anion=a, solute="O=C=O",
                     temperature=298.15 + i, property="solvation_dg", value=-0.1 * i)
        for i, a in enumerate(anions)
    ]
    X = featurize_records(records)
    model = train_ridge(X, [r.value for r in records], 1.0, "solvation_dg")
    canonical, respelled = (
        SystemRecord("il_solute", cation="CCn1cc[n+](C)c1", anion=anion, solute="O=C=O",
                     temperature=300.0)
        for anion in (canonicalize(MESYLATE), MESYLATE)
    )

    def cold(record):
        table._entries.clear()
        return predict(model, record)

    # Each side fills the table from its own spelling; then both read one entry.
    assert cold(respelled) == cold(canonical) == predict(model, respelled)


def _pool_search():
    pool = _respellings(seed=47, size=40)
    seed = SystemRecord(
        "il_solute", cation="CCn1cc[n+](C)c1", anion=pool[1], solute="O=C=O", temperature=298.15
    )

    def predictor(record):
        return sum(descriptor_values(record.anion)[:3])

    config = SearchConfig(beam_width=4, iterations=3, similarity_floor=0.0)
    result = beam_search([seed], {"anion": pool}, predictor, config)
    return [(c.roles_key(), c.value, c.provenance, c.similarity, c.iteration) for c in result.ranked]


def test_pool_preparation_parses_each_text_once(monkeypatch, fresh_table):
    """A cold pool: each distinct text is parsed once, for both its
    canonical SMILES and its fingerprint, and later lookups parse nothing."""
    # Respellings only, so no canonical entry can come from a canonical text.
    pool = [t for t in _respellings(seed=59, size=20) if parse_smiles(t).canonical_smiles != t]
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_smiles(text)

    monkeypatch.setattr(table, "parse_smiles", counted)
    monkeypatch.setattr(canon, "parse_smiles", counted)
    cache = FingerprintCache()
    smiles, fps, _packed = _search_pool("anion", pool + pool[:5], cache)
    assert sorted(parsed) == sorted(pool)
    assert [cache.get(s)[1] for s in smiles] == list(fps)
    assert [canonicalize(t) for t in pool] == [cache.get(t)[0] for t in pool]
    assert sorted(parsed) == sorted(pool)


def _load(tmp_path):
    """Records whose cation alternates between two spellings of EMIM, whose
    refinement ranks are all distinct: both spellings read one certificate
    entry, which a four-entry table evicts between them."""
    texts = _respellings(seed=53, size=12)
    cations = ("CC[n+]1ccn(C)c1", "c1[n+](CC)ccn1C")
    records = [
        SystemRecord("il_solute", cation=cations[i % 2], anion="[S-]C#N", solute=text,
                     temperature=298.15, property="solvation_dg", value=1.0, source_id=f"r{i}")
        for i, text in enumerate(texts)
    ]
    path = tmp_path / "records.csv"
    save_records(records, path)
    return load_records(path)


def test_outputs_do_not_depend_on_table_state(tmp_path, monkeypatch):
    table._entries.clear()
    cold = (_pool_search(), _load(tmp_path))
    warm = (_pool_search(), _load(tmp_path))
    monkeypatch.setattr(table, "MAX_ENTRIES", 4)
    evicting = (_pool_search(), _load(tmp_path))
    assert cold == warm == evicting


def test_long_ingest_keeps_table_and_memory_bounded(tmp_path, monkeypatch):
    """2000 records spelling 1000 distinct texts through a 256-entry table:
    the table stays at its bound, and beyond what the loaded records hold
    the load peaks under a fixed budget. Keeping each parsed molecule
    (about 1.2 KiB apiece here) would break the budget."""
    monkeypatch.setattr(table, "MAX_ENTRIES", 256)
    texts = [t for k in range(1, 501) for t in (f"[{k}CH3]CO", f"OC[{k}CH3]")]
    records = [
        SystemRecord("il_solute", cation="CC[n+]1ccn(C)c1", anion="[S-]C#N", solute=text,
                     temperature=298.15 + rep, property="solvation_dg", value=1.0)
        for text in texts
        for rep in range(2)
    ]
    path = tmp_path / "long.csv"
    save_records(records, path)
    table._entries.clear()
    tracemalloc.start()
    try:
        loaded = load_records(path)
        assert len(table._entries) <= table.MAX_ENTRIES
        table._entries.clear()  # its values are the records' canonical strings
        with_records, peak = tracemalloc.get_traced_memory()
        assert len(loaded) == 1000  # the two spellings of a molecule collapse
        del loaded
        records_held = with_records - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak - records_held < 2.5 * 2**20


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_warm_ingest_streams_rows(tmp_path, suffix):
    """On a warm table (no parsing), a load peaks at under twice what the
    returned records hold: rows are validated as they are read, not first
    collected (which peaked at about 2.6x here)."""
    cations = ["CCn1cc[n+](C)c1", "CCCCn1cc[n+](C)c1", "OCCn1cc[n+](C)c1"]
    anions = ["[S-]C#N", "N#C[N-]C#N", "CC(=O)[O-]"]
    records = [
        SystemRecord("il_solute", cation=cations[i % 3], anion=anions[i // 3 % 3], solute="O=C=O",
                     temperature=250.0 + i / 100, property="solvation_dg", value=i / 1000,
                     source_id=f"s{i}")
        for i in range(2000)
    ]
    path = tmp_path / f"warm.{suffix}"
    save_records(records, path)
    assert len(load_records(path)) == 2000  # warms the table
    tracemalloc.start()
    try:
        loaded = load_records(path)
        with_records, peak = tracemalloc.get_traced_memory()
        del loaded
        records_held = with_records - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * records_held, (peak, records_held)
