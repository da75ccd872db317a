import random

import pytest

from genmol import corpus
from ilkit.chem import canonicalize, parse_smiles, table, write_smiles
from ilkit.datasets import SystemRecord, descriptor_values, load_records, save_records
from ilkit.descriptors import compute_descriptors
from ilkit.errors import IlkitError
from ilkit.fingerprints import make_fingerprint
from ilkit.screening import FingerprintCache, SearchConfig, beam_search


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
    cache = FingerprintCache("ecfp", 2, 2048)
    pairs = FingerprintCache("atom_pair", 2, 0)
    for warm in (False, True):
        if not warm:
            table._entries.clear()
        for text in _respellings(seed=43, size=25):
            c = canonicalize(text)
            mol = parse_smiles(c)
            assert _bits(descriptor_values(c)) == _bits(compute_descriptors(mol).as_list())
            assert cache.get(c) == make_fingerprint(mol, "ecfp", 2, 2048)
            assert pairs.get(c) == make_fingerprint(mol, "atom_pair", 2, 0)


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


def _load(tmp_path):
    texts = _respellings(seed=53, size=12)
    records = [
        SystemRecord("il_solute", cation="CC[n+]1ccn(C)c1", anion="[S-]C#N", solute=text,
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
