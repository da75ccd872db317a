import functools
import random

import numpy as np
import pytest

from genmol import corpus
from ilkit.chem import parse_smiles, structural_match, write_smiles
from ilkit.descriptors.topology import heavy_distances
from ilkit import fingerprints, screening
from ilkit.errors import ConfigError, IlkitError
from ilkit.stablehash import combine
from ilkit.fingerprints import (
    Fingerprint,
    atom_pair,
    atom_pair_identifiers,
    ecfp,
    ecfp_identifiers,
    fingerprint_key,
    make_fingerprint,
    similarity_matrix,
    tanimoto,
)
from oracles import fp_oracle
from oracles.distances_oracle import _topological_distances


def test_methane_radius0_single_bit():
    assert ecfp(parse_smiles("C"), radius=0).popcount == 1


def test_ethane_radius1_at_most_two_bits():
    fp = ecfp(parse_smiles("CC"), radius=1)
    assert fp.popcount <= 2
    assert len(ecfp_identifiers(parse_smiles("CC"), 1)) == 2


def test_self_similarity_is_one():
    fp = ecfp(parse_smiles("c1ccccc1"))
    assert tanimoto(fp, fp) == 1.0


def test_empty_fingerprints_define_similarity_one():
    a = Fingerprint.from_ids("ecfp", set(), 2048)
    assert tanimoto(a, a) == 1.0


def test_atom_pair_single_atom_empty():
    assert atom_pair(parse_smiles("C")).popcount == 0


def test_atom_pair_ethane_single_descriptor():
    assert len(atom_pair_identifiers(parse_smiles("CC"))) == 1


def test_identical_molecules_identical_fingerprints():
    a = atom_pair(parse_smiles("CCO"))
    b = atom_pair(parse_smiles("OCC"))
    assert a.bits == b.bits


def test_kind_mismatch_rejected():
    with pytest.raises(IlkitError):
        tanimoto(ecfp(parse_smiles("C")), atom_pair(parse_smiles("C")))
    with pytest.raises(IlkitError):
        tanimoto(ecfp(parse_smiles("C"), nbits=1024), ecfp(parse_smiles("C"), nbits=2048))


def test_radius_mismatch_rejected():
    message = r"fingerprint mismatch: ecfp/2048 radius 1 vs ecfp/2048 radius 2$"
    with pytest.raises(IlkitError, match=message):
        tanimoto(ecfp(parse_smiles("CCO"), radius=1), ecfp(parse_smiles("CCN"), radius=2))
    pairs = atom_pair(parse_smiles("CCO"))
    assert tanimoto(pairs, make_fingerprint(parse_smiles("OCC"), "atom_pair", radius=3)) == 1.0


def test_folded_matches_unfolded_set_arithmetic():
    benzene = parse_smiles("c1ccccc1")
    toluene = parse_smiles("Cc1ccccc1")
    folded = tanimoto(ecfp(benzene), ecfp(toluene))
    a = ecfp_identifiers(benzene, 2)
    b = ecfp_identifiers(toluene, 2)
    assert folded == pytest.approx(len(a & b) / len(a | b), abs=1e-12)


def test_unfolded_tanimoto_equals_set_oracle_on_corpus():
    mols = corpus(seed=2, size=40)
    for i in range(0, len(mols) - 1, 2):
        a = ecfp(mols[i], nbits=0)
        b = ecfp(mols[i + 1], nbits=0)
        ids_a = ecfp_identifiers(mols[i])
        ids_b = ecfp_identifiers(mols[i + 1])
        want = 1.0 if not (ids_a | ids_b) else len(ids_a & ids_b) / len(ids_a | ids_b)
        assert tanimoto(a, b) == pytest.approx(want, abs=0)


def test_tanimoto_properties_random_bits():
    rng = random.Random(77)
    for _ in range(2000):
        x = Fingerprint.from_ids("ecfp", {rng.randrange(10**6) for _ in range(rng.randint(0, 40))}, 2048)
        y = Fingerprint.from_ids("ecfp", {rng.randrange(10**6) for _ in range(rng.randint(0, 40))}, 2048)
        t_xy = tanimoto(x, y)
        assert 0.0 <= t_xy <= 1.0
        assert t_xy == tanimoto(y, x)
        if x.popcount:
            assert tanimoto(x, x) == 1.0


def test_fingerprints_are_canonicalization_invariant():
    rng = random.Random(19)
    for mol in corpus(seed=23, size=40):
        ref_e = ecfp(mol).bits
        ref_p = atom_pair(mol).bits
        perm = list(range(len(mol.atoms)))
        rng.shuffle(perm)
        other = parse_smiles(write_smiles(mol, order=perm))
        assert structural_match(mol.canonical_smiles, other.canonical_smiles)
        assert ecfp(other).bits == ref_e
        assert atom_pair(other).bits == ref_p


def test_collision_audit_on_panel():
    # Folding may only nudge similarities slightly at 2048 bits.
    mols = corpus(seed=3, size=24)
    for i in range(0, len(mols) - 1, 2):
        folded = tanimoto(ecfp(mols[i]), ecfp(mols[i + 1]))
        unfolded = tanimoto(ecfp(mols[i], nbits=0), ecfp(mols[i + 1], nbits=0))
        assert abs(folded - unfolded) <= 0.05


def test_radius_bounds():
    for radius in (-1, 5):
        with pytest.raises(ConfigError, match="radius"):
            ecfp(parse_smiles("C"), radius=radius)


def test_nbits_must_be_power_of_two():
    for nbits in (1000, -8):
        with pytest.raises(ConfigError, match="nbits"):
            ecfp(parse_smiles("C"), nbits=nbits)


def test_hex_roundtrip_width():
    fp = ecfp(parse_smiles("CCO"), nbits=2048)
    h = fp.to_hex()
    assert len(h) == 2048 // 4
    assert int(h, 16) == fp.bits


def test_similarity_matrix_properties():
    mols = [parse_smiles(s) for s in ["c1ccccc1", "Cc1ccccc1", "CCO", "CCO"]]
    m = similarity_matrix(mols)
    assert m.shape == (4, 4)
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    assert m[2, 3] == 1.0
    for i in range(4):
        for j in range(4):
            assert m[i, j] == tanimoto(ecfp(mols[i]), ecfp(mols[j]))


def test_similarity_matrix_single_molecule():
    m = similarity_matrix([parse_smiles("CCO")])
    assert m.shape == (1, 1) and m[0, 0] == 1.0
    for nbits in (0, 64, 2048):
        assert similarity_matrix([parse_smiles("C")], "atom_pair", nbits=nbits).tolist() == [[1.0]]


@pytest.mark.parametrize("nbits", [0, 8, 64, 512, 2048])
@pytest.mark.parametrize("kind", ["ecfp", "atom_pair"])
def test_matrix_equals_scalar_tanimoto_cell_by_cell(kind, nbits):
    # Duplicates give 1.0 off the diagonal; single heavy atoms have empty
    # atom-pair fingerprints, whose pairs among themselves are 1.0.
    mols = corpus(seed=13, size=40)
    mols += [parse_smiles(s) for s in ["C", "[Na+]", "O", "CCO", "OCC", "c1ccccc1"]]
    m = similarity_matrix(mols, kind, nbits=nbits)
    fps = [make_fingerprint(mol, kind, nbits=nbits) for mol in mols]
    assert m.shape == (len(mols), len(mols)) and m.dtype == np.float64
    for i in range(len(mols)):
        assert m[i, i] == 1.0
        for j in range(len(mols)):
            if i != j:
                assert m[i, j] == tanimoto(fps[i], fps[j]), (i, j)


def test_similarity_matrix_of_no_molecules():
    for nbits in (0, 64, 2048):
        assert similarity_matrix([], nbits=nbits).shape == (0, 0)


def test_heavy_distances_equal_oracle_on_equality_panel(equality_panel):
    for mol in equality_panel:
        heavy, _edges, dist = heavy_distances(mol)
        assert heavy == [i for i, a in enumerate(mol.atoms) if a.element != "H"]
        got = {}
        for a, row in enumerate(dist):
            assert row[a] == 0
            for b, d in enumerate(row):
                assert d == dist[b][a]
                if a < b and d >= 0:
                    got[(heavy[a], heavy[b])] = d
        assert got == _topological_distances(mol, heavy)


def test_identifiers_and_hex_equal_frozen_oracle_on_equality_panel(equality_panel):
    for mol in equality_panel:
        expected = [("ecfp", r, fp_oracle.ecfp_identifiers(mol, r)) for r in range(5)]
        expected.append(("atom_pair", 2, fp_oracle.atom_pair_identifiers(mol)))
        for kind, radius, want in expected:
            unfolded = make_fingerprint(mol, kind, radius, nbits=0)
            assert unfolded.bits == want
            for nbits in (2048, 32):
                got = Fingerprint.from_ids(kind, unfolded.bits, nbits, radius).to_hex()
                assert got == fp_oracle.folded_hex(want, nbits)


# Every identifier is hashed through one bounded memo, ``fingerprints._hash``.


def test_identifiers_do_not_depend_on_memo_state(equality_panel):
    memo = fingerprints._hash
    maxsize = memo.cache_info().maxsize
    want = [
        ([fp_oracle.ecfp_identifiers(mol, r) for r in (2, 4)], fp_oracle.atom_pair_identifiers(mol))
        for mol in equality_panel
    ]

    def check():
        for mol, (ecfps, pairs) in zip(equality_panel, want):
            assert [ecfp_identifiers(mol, r) for r in (2, 4)] == ecfps
            assert atom_pair_identifiers(mol) == pairs
        assert memo.cache_info().currsize <= maxsize

    memo.cache_clear()
    check()  # from cleared; the panel alone overflows the memo
    check()  # warm
    for k in range(maxsize + 1):
        memo((-1, k))
    assert memo.cache_info().currsize == maxsize
    check()  # overflowed by unrelated keys


def test_each_distinct_key_is_hashed_once(monkeypatch):
    def keys_of(mol):
        keys = set()

        def recorded(values):
            keys.add(tuple(values))
            return combine(values)

        with monkeypatch.context() as m:
            m.setattr(fp_oracle, "combine", recorded)
            fp_oracle.ecfp_identifiers(mol, 2)
            fp_oracle.atom_pair_identifiers(mol)
        return keys

    hashed = []

    def counted(values):
        hashed.append(values)
        return combine(values)

    maxsize = fingerprints._hash.cache_info().maxsize
    monkeypatch.setattr(fingerprints, "_hash", functools.lru_cache(maxsize)(counted))
    # Both molecules carry a butyl chain: the second hashes only its new keys.
    first, second = parse_smiles("CCCCn1cc[n+](C)c1"), parse_smiles("CCCCO")
    seen: set = set()
    for mol in (first, second):
        keys = keys_of(mol)
        hashed.clear()
        ecfp_identifiers(mol)
        atom_pair_identifiers(mol)
        assert len(hashed) == len(set(hashed))
        assert set(hashed) == keys - seen
        seen |= keys
    assert len(hashed) < len(keys_of(second))


# Each molecule keeps its fingerprints: the second request is a lookup.


def _count_identifier_calls(monkeypatch) -> dict[str, int]:
    calls = {"ecfp": 0, "atom_pair": 0}
    for kind, name in (("ecfp", "ecfp_identifiers"), ("atom_pair", "atom_pair_identifiers")):
        plain = getattr(fingerprints, name)

        def counted(*args, _plain=plain, _kind=kind):
            calls[_kind] += 1
            return _plain(*args)

        monkeypatch.setattr(fingerprints, name, counted)
    return calls


def test_make_fingerprint_returns_the_kept_fingerprint(monkeypatch):
    calls = _count_identifier_calls(monkeypatch)
    mol = parse_smiles("CCn1cc[n+](C)c1")
    for kind in ("ecfp", "atom_pair"):
        first = make_fingerprint(mol, kind)
        assert make_fingerprint(mol, kind) is first
    assert calls == {"ecfp": 1, "atom_pair": 1}
    # Another molecule object of the same text computes its own.
    again = parse_smiles("CCn1cc[n+](C)c1")
    assert make_fingerprint(again, "ecfp") == make_fingerprint(mol, "ecfp")
    assert calls == {"ecfp": 2, "atom_pair": 1}


def test_similarity_matrix_reuses_kept_fingerprints(monkeypatch):
    calls = _count_identifier_calls(monkeypatch)
    mols = corpus(seed=17, size=12)
    fps = {kind: [make_fingerprint(m, kind) for m in mols] for kind in ("ecfp", "atom_pair")}
    assert calls == {"ecfp": len(mols), "atom_pair": len(mols)}
    calls.update(ecfp=0, atom_pair=0)
    for kind in ("ecfp", "atom_pair"):
        m = similarity_matrix(mols, kind)
        assert m[0, 1] == tanimoto(fps[kind][0], fps[kind][1])
    assert calls == {"ecfp": 0, "atom_pair": 0}


def test_each_radius_and_width_is_its_own_entry(monkeypatch):
    calls = _count_identifier_calls(monkeypatch)
    mol = parse_smiles("OCC(=O)[O-]")
    variants = [(1, 2048), (2, 2048), (2, 64), (2, 0)]
    fps = [make_fingerprint(mol, "ecfp", r, n) for r, n in variants]
    assert calls["ecfp"] == len(variants)
    for (r, n), fp in zip(variants, fps):
        assert (fp.radius, fp.nbits) == (r, n)
        assert fp == make_fingerprint(parse_smiles("OCC(=O)[O-]"), "ecfp", r, n)
        assert make_fingerprint(mol, "ecfp", r, n) is fp
    # Atom pairs ignore the radius: one entry serves every radius.
    pairs = make_fingerprint(mol, "atom_pair", radius=1)
    assert make_fingerprint(mol, "atom_pair", radius=3) is pairs
    assert pairs.radius is None and calls["atom_pair"] == 1
    assert make_fingerprint(mol, "atom_pair", nbits=64).nbits == 64
    assert make_fingerprint(mol, "atom_pair", nbits=2048) is pairs
    assert calls["atom_pair"] == 2


def test_unknown_kind_or_bad_radius_raises_every_time_and_keeps_nothing():
    mol = parse_smiles("CCO")
    kept = make_fingerprint(mol, "ecfp")
    before = dict(mol._derived)
    for _ in range(2):
        with pytest.raises(ConfigError, match=r"^fingerprint must be ecfp\|atom_pair, got 'maccs'$"):
            make_fingerprint(mol, "maccs")
        with pytest.raises(ConfigError, match="radius"):
            make_fingerprint(mol, "ecfp", radius=5)
        with pytest.raises(ConfigError, match=r"^radius must be in \[0, 4\], got 7$"):
            make_fingerprint(mol, "atom_pair", radius=7)
    assert mol._derived == before
    assert make_fingerprint(mol, "ecfp") is kept


# One check of the settings, and one key per setting that changes a fingerprint.


@pytest.mark.parametrize(
    "kind, radius, nbits, message",
    [
        ("maccs", 2, 2048, "fingerprint must be ecfp|atom_pair, got 'maccs'"),
        ("ecfp", 5, 2048, "radius must be in [0, 4], got 5"),
        ("atom_pair", -1, 2048, "radius must be in [0, 4], got -1"),
        ("atom_pair", 2, 100, "nbits must be 0 or a power of two, got 100"),
        ("ecfp", 2, -8, "nbits must be 0 or a power of two, got -8"),
    ],
)
def test_every_entry_point_refuses_bad_settings_with_one_message(kind, radius, nbits, message):
    mol = parse_smiles("CCO")
    for call in (
        lambda: fingerprint_key(kind, radius, nbits),
        lambda: make_fingerprint(mol, kind, radius, nbits),
        lambda: Fingerprint.from_ids(kind, {1, 2}, nbits, radius),
        lambda: screening.SearchConfig(fingerprint=kind, radius=radius, nbits=nbits).validate(),
        lambda: screening.FingerprintCache(kind, radius, nbits),
    ):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == message


def test_fingerprint_key_drops_the_atom_pair_radius():
    assert fingerprint_key("ecfp", 3, 64) == ("fingerprint", "ecfp", 3, 64)
    pairs = [fingerprint_key("atom_pair", r, 0) for r in range(5)]
    assert pairs == [("fingerprint", "atom_pair", None, 0)] * 5
    assert Fingerprint.from_ids("atom_pair", {1}, 64, 3).radius is None
    assert screening.FingerprintCache("atom_pair", 1).key == ("fingerprint", "atom_pair", None, 2048)
