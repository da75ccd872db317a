import random

import numpy as np
import pytest

from genmol import corpus
from ilkit.chem import parse_smiles, structural_match, write_smiles
from ilkit.errors import IlkitError
from ilkit.fingerprints import (
    Fingerprint,
    atom_pair,
    atom_pair_identifiers,
    ecfp,
    ecfp_identifiers,
    make_fingerprint,
    similarity_matrix,
    tanimoto,
)


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
    with pytest.raises(IlkitError):
        ecfp(parse_smiles("C"), radius=5)


def test_nbits_must_be_power_of_two():
    with pytest.raises(IlkitError):
        ecfp(parse_smiles("C"), nbits=1000)


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
            want = tanimoto(ecfp(mols[i]), ecfp(mols[j]))
            assert m[i, j] == pytest.approx(want, abs=1e-12)


def test_similarity_matrix_single_molecule():
    m = similarity_matrix([parse_smiles("CCO")])
    assert m.shape == (1, 1) and m[0, 0] == 1.0
