import math
import random

import pytest

from genmol import HYPERVALENT_ANIONS, corpus
from ilkit.chem import parse_smiles, write_smiles
from ilkit.descriptors import (
    DESCRIPTOR_NAMES,
    balaban_j,
    bertz_ct,
    compute_descriptors,
    crippen_logp_mr,
    kappa_indices,
    mol_weight,
    tpsa,
)
from ilkit.descriptors.tables import crippen_table
from ilkit.errors import DescriptorError
from oracles.descriptors_oracle import oracle_descriptors

# The 20-molecule agreement panel: fixture ions plus small organics that
# exercise every contribution-table branch used by the corpus.
PANEL = [
    "C",
    "CCO",
    "CCCC",
    "c1ccccc1",
    "Cc1ccccc1",
    "c1ccncc1",
    "CC(=O)NC",
    "CC(=O)OCC",
    "C[C@H](O)C(=O)[O-]",
    "CCOP(=O)([O-])OCC",
    "O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F",
    "CCCCn1cc[n+](C)c1",
    "OCCn1cc[nH+]c1",
    "CC[P+](CCCC)(CCCC)CCCC",
    "CCCCCCCC[N+]12CCC(CC1)CC2",
    "N#C[B-](C#N)(C#N)C#N",
    "[S-]C#N",
    "N#C[N-]C#N",
    "O=C=O",
    "FC(F)(F)c1ccc(Cl)cc1",
]


def test_methane_values():
    d = compute_descriptors(parse_smiles("C"))
    assert d.hbd == 0 and d.hba == 0 and d.rotatable_bonds == 0
    assert d.ring_count == 0 and d.heavy_atoms == 1 and d.heteroatoms == 0
    assert d.tpsa == 0.0
    assert d.frac_csp3 == 1.0


def test_ethanol_values():
    d = compute_descriptors(parse_smiles("CCO"))
    assert d.hbd == 1 and d.hba == 1 and d.rotatable_bonds == 0
    assert abs(d.mol_weight - 46.069) < 1e-3
    assert abs(d.tpsa - 20.23) < 1e-9


def test_crippen_methane_equals_table_sum():
    table = crippen_table()
    logp, mr = crippen_logp_mr(parse_smiles("C"))
    assert abs(logp - (table["C1"][0] + 4 * table["H1"][0])) < 1e-12
    assert abs(mr - (table["C1"][1] + 4 * table["H1"][1])) < 1e-12


def test_crippen_additive_over_fragments():
    one, one_mr = crippen_logp_mr(parse_smiles("C"))
    two, two_mr = crippen_logp_mr(parse_smiles("C.C"))
    assert abs(two - 2 * one) < 1e-12
    assert abs(two_mr - 2 * one_mr) < 1e-12


def test_untypeable_atom_reports_index():
    with pytest.raises(DescriptorError, match="atom 0"):
        crippen_logp_mr(parse_smiles("[Xe]"))


def test_kappa_hand_values():
    k1, _, _ = kappa_indices(parse_smiles("CCC"))
    assert k1 == pytest.approx(3.0, abs=1e-12)
    _, k2, _ = kappa_indices(parse_smiles("CCCC"))
    assert k2 == pytest.approx(3.0, abs=1e-12)
    k1_methane, _, _ = kappa_indices(parse_smiles("C"))
    assert k1_methane == 0.0


def test_balaban_hand_values():
    assert balaban_j(parse_smiles("CC")) == pytest.approx(1.0, abs=1e-12)
    assert balaban_j(parse_smiles("CCC")) == pytest.approx(4 / math.sqrt(6), abs=1e-4)
    assert balaban_j(parse_smiles("C")) == 0.0


def test_balaban_additive_over_fragments():
    j1 = balaban_j(parse_smiles("CCC"))
    j2 = balaban_j(parse_smiles("CCC.CC"))
    assert j2 == pytest.approx(j1 + 1.0, abs=1e-12)


def test_bertz_single_atom_zero():
    assert bertz_ct(parse_smiles("C")) == 0.0


def test_bertz_distinguishes_chain_from_ring():
    assert bertz_ct(parse_smiles("CCCCCC")) != bertz_ct(parse_smiles("C1CCCCC1"))


def test_full_vector_matches_oracle_on_panel():
    for smiles in PANEL:
        mol = parse_smiles(smiles)
        got = compute_descriptors(mol).as_list()
        want = oracle_descriptors(mol)
        for name, g, w in zip(DESCRIPTOR_NAMES, got, want):
            assert g == pytest.approx(w, abs=1e-6), f"{smiles}: {name}"


def test_full_vector_matches_oracle_on_random_corpus():
    for mol in corpus(seed=21, size=80):
        got = compute_descriptors(mol).as_list()
        want = oracle_descriptors(mol)
        for name, g, w in zip(DESCRIPTOR_NAMES, got, want):
            assert g == pytest.approx(w, abs=1e-6), f"{mol.canonical_smiles}: {name}"


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_invariance_under_reencoding(equality_panel):
    """Every atom order gives the same descriptor bits: ten respellings of
    each corpus molecule, two of each equality-panel and hypervalent one."""
    rng = random.Random(4)
    mols = [(mol, 10) for mol in corpus(seed=31, size=60)]
    mols += [(mol, 2) for mol in equality_panel]
    mols += [(parse_smiles(s), 2) for s in HYPERVALENT_ANIONS.values()]
    trials = 0
    for mol, spellings in mols:
        ref = _bits(compute_descriptors(mol).as_list())
        for _ in range(spellings):
            perm = list(range(len(mol.atoms)))
            rng.shuffle(perm)
            text = write_smiles(mol, order=perm)
            assert _bits(compute_descriptors(parse_smiles(text)).as_list()) == ref, text
            trials += 1
    assert trials >= 2500


# Bridged systems with more than one SSSR: which same-size ring the ring
# search keeps depends on atom numbering, and one choice holds a
# heteroatom where the other does not.
@pytest.mark.parametrize("smiles", ["CN1C=2CC1C2Cl", "CC12CC(C1)O2", "C1=C2C[C@@H]1O2"])
def test_ring_counts_do_not_depend_on_which_sssr_a_spelling_finds(smiles):
    mol = parse_smiles(smiles)
    rng = random.Random(6)
    spellings = []
    for _ in range(12):
        perm = list(range(len(mol.atoms)))
        rng.shuffle(perm)
        spellings.append(parse_smiles(write_smiles(mol, order=perm)))
    own_counts = {
        sum(any(m.atoms[i].element != "C" for i in r) for r in m.rings) for m in spellings
    }
    assert len(own_counts) > 1  # the spellings' own SSSRs disagree
    assert {compute_descriptors(m).heterocycles for m in spellings} == {
        compute_descriptors(mol).heterocycles
    }


def test_additivity_over_fragments():
    a = compute_descriptors(parse_smiles("CCO"))
    b = compute_descriptors(parse_smiles("c1ccncc1"))
    both = compute_descriptors(parse_smiles("CCO.c1ccncc1"))
    for name in ("mol_weight", "heavy_atoms", "heteroatoms", "ring_count",
                 "heterocycles", "aromatic_rings", "aromatic_heterocycles", "hbd", "hba"):
        assert getattr(both, name) == pytest.approx(
            getattr(a, name) + getattr(b, name), abs=1e-9
        ), name


def test_bounds_on_corpus():
    for mol in corpus(seed=41, size=80):
        d = compute_descriptors(mol)
        assert 0.0 <= d.frac_csp3 <= 1.0
        assert d.tpsa >= 0.0
        assert d.kappa1 >= 0.0 and d.kappa2 >= 0.0 and d.kappa3 >= 0.0
        assert d.balaban_j >= 0.0
        assert d.bertz_ct >= 0.0
        assert d.heavy_atoms >= d.heteroatoms
        assert d.aromatic_rings <= d.ring_count
        assert d.aromatic_heterocycles <= min(d.aromatic_rings, d.heterocycles)


def test_spiro_detection():
    d = compute_descriptors(parse_smiles("C1CCC2(CC1)CCCC2"))
    assert d.spiro_atoms == 1
    assert compute_descriptors(parse_smiles("c1ccc2ccccc2c1")).spiro_atoms == 0


def test_mol_weight_with_isotope():
    assert mol_weight(parse_smiles("[13CH4]")) == pytest.approx(13 + 4 * 1.008, abs=1e-9)


def test_amide_bond_not_rotatable():
    # N-methylacetamide: the C-N amide bond is excluded, leaving none.
    assert compute_descriptors(parse_smiles("CC(=O)NC")).rotatable_bonds == 0
