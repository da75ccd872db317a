from genmol import corpus
from ilkit.chem import parse_smiles
from ilkit.chem.mol import build_adjacency
from ilkit.chem.rings import ring_bond_flags, ring_subgraph, small_cycles, sssr
from oracles import rings_oracle
from oracles.cycles import all_simple_cycles


def test_acyclic_has_no_rings():
    assert parse_smiles("CCO").rings == ()


def test_cyclopropane_single_ring():
    rings = parse_smiles("C1CC1").rings
    assert len(rings) == 1
    assert len(rings[0]) == 3


def test_naphthalene_two_six_rings_vs_cycle_oracle():
    mol = parse_smiles("c1ccc2ccccc2c1")
    rings = mol.rings
    assert sorted(len(r) for r in rings) == [6, 6]
    cycles = all_simple_cycles(len(mol.atoms), [(b.a, b.b) for b in mol.bonds])
    assert sorted(len(c) for c in cycles) == [6, 6, 10]
    ring_edge_sets = {
        frozenset(
            tuple(sorted((r[i], r[(i + 1) % len(r)]))) for i in range(len(r))
        )
        for r in rings
    }
    smallest_two = {c for c in cycles if len(c) == 6}
    assert ring_edge_sets == smallest_two


def test_cyclomatic_identity_on_corpus():
    for mol in corpus(seed=9, size=150):
        assert len(mol.rings) == len(mol.bonds) - len(mol.atoms) + len(mol.components())


def test_spiro_rings_share_one_atom():
    mol = parse_smiles("C1CCC2(CC1)CCCC2")
    rings = mol.rings
    assert len(rings) == 2
    shared = set(rings[0]) & set(rings[1])
    assert len(shared) == 1


def test_pyridine_perception():
    mol = parse_smiles("C1=CC=NC=C1")
    assert all(a.aromatic for a in mol.atoms)
    n = next(a for a in mol.atoms if a.element == "N")
    assert n.total_h == 0


def test_pyrrole_perception():
    mol = parse_smiles("C1=CC=CN1")
    assert all(a.aromatic for a in mol.atoms)
    n = next(a for a in mol.atoms if a.element == "N")
    assert n.total_h == 1


def test_furan_and_thiophene():
    for s in ("C1=CC=CO1", "C1=CC=CS1", "c1ccoc1", "c1ccsc1"):
        mol = parse_smiles(s)
        assert all(a.aromatic for a in mol.atoms), s


def test_cyclopentadiene_not_aromatic():
    mol = parse_smiles("C1=CC=CC1")
    assert not any(a.aromatic for a in mol.atoms)


def test_cyclohexane_not_aromatic():
    mol = parse_smiles("C1CCCCC1")
    assert not any(a.aromatic for a in mol.atoms)


def test_benzoquinone_not_aromatic():
    mol = parse_smiles("O=C1C=CC(=O)C=C1")
    assert not any(a.aromatic for a in mol.atoms)


def test_imidazolium_kekule_matches_aromatic(ion_molecules):
    from ilkit.chem import canonicalize

    assert canonicalize("CCN1C=C[N+](C)=C1") == canonicalize("CCn1cc[n+](C)c1")


def test_fused_kekule_naphthalene_both_rings():
    # The Kekulé structure with the fusion-bond double pointing into one ring
    # needs the fixpoint pass to aromatize the second ring.
    mol = parse_smiles("C1=CC2=CC=CC=C2C=C1")
    assert all(a.aromatic for a in mol.atoms)


def test_tropylium_cation_aromatic():
    mol = parse_smiles("[CH+]1C=CC=CC=C1")
    assert all(a.aromatic for a in mol.atoms)


def test_quinuclidinium_not_aromatic(ions):
    mol = parse_smiles(ions["Quin8_cation"])
    assert not any(a.aromatic for a in mol.atoms)


def test_bond_in_ring_flags():
    mol = parse_smiles("CC1CC1")
    ring_bonds = [b for b in mol.bonds if b.in_ring]
    chain_bonds = [b for b in mol.bonds if not b.in_ring]
    assert len(ring_bonds) == 3
    assert len(chain_bonds) == 1


def test_rings_equal_oracle_on_equality_panel(equality_panel):
    for mol in equality_panel:
        n, pairs = len(mol.atoms), [(b.a, b.b) for b in mol.bonds]
        adj = build_adjacency(n, pairs)
        flags = rings_oracle.ring_bond_flags(n, pairs)
        assert ring_bond_flags(adj) == flags
        assert [b.in_ring for b in mol.bonds] == flags
        ring_adj = ring_subgraph(adj, flags)
        want = rings_oracle.sssr(n, pairs)
        assert sssr(ring_adj) == want
        assert mol.rings == tuple(want)
        assert small_cycles(ring_adj) == rings_oracle.small_cycles(n, pairs)
