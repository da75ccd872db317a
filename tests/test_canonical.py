import gc
import hashlib
import random
import sys
from dataclasses import fields

import pytest

from genmol import CURATED_SMILES, HYPERVALENT_ANIONS, SYMMETRIC_PANEL, corpus
from ilkit.chem import (
    canon, canonicalize, from_graph, parse_smiles, structural_match, table, write_smiles
)
from ilkit.chem.canon import _coded_neighbors, _emit, _refine, canonical_form, refinement_ranks
from ilkit.chem.mol import Atom, Bond
from oracles import canon_oracle
from oracles.canon_oracle import oracle_canonical_form
from ilkit.errors import IlkitError
from oracles.iso import isomorphic

TBU4 = "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"


def _shuffled(mol, rng):
    order = list(range(len(mol.atoms)))
    rng.shuffle(order)
    return parse_smiles(write_smiles(mol, order))


def _ladder(k):
    """k rungs: atoms 0..k-1 on top, k..2k-1 below, rung i joins i and k + i.

    Written in index order, every rung but the last is a ring bond and all
    of them are open at once.
    """
    bonds = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    bonds += [(i, k + i) for i in range(k)]
    return from_graph([{"element": "C"} for _ in range(2 * k)], bonds)


def test_same_molecule_different_entry_order():
    assert write_smiles(parse_smiles("OCC")) == write_smiles(parse_smiles("CCO"))


def test_kekule_and_aromatic_unify():
    kek = parse_smiles("C1=CC=CC=C1")
    arom = parse_smiles("c1ccccc1")
    assert isomorphic(kek, arom)
    assert write_smiles(kek) == write_smiles(arom)


def test_canonicalize_is_idempotent_on_examples():
    for s in CURATED_SMILES:
        c = canonicalize(s)
        assert canonicalize(c) == c, s


def test_emim_encodings_share_identity():
    a, b = "CCn1cc[n+](C)c1", "C[n+]1ccn(CC)c1"
    assert isomorphic(parse_smiles(a), parse_smiles(b))
    assert canonicalize(a) == canonicalize(b)


def test_structural_match_examples():
    assert structural_match("CCO", "OCC")
    assert not structural_match("CCO", "CCN")


def test_structural_match_distinct_charge_placement():
    # Resonance forms of dicyanamide with the charge on different nitrogens
    # are distinct labeled graphs; identity is exact, not resonance-aware.
    assert not structural_match("N#C[N-]C#N", "[N-]=C=NC#N")


def test_permutation_invariance_random_orders():
    rng = random.Random(11)
    for s in CURATED_SMILES:
        mol = parse_smiles(s)
        ref = mol.canonical_smiles
        for _ in range(25):
            perm = list(range(len(mol.atoms)))
            rng.shuffle(perm)
            assert canonicalize(write_smiles(mol, order=perm)) == ref, s


def test_round_trip_isomorphism_on_corpus():
    for mol in corpus(seed=5, size=120):
        back = parse_smiles(write_smiles(mol))
        assert isomorphic(mol, back)


def test_fragment_order_invariance():
    assert canonicalize("O.CCO") == canonicalize("CCO.O")
    assert canonicalize("[Na+].[Cl-]") == canonicalize("[Cl-].[Na+]")


def test_stereo_distinguishes_isomers():
    cis = canonicalize("C/C=C\\C")
    trans = canonicalize("C/C=C/C")
    plain = canonicalize("CC=CC")
    assert len({cis, trans, plain}) == 3


def test_chirality_distinguishes_enantiomer_strings():
    r_form = canonicalize("C[C@H](O)C(=O)[O-]")
    s_form = canonicalize("C[C@@H](O)C(=O)[O-]")
    assert r_form != s_form
    # ... but the same configuration written differently converges.
    assert canonicalize("O[C@@H](C)C(=O)[O-]") == r_form


def test_write_smiles_requires_full_permutation():
    mol = parse_smiles("CCO")
    with pytest.raises(IlkitError):
        write_smiles(mol, order=[0, 1])


@pytest.mark.parametrize("order", [[0, 1.0], [1, "0"]])
def test_write_smiles_rejects_order_entries_that_are_not_ints(order):
    with pytest.raises(IlkitError, match="order must be a permutation"):
        write_smiles(parse_smiles("CO"), order=order)


@pytest.mark.parametrize("k, digit", [(11, "C%10"), (100, "C%99")])
def test_two_digit_ring_closures_round_trip(k, digit):
    mol = _ladder(k)
    text = write_smiles(mol, range(2 * k))
    assert digit in text
    assert canonicalize(text) == mol.canonical_smiles


def test_more_than_99_open_ring_bonds_is_an_error():
    with pytest.raises(IlkitError, match="more than 99 simultaneously open ring bonds"):
        write_smiles(_ladder(101), range(202))


def test_ring_digit_closed_at_an_atom_is_not_reused_by_a_ring_it_opens():
    assert canonicalize("C1CC12CC2") == "C1CC12CC2"


def test_charge_bookkeeping_named_ions(ion_molecules):
    for name, mol in ion_molecules.items():
        if name.endswith("cation"):
            assert mol.net_charge == 1, name
        elif name.endswith("anion"):
            assert mol.net_charge == -1, name
        else:
            assert mol.net_charge == 0, name


def _emitted(emit, mol, priority, base):
    try:
        return emit(mol, priority, base)
    except IlkitError as exc:
        return str(exc)


def _chain(k):
    """k chain carbons ending in a quaternary ammonium: refinement needs
    about k / 2 rounds to tell the chain atoms apart."""
    return parse_smiles("C" * k + "[N+](C)(C)CC")


def test_refinement_and_emission_equal_frozen_oracle_on_equality_panel(equality_panel):
    # Base ranks, one random visit priority per molecule (non-canonical DFS
    # orders and fragment root orders), and ladders up to the 99-digit limit.
    # Refinement also starts from all-zero ranks, a random coarse ranking and
    # each individualized member of the first tied cell; long chains and
    # ladders take many rounds.
    rng = random.Random(0)
    extra = [*(_ladder(k) for k in (11, 100, 101)), *(_chain(k) for k in (40, 160))]
    for mol in [*equality_panel, *extra]:
        n = len(mol.atoms)
        nbrs = _coded_neighbors(mol.bonds, mol.adjacency)
        base = refinement_ranks(mol.atoms, nbrs)
        assert base == canon_oracle.refinement_ranks(mol.atoms, mol.bonds)
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for priority in (base, shuffled, list(range(n))):
            expected = _emitted(canon_oracle._emit, mol, priority, base)
            assert _emitted(_emit, mol, priority, base) == expected
        starts = [[0] * n, canon_oracle._dense_ranks([rng.randrange(3) for _ in range(n)])]
        cells: dict[int, list[int]] = {}
        for i, r in enumerate(base):
            cells.setdefault(r, []).append(i)
        tied = [r for r, members in cells.items() if len(members) > 1]
        if tied:
            starts += [canon_oracle.individualize(base, chosen) for chosen in cells[min(tied)]]
        adj = canon_oracle._adjacency(mol.atoms, mol.bonds)
        for start in starts:
            assert _refine(start, nbrs) == canon_oracle._refine(start, mol.bonds, adj)


def test_refinement_reads_each_neighbor_list_a_few_times():
    # From all-zero ranks, re-keying every tied atom each round reads the
    # neighbor lists of this 165-atom chain 6,729 times; keying only atoms
    # next to a split reads them 575 times.
    class Counted(list):
        reads = 0

        def __getitem__(self, i):
            Counted.reads += 1
            return super().__getitem__(i)

    mol = _chain(160)
    nbrs = _coded_neighbors(mol.bonds, mol.adjacency)
    assert _refine([0] * 165, Counted(nbrs)) == refinement_ranks(mol.atoms, nbrs)
    assert len(mol.atoms) == 165 and Counted.reads <= 4 * 165


def _assert_matches_oracle(mol):
    assert canonical_form(mol) == oracle_canonical_form(mol), write_smiles(mol)


def test_pruned_search_matches_exhaustive_on_curated_and_ions(ions):
    for smiles in [*CURATED_SMILES, *ions.values()]:
        _assert_matches_oracle(parse_smiles(smiles))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pruned_search_matches_exhaustive_on_corpus(seed):
    for mol in corpus(seed=seed, size=150, max_heavy=14):
        _assert_matches_oracle(mol)


# FAP- (seconds in the exhaustive search) is pinned below instead.
_ORACLE_PANEL = {
    **SYMMETRIC_PANEL, "PF6": HYPERVALENT_ANIONS["PF6"], "AsF6": HYPERVALENT_ANIONS["AsF6"]
}


@pytest.mark.parametrize("name", sorted(_ORACLE_PANEL))
def test_pruned_search_matches_exhaustive_on_symmetric_panel(name):
    mol = parse_smiles(_ORACLE_PANEL[name])
    rng = random.Random(name)
    _assert_matches_oracle(mol)
    for _ in range(2):
        _assert_matches_oracle(_shuffled(mol, rng))


# Stereo marks on symmetric centres (a swap of two equal neighbours flips a
# written @/@@) and equal arms with different cis/trans bonds: only some
# graph automorphisms keep the string, and pruning with the wrong ones, or
# leaving more of the tree than an automorphism proves redundant, changes
# the result.
_STEREO_SYMMETRIC = [
    "Cl[C@](Cl)(Cl)C(C)(C)[C@@](Cl)(Cl)Cl",
    "F[C@](F)(F)[C@@](F)(F)F",
    "O[C@](O)(O)[C@@](O)(O)O",
    "C[C@@](C)(C)[C@](C)(C)C",
    "O1C(C)(Cl)C([C@](Cl)(Cl)Cl)(N(C)C1)[C@H](C)C",
    "C[N+](C)(C)[C@](C)(C)[N+](C)(C)C",
    "C/C=C\\C(/C=C/C)(/C=C\\C)/C=C/C",
]


@pytest.mark.parametrize("smiles", _STEREO_SYMMETRIC)
def test_pruned_search_matches_exhaustive_on_stereo_symmetric(smiles):
    mol = parse_smiles(smiles)
    rng = random.Random(smiles)
    for _ in range(12):
        _assert_matches_oracle(_shuffled(mol, rng))


# The exhaustive search takes seconds on these, so their canonical strings
# are pinned instead; it gives the same strings.
_PINNED = {
    TBU4: TBU4,
    HYPERVALENT_ANIONS["FAP"]: "C(C(F)(F)[P-](C(C(F)(F)F)(F)F)(C(C(F)(F)F)(F)F)(F)(F)F)(F)(F)F",
}


@pytest.mark.parametrize("source", sorted(_PINNED))
def test_pinned_symmetric_canonical_strings(source):
    canonical = _PINNED[source]
    assert canonicalize(source) == canonical
    assert canonicalize(canonical) == canonical
    mol = parse_smiles(source)
    rng = random.Random(source)
    for _ in range(5):
        assert _shuffled(mol, rng).canonical_smiles == canonical


def _gem_dimethyl_chain(k):
    """C + C(C)(C) * k + C: every gem-dimethyl pair is a tie, so the tie
    tree is about k deep."""
    return parse_smiles("C" + "C(C)(C)" * k + "C")


# sha256 (first 16 hex digits) of the repr of canonical_form, string and
# order, for each chain as written and in three seeded atom orders. These
# tie trees are too large for the exhaustive oracle.
_CHAIN_FORMS_SHA256 = {20: "4d095b511713a3fd", 40: "ac31681b5ce81f25"}


@pytest.mark.parametrize("k", sorted(_CHAIN_FORMS_SHA256))
def test_pinned_gem_dimethyl_chain_forms(k):
    mol = _gem_dimethyl_chain(k)
    forms = [canonical_form(m) for m in [mol, *(_shuffled(mol, random.Random(s)) for s in range(3))]]
    assert len({s for s, _ in forms}) == 1
    assert hashlib.sha256(repr(forms).encode()).hexdigest()[:16] == _CHAIN_FORMS_SHA256[k]


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_tie_search_depth_does_not_grow_with_the_tie_tree():
    # The k = 40 tree is about 40 nodes deep; 30 frames are enough for the
    # search only when it does not recurse per tree level.
    mol = _gem_dimethyl_chain(40)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        form = canonical_form(mol)
    finally:
        sys.setrecursionlimit(old)
    assert form == canonical_form(_gem_dimethyl_chain(40))


def test_tie_search_leaves_no_cyclic_garbage():
    texts = ["CC(C)(C)C", "c1ccccc1", SYMMETRIC_PANEL["NTf2"], "CCCC[N+](CCCC)(CCCC)CCCC"]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for text in texts:
            canonical_form(parse_smiles(text))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(HYPERVALENT_ANIONS))
def test_hypervalent_anions_canonicalize(name):
    canonical = canonicalize(HYPERVALENT_ANIONS[name])
    assert canonicalize(canonical) == canonical


def _emit_calls(monkeypatch, texts):
    """How often ``canonical_form`` of each text, on a cleared table, calls ``_emit``."""
    calls = []

    def counted(*args):
        calls.append(1)
        return _emit(*args)

    table._entries.clear()
    mols = [parse_smiles(t) for t in texts]
    monkeypatch.setattr(canon, "_emit", counted)
    forms = {canonical_form(mol)[0] for mol in mols}
    assert len(forms) == 1
    return len(calls)


def _respelled(smiles, count):
    """``count`` distinct spellings of one molecule whose refinement ranks are all distinct."""
    mol = parse_smiles(smiles)
    base = refinement_ranks(mol.atoms, _coded_neighbors(mol.bonds, mol.adjacency))
    assert len(set(base)) == len(base)
    rng = random.Random(smiles)
    texts = {smiles}
    while len(texts) < count:
        order = list(range(len(mol.atoms)))
        rng.shuffle(order)
        texts.add(write_smiles(mol, order))
    return sorted(texts)


def test_respellings_share_one_emission(monkeypatch):
    # EMIM: every spelling reads the certificate entry the first one filled.
    assert _emit_calls(monkeypatch, _respelled("CCn1cc[n+](C)c1", 10)) == 1


def test_chiral_molecules_are_emitted_per_spelling(monkeypatch):
    # A chiral mark is written against the stored neighbour order, which
    # follows the spelling, so a chiral molecule takes no certificate entry.
    assert _emit_calls(monkeypatch, _respelled("C[C@H](N)C(=O)O", 10)) == 10


# Each pair refines to the same all-distinct ranks, and its certificates
# differ in one field only: element, charge, hydrogens, isotope, bond stereo.
_CERTIFICATE_PAIRS = [
    ("CO", "CS"), ("C[NH-]", "C[NH+]"), ("C[NH]", "CN"), ("OCC", "OC[13CH3]"),
    ("C/C=C/CO", "C/C=C\\CO"),
]


@pytest.mark.parametrize("pair", _CERTIFICATE_PAIRS)
def test_molecules_one_certificate_field_apart_keep_their_own_forms(pair):
    forms = []
    for texts in (pair, pair[::-1]):
        table._entries.clear()
        forms.append([canonical_form(parse_smiles(t)) for t in texts])
    assert forms[0] == forms[1][::-1]
    assert forms[0][0][0] != forms[0][1][0]


def test_certificate_covers_every_atom_and_bond_field():
    # canon._certified_emit keys a molecule on each atom's element, charge,
    # total hydrogens, aromatic flag and isotope (chiral molecules are never
    # keyed) and each bond's ends, order and stereo. Two molecules that
    # differ only in a field left out of the key would share one entry.
    message = "a new field that canon._emit reads must join the certificate in _certified_emit"
    atom = ["element", "formal_charge", "explicit_h", "implicit_h", "aromatic", "chirality", "isotope"]
    assert [f.name for f in fields(Atom)] == atom, message
    assert [f.name for f in fields(Bond)] == ["a", "b", "order", "stereo", "in_ring"], message
