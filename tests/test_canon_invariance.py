"""Property tests: identities and fingerprints do not depend on atom order.

Each molecule is re-written with ``write_smiles(mol, order)`` under atom
orders drawn by hypothesis (derandomized, so runs are repeatable). The
respelling must canonicalize to the same string, and its first-sight
fingerprints (one parse for the canonical SMILES and the fingerprint) must
equal the fingerprints of the canonical SMILES's own parse, whatever the
molecule table already holds. Its canonical form (string and atom order)
must equal the one ``_emit`` writes without the table, whichever spelling
filled the certificate entry. Mutated fixture-ion SMILES must be rejected
with an ``IlkitError`` or reach a fixed point with the same ECFP, and the
reader must parse or reject them exactly as its frozen oracle does.
"""

import functools
from collections import OrderedDict
from unittest import mock

import pytest

from conftest import load_ions
from genmol import HYPERVALENT_ANIONS, SYMMETRIC_PANEL, corpus
from ilkit.chem import canon, canonicalize, parse_smiles, table, write_smiles
from ilkit.errors import IlkitError
from ilkit.fingerprints import make_fingerprint
from ilkit.screening import FingerprintCache
from oracles import parse_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MOLECULES = {
    **{name: parse_smiles(s) for name, s in {**SYMMETRIC_PANEL, **HYPERVALENT_ANIONS}.items()},
    **{f"genmol-{i}": mol for i, mol in enumerate(corpus(seed=13, size=120, max_heavy=14))},
}


@pytest.mark.parametrize("name", list(MOLECULES))
@hypothesis.settings(max_examples=8, derandomize=True, database=None, deadline=None)
@hypothesis.given(data=st.data())
def test_canonical_smiles_invariant_under_atom_order(name, data):
    mol = MOLECULES[name]
    order = data.draw(st.permutations(range(len(mol.atoms))), label="order")
    assert canonicalize(write_smiles(mol, order)) == mol.canonical_smiles


def _uncached_form(mol):
    """``canonical_form`` with every component written by ``_emit`` itself."""
    with mock.patch.object(canon, "_certified_emit", lambda m, ranks: canon._emit(m, ranks, ranks)):
        return canon.canonical_form(mol)


def _forms_on(entries, mols):
    """``canonical_form`` of each molecule, in order, on the given table."""
    saved = table._entries
    table._entries = entries
    try:
        return [canon.canonical_form(mol) for mol in mols]
    finally:
        table._entries = saved


# Kept across every example: certificate entries filled by earlier spellings.
_WARM_FORMS: OrderedDict = OrderedDict()


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(data=st.data())
def test_certificate_entries_give_the_uncached_form(equality_panel, data):
    mol = data.draw(st.sampled_from([*equality_panel, *MOLECULES.values()]), label="molecule")
    order = data.draw(st.permutations(range(len(mol.atoms))), label="order")
    respelled = parse_smiles(write_smiles(mol, order))
    want = [_uncached_form(mol), _uncached_form(respelled)]
    assert _forms_on(OrderedDict(), [respelled]) == want[1:]
    assert _forms_on(_WARM_FORMS, [mol, respelled]) == want


SETTINGS = [(kind, 2, nbits) for kind in ("ecfp", "atom_pair") for nbits in (2048, 0)]
CACHES = [FingerprintCache(*settings) for settings in SETTINGS]
# Kept across every example: first sight among the entries of earlier ones.
_WARM_ENTRIES: OrderedDict = OrderedDict()


def _sight(entries, max_entries, text, caches):
    """``cache.get(text)`` for each cache, in order, on the given table."""
    saved = table._entries, table.MAX_ENTRIES
    table._entries, table.MAX_ENTRIES = entries, max_entries
    try:
        return [cache.get(text) for cache in caches]
    finally:
        table._entries, table.MAX_ENTRIES = saved


@functools.cache
def _canonical_parse_fingerprints(name):
    canonical = MOLECULES[name].canonical_smiles
    return [
        (canonical, make_fingerprint(parse_smiles(canonical), *settings))
        for settings in SETTINGS
    ]


@pytest.mark.parametrize("name", list(MOLECULES))
@hypothesis.settings(max_examples=3, derandomize=True, database=None, deadline=None)
@hypothesis.given(data=st.data())
def test_first_sight_fingerprints_equal_the_canonical_parse(name, data):
    mol = MOLECULES[name]
    text = write_smiles(mol, data.draw(st.permutations(range(len(mol.atoms))), label="order"))
    want = _canonical_parse_fingerprints(name)
    limit = table.MAX_ENTRIES
    # Cold: every fingerprint from a first parse of the respelling.
    assert [_sight(OrderedDict(), limit, text, [c])[0] for c in CACHES] == want
    assert _sight(_WARM_ENTRIES, limit, text, CACHES) == want
    # Four entries: texts and fingerprints are evicted between the sightings.
    assert _sight(OrderedDict(), 4, text, CACHES * 2) == want * 2


# Single characters and multi-character tokens a mutation may insert.
_TOKENS = list("CNOSPBFcnos()[]=#-+@/\\.123%H") + ["Cl", "Br", "[nH]", "[O-]", "[N+]", "[C@@H]", "%10"]


@st.composite
def _mutated_ion(draw):
    text = draw(st.sampled_from(sorted(load_ions().values())), label="ion")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text) - 1))
        op = draw(st.sampled_from(["delete", "insert", "replace", "swap", "repeat"]))
        if op == "delete":
            text = text[:i] + text[i + 1:]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(_TOKENS)) + text[i:]
        elif op == "replace":
            text = text[:i] + draw(st.sampled_from(_TOKENS)) + text[i + 1:]
        elif op == "swap":
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
        else:
            j = draw(st.integers(i, len(text)))
            text = text[:j] + text[i:j] + text[j:]
        if not text:
            break
    return text


@hypothesis.settings(max_examples=600, derandomize=True, database=None, deadline=None)
@hypothesis.given(text=_mutated_ion())
def test_mutated_ion_smiles_are_rejected_or_reach_a_fixed_point(text):
    try:
        [(canonical, fp)] = _sight(OrderedDict(), table.MAX_ENTRIES, text, CACHES[:1])
    except IlkitError:
        return
    assert canonicalize(canonical) == canonical
    assert fp == make_fingerprint(parse_smiles(canonical), "ecfp", 2, 2048)


@hypothesis.settings(max_examples=600, derandomize=True, database=None, deadline=None)
@hypothesis.given(text=_mutated_ion())
def test_mutated_ion_smiles_parse_as_the_frozen_oracle_does(text):
    want = parse_oracle.outcome(parse_oracle.parse_smiles, text)
    assert parse_oracle.outcome(parse_smiles, text) == want
