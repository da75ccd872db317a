"""Property test: the canonical SMILES does not depend on atom order.

Each molecule is re-written with ``write_smiles(mol, order)`` under atom
orders drawn by hypothesis (derandomized, so runs are repeatable) and must
canonicalize to the same string.
"""

import pytest

from genmol import HYPERVALENT_ANIONS, SYMMETRIC_PANEL, corpus
from ilkit.chem import canonicalize, parse_smiles, write_smiles

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
