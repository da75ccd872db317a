"""Exhaustive canonical tie-breaking: the reference for ``canonical_form``.

Emits one SMILES for every leaf of the tie tree, with no branch skipped and
no budget, and keeps the first leaf (in depth-first order) whose string is
least. ``canonical_form`` prunes automorphic branches of the same tree and
must return exactly this (SMILES, order). The cost grows with the size of
the automorphism group: tetra-tert-butylmethane takes seconds.
"""

from __future__ import annotations

from ilkit.chem.canon import (
    _adjacency,
    _dense_ranks,
    _emit,
    _extract_component,
    _refine,
    refinement_ranks,
)


def _discrete_rankings(ranks: list[int], bonds, adj):
    """Yield every fully-discrete ranking reachable by tie-break choices."""
    cells: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        cells.setdefault(r, []).append(i)
    tied = sorted(r for r, members in cells.items() if len(members) > 1)
    if not tied:
        yield ranks
        return
    for chosen in cells[tied[0]]:
        keys = [(ranks[i], 0 if i == chosen else 1) for i in range(len(ranks))]
        yield from _discrete_rankings(_refine(_dense_ranks(keys), bonds, adj), bonds, adj)


def oracle_canonical_form(mol) -> tuple[str, tuple[int, ...]]:
    results: list[tuple[str, list[int]]] = []
    for comp in mol.components():
        sub, back = _extract_component(mol, comp)
        base = refinement_ranks(sub.atoms, sub.bonds)
        adj = _adjacency(sub.atoms, sub.bonds)
        best = None
        for ranking in _discrete_rankings(base, sub.bonds, adj):
            s, order = _emit(sub, ranking, base)
            if best is None or s < best[0]:
                best = (s, order)
        results.append((best[0], [back[i] for i in best[1]]))
    results.sort(key=lambda item: (item[0], item[1]))
    smiles = ".".join(s for s, _ in results)
    order = tuple(i for _, idxs in results for i in idxs)
    return smiles, order
