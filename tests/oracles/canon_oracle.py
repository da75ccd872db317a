"""Exhaustive canonical tie-breaking: the reference for ``canonical_form``.

Emits one SMILES for every leaf of the tie tree, with no branch skipped and
no budget, and keeps the first leaf (in depth-first order) whose string is
least. ``canonical_form`` prunes automorphic branches of the same tree and
must return exactly this (SMILES, order). The cost grows with the size of
the automorphism group: tetra-tert-butylmethane takes seconds.

Refinement and emission are frozen here as they stood before ``_refine``
packed neighbor entries into ints, skipped atoms alone in their cell and,
after its first round, keyed only atoms next to a split cell, with a cell's
first position as the rank inside the loop (here every round re-sorts every
atom's (bond code, neighbor rank) tuples and renumbers densely) and
before ``_emit`` stopped building neighbor sequences for atoms without
chirality, took atom tokens built once per molecule (here every emission
asks ``_atom_token`` for every atom) and wrote in one pass over the visit
order (here ring digits are handed out by ``_allocate_ring_digits`` in a
second walk, and a worklist writes each fragment's branches).
``refinement_ranks``, ``_refine`` and ``_emit`` in ``ilkit.chem.canon`` must
give exactly these results.
"""

from __future__ import annotations

from ilkit.chem.canon import (
    _ORDER_TOKEN,
    _atom_token,
    _extract_component,
    _stereo_directions,
)
from ilkit.chem.elements import atomic_number
from ilkit.chem.mol import BOND_CODE, HYDROGEN_SENTINEL, SINGLE
from ilkit.errors import IlkitError


def _adjacency(atoms, bonds) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in atoms]
    for bi, bond in enumerate(bonds):
        adj[bond.a].append((bond.b, bi))
        adj[bond.b].append((bond.a, bi))
    return adj


def _dense_ranks(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def refinement_ranks(atoms, bonds) -> list[int]:
    """Stable neighborhood-refined ranks; equal ranks mean indistinguishable."""
    adj = _adjacency(atoms, bonds)
    keys = [
        (
            atomic_number(a.element),
            a.formal_charge,
            len(adj[i]),
            a.total_h,
            int(a.aromatic),
            a.isotope or 0,
            1 if a.chirality else 0,
        )
        for i, a in enumerate(atoms)
    ]
    return _refine(_dense_ranks(keys), bonds, adj)


def _refine(ranks: list[int], bonds, adj) -> list[int]:
    while True:
        keys = [
            (
                ranks[i],
                tuple(sorted((BOND_CODE[bonds[bi].order], ranks[j]) for j, bi in adj[i])),
            )
            for i in range(len(ranks))
        ]
        new_ranks = _dense_ranks(keys)
        if new_ranks == ranks:
            return ranks
        ranks = new_ranks


def individualize(ranks: list[int], chosen: int) -> list[int]:
    """Dense ranks with ``chosen`` split off just below the rest of its cell."""
    return _dense_ranks([(r, 0 if i == chosen else 1) for i, r in enumerate(ranks)])


def _emit(mol, priority: list[int], refine_ranks: list[int]) -> tuple[str, tuple[int, ...]]:
    """Write SMILES visiting atoms by ascending priority. Returns (string, order)."""
    n = len(mol.atoms)
    adj = [sorted(mol.neighbors(i), key=lambda t: priority[t[0]]) for i in range(n)]

    visit_pos = [-1] * n
    order: list[int] = []
    parent: list[int | None] = [None] * n
    children: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ring_at_opener: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (closer, bond)
    ring_at_closer: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (opener, bond)
    comp_starts: list[int] = []
    seen_edges: set[int] = set()

    for root in sorted(range(n), key=lambda i: priority[i]):
        if visit_pos[root] != -1:
            continue
        comp_starts.append(root)
        visit_pos[root] = len(order)
        order.append(root)
        dfs: list[tuple[int, int]] = [(root, 0)]
        while dfs:
            u, cursor = dfs.pop()
            while cursor < len(adj[u]):
                v, bi = adj[u][cursor]
                cursor += 1
                if bi in seen_edges:
                    continue
                seen_edges.add(bi)
                if visit_pos[v] == -1:
                    visit_pos[v] = len(order)
                    order.append(v)
                    parent[v] = u
                    children[u].append((v, bi))
                    dfs.append((u, cursor))
                    dfs.append((v, 0))
                    break
                # Back edge: v was visited earlier and opens the ring bond.
                ring_at_opener[v].append((u, bi))
                ring_at_closer[u].append((v, bi))

    digit_of = _allocate_ring_digits(mol, order, visit_pos, ring_at_opener)
    directions = _stereo_directions(mol, visit_pos, refine_ranks)

    def bond_token(bi: int, from_atom: int) -> str:
        bond = mol.bonds[bi]
        if bond.order == SINGLE:
            if bi in directions:
                d = directions[bi] if bond.a == from_atom else -directions[bi]
                return "/" if d > 0 else "\\"
            if mol.atoms[bond.a].aromatic and mol.atoms[bond.b].aromatic:
                return "-"
            return ""
        return _ORDER_TOKEN[bond.order]

    def digit_token(d: int) -> str:
        return str(d) if d < 10 else f"%{d:02d}"

    out: list[str] = []

    def emit_atom(u: int) -> None:
        closures = sorted(ring_at_closer[u], key=lambda t: digit_of[t[1]])
        openings = sorted(ring_at_opener[u], key=lambda t: visit_pos[t[0]])
        emit_seq: list[int] = []
        if parent[u] is not None:
            emit_seq.append(parent[u])
        if mol.atoms[u].chirality and mol.atoms[u].total_h == 1:
            emit_seq.append(HYDROGEN_SENTINEL)
        emit_seq.extend(v for v, _bi in closures)
        emit_seq.extend(v for v, _bi in openings)
        emit_seq.extend(v for v, _bi in children[u])
        out.append(_atom_token(mol, u, emit_seq))
        for v, bi in closures:
            out.append(digit_token(digit_of[bi]))
        for v, bi in openings:
            out.append(bond_token(bi, u) + digit_token(digit_of[bi]))

    for fi, root in enumerate(sorted(comp_starts, key=lambda r: visit_pos[r])):
        if fi:
            out.append(".")
        work: list[tuple[str, int, int | None]] = [("atom", root, None)]
        while work:
            kind, u, bi = work.pop()
            if kind == "open":
                out.append("(")
                continue
            if kind == "close":
                out.append(")")
                continue
            if bi is not None:
                out.append(bond_token(bi, parent[u]))
            emit_atom(u)
            kids = children[u]
            items: list[tuple[str, int, int | None]] = []
            for k, (v, cbi) in enumerate(kids):
                if k < len(kids) - 1:
                    items.append(("open", 0, None))
                    items.append(("atom", v, cbi))
                    items.append(("close", 0, None))
                else:
                    items.append(("atom", v, cbi))
            work.extend(reversed(items))

    return "".join(out), tuple(order)


def _allocate_ring_digits(mol, order, visit_pos, ring_at_opener) -> dict[int, int]:
    """Assign ring-closure digits, reusing each digit once its bond closes."""
    opens: list[tuple[int, int, int]] = []  # (open position, close position, bond)
    for u in order:
        for closer, bi in sorted(ring_at_opener[u], key=lambda t: visit_pos[t[0]]):
            opens.append((visit_pos[u], visit_pos[closer], bi))
    opens.sort()
    digit_of: dict[int, int] = {}
    active: list[tuple[int, int]] = []  # (close position, digit)
    free = list(range(1, 100))
    for open_pos, close_pos, bi in opens:
        still = []
        for cp, d in active:
            if cp < open_pos:
                free.append(d)
            else:
                still.append((cp, d))
        active = still
        free.sort()
        if not free:
            raise IlkitError("more than 99 simultaneously open ring bonds")
        d = free.pop(0)
        digit_of[bi] = d
        active.append((close_pos, d))
    return digit_of


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
        yield from _discrete_rankings(_refine(individualize(ranks, chosen), bonds, adj), bonds, adj)


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
