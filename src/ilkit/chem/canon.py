"""Canonical atom ranking and SMILES emission.

Ranking is iterative invariant refinement over (element, charge, degree,
hydrogen count, aromatic flag, isotope, chirality presence), where a round
after the first re-keys only atoms next to a split cell. Remaining ties
are broken by a depth-first search over tie-break choices that keeps the
lexicographically smallest emitted string and skips branches a known
automorphism maps onto an explored one, so the canonical form depends only
on the labeled graph, never on input atom numbering.
"""

from __future__ import annotations

import heapq
from itertools import accumulate

from ..errors import IlkitError
from . import table
from .elements import AROMATIC_ELEMENTS, ORGANIC_SUBSET, atomic_number, implied_hydrogens
from .mol import (
    AROMATIC,
    BOND_CODE,
    BOND_ORDER_VALUE,
    CHI_CCW,
    CHI_CW,
    DOUBLE,
    HYDROGEN_SENTINEL,
    SINGLE,
    STEREO_CIS,
    STEREO_NONE,
    TRIPLE,
    Bond,
    Molecule,
    build_adjacency,
)
from .parser import parse_smiles

_ORDER_TOKEN = {SINGLE: "", DOUBLE: "=", TRIPLE: "#", AROMATIC: ""}

# Guard against pathologically symmetric graphs blowing up tie exploration;
# counts explored tie-tree branches.
_MAX_RANKINGS = 20000


def _coded_neighbors(bonds, adj) -> list[list[tuple[int, int]]]:
    """Per atom of adjacency ``adj``, (bond code * atom count, neighbor) pairs.

    Adding a neighbor's rank (always below the atom count) packs the pair
    (bond code, rank) into one int that sorts the way the pair would.
    """
    n = len(adj)
    codes = [BOND_CODE[bond.order] * n for bond in bonds]
    return [[(codes[bi], j) for j, bi in nbrs] for nbrs in adj]


def _dense_ranks(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def refinement_ranks(atoms, nbrs) -> list[int]:
    """Stable neighborhood-refined ranks; equal ranks mean indistinguishable.

    ``nbrs`` is the molecule's ``_coded_neighbors``.
    """
    keys = [
        (
            atomic_number(a.element),
            a.formal_charge,
            len(nbrs[i]),
            a.total_h,
            int(a.aromatic),
            a.isotope or 0,
            1 if a.chirality else 0,
        )
        for i, a in enumerate(atoms)
    ]
    return _refine(_dense_ranks(keys), nbrs)


def _refine(ranks: list[int], nbrs: list[list[tuple[int, int]]]) -> list[int]:
    """Split cells of dense ``ranks`` by sorted neighbor (bond code, rank)
    lists until stable. Rounds are synchronous (every list reads the last
    round's ranks), and inside the loop a rank is its cell's first position,
    which orders atoms as dense ranks would. The first round keys every tied
    atom; later rounds key only tied atoms next to one that moved, that is,
    left a split cell in any piece but one largest. A cell's members had
    equal lists a round earlier, so the others still count each split cell
    wholly in its largest piece and share one list. Lone atoms are never keyed.
    """
    size = [0] * len(ranks)
    for r in ranks:
        size[r] += 1
    first = list(accumulate(size, initial=0))
    rank = [first[r] for r in ranks]
    cell: dict[int, list[int]] = {}  # first position -> members, tied cells only
    for i, r in enumerate(ranks):
        if size[r] > 1:
            cell.setdefault(rank[i], []).append(i)
    hits = dict(cell)  # first position -> members to key this round
    stamp = [0] * len(ranks)  # == rnd: keyed this round
    rnd = 0
    while hits:
        splits = []
        for s, hit in hits.items():
            pieces: dict[tuple[int, ...], list[int]] = {}
            rest = [i for i in cell[s] if stamp[i] != rnd] if len(hit) < len(cell[s]) else []
            for i in hit + rest[:1]:
                key = tuple(sorted([code + rank[j] for code, j in nbrs[i]]))
                pieces.setdefault(key, []).append(i)
            pieces[key] += rest[1:]  # the last key built is the rest's
            if len(pieces) > 1:
                splits.append((s, [pieces[key] for key in sorted(pieces)]))
        if not splits:
            break
        moved = []
        for s, parts in splits:
            del cell[s]
            largest = max(parts, key=len)
            for part in parts:
                if len(part) > 1:
                    cell[s] = part
                for i in part:
                    rank[i] = s
                if part is not largest:
                    moved += part
                s += len(part)
        rnd += 1
        hits = {}
        for m in moved:
            for _, j in nbrs[m]:
                if stamp[j] != rnd and rank[j] in cell:
                    stamp[j] = rnd
                    hits.setdefault(rank[j], []).append(j)
    return _dense_ranks(rank) if rnd else ranks


def _find(uf: list[int], i: int) -> int:
    while uf[i] != i:
        uf[i] = uf[uf[i]]
        i = uf[i]
    return i


def _least_leaf(
    mol: Molecule, base: list[int], nbrs: list[list[tuple[int, int]]]
) -> tuple[str, tuple[int, ...]]:
    """First leaf of the tie tree, in depth-first order, that emits the least string.

    Walks the tree depth-first with an explicit stack, individualizing each
    member of the lowest tied cell in turn and refining. Two leaves that emit
    the same string give an automorphism (the map between their emission
    orders). An automorphism that fixes a node's path maps each child's
    subtree onto another child's with the same leaf strings, so a child in
    the orbit of an explored sibling is skipped, and a subtree found to be
    the image of an explored sibling's is left at once. The first leaf
    reaching the least string is never skipped, so the result is the one
    exhaustive exploration would give.
    """
    tokens = _atom_tokens(mol)
    n = len(base)
    refs: list[tuple[str, tuple[int, ...]]] = []  # [first leaf, best leaf]
    autos: list[list[int]] = []
    # One frame per tied node on the path: [ranks, lowest tied cell, members
    # taken so far (the last is on the path), union-find over atoms (orbits
    # of the path's stabilizer), automorphisms already folded into it].
    frames: list[list] = []
    budget = _MAX_RANKINGS
    ranks: list[int] | None = base
    while True:
        cells: dict[int, list[int]] = {}
        for i, r in enumerate(ranks):
            cells.setdefault(r, []).append(i)
        tied = [r for r, members in cells.items() if len(members) > 1]
        if tied:
            frames.append([ranks, cells[min(tied)], [], [], 0])
        else:
            s, order = _emit(mol, ranks, base, tokens)
            if not refs:
                refs = [(s, order), (s, order)]
            elif s == refs[0][0] or s == refs[1][0]:
                g = [0] * n
                for a, b in zip(refs[0][1] if s == refs[0][0] else refs[1][1], order):
                    g[a] = b
                autos.append(g)
                # Leave the subtree of the first path node whose choice g
                # maps an explored sibling onto.
                for depth, frame in enumerate(frames):
                    taken = frame[2]
                    if any(g[e] == taken[-1] for e in taken[:-1]):
                        del frames[depth + 1:]
                        break
                    if g[taken[-1]] != taken[-1]:
                        break
            elif s < refs[1][0]:
                refs[1] = (s, order)
        ranks = None
        while ranks is None:  # the next child, depth-first
            if not frames:
                return refs[1]
            node, cell, taken, uf, seen = frame = frames[-1]
            for chosen in cell[cell.index(taken[-1]) + 1:] if taken else cell:
                if taken and len(autos) > seen:
                    if not uf:
                        uf.extend(range(n))
                    path = [f[2][-1] for f in frames[:-1]]
                    for g in autos[seen:]:
                        if all(g[a] == a for a in path):
                            for i in cell:
                                uf[_find(uf, i)] = _find(uf, g[i])
                    seen = frame[4] = len(autos)
                if uf and any(_find(uf, e) == _find(uf, chosen) for e in taken):
                    continue
                budget -= 1
                if budget < 0:
                    raise IlkitError("molecule too symmetric for canonical tie-breaking")
                taken.append(chosen)
                keys = [(node[i], 0 if i == chosen else 1) for i in range(n)]
                ranks = _refine(_dense_ranks(keys), nbrs)
                break
            else:
                frames.pop()


def canonical_form(mol: Molecule) -> tuple[str, tuple[int, ...]]:
    """Canonical SMILES plus the original atom indices in emission order.

    Fragments are canonicalized independently and joined in sorted string
    order, so the result is invariant to both atom numbering and fragment
    order in the input.
    """
    results: list[tuple[str, list[int]]] = []
    for comp in mol.components():
        sub, back = _extract_component(mol, comp)
        nbrs = _coded_neighbors(sub.bonds, sub.adjacency)
        base = refinement_ranks(sub.atoms, nbrs)
        if len(set(base)) < len(base):
            s, order = _least_leaf(sub, base, nbrs)
        elif any(a.chirality for a in sub.atoms):
            s, order = _emit(sub, base, base)
        else:
            s, order = _certified_emit(sub, base)
        results.append((s, [back[i] for i in order]))
    results.sort(key=lambda item: (item[0], item[1]))
    smiles = ".".join(s for s, _ in results)
    order = tuple(i for _, idxs in results for i in idxs)
    return smiles, order


def _certified_emit(mol: Molecule, ranks: list[int]) -> tuple[str, tuple[int, ...]]:
    """``_emit`` of an achiral molecule under all-distinct ``ranks``. The
    molecule written in rank terms is a complete certificate (McKay & Piperno
    2014) holding every field ``_emit`` reads, so every spelling shares one
    table entry: the string and the emission order in ranks."""
    atom_of = sorted(range(len(ranks)), key=ranks.__getitem__)
    atoms = [mol.atoms[i] for i in atom_of]
    bonds = [(ranks[b.a], ranks[b.b], b.order, b.stereo) for b in mol.bonds]
    key = (
        "certificate",
        tuple((a.element, a.formal_charge, a.total_h, a.aromatic, a.isotope) for a in atoms),
        tuple(sorted((x, y, o, s) if x < y else (y, x, o, s) for x, y, o, s in bonds)),
    )

    def emit() -> tuple[str, tuple[int, ...]]:
        s, order = _emit(mol, ranks, ranks)
        return s, tuple(ranks[i] for i in order)

    s, rank_order = table.memo(key, emit)
    return s, tuple(atom_of[r] for r in rank_order)


def _extract_component(mol: Molecule, comp: list[int]) -> tuple[Molecule, list[int]]:
    if len(comp) == len(mol.atoms):
        return mol, comp
    remap = {old: new for new, old in enumerate(comp)}
    atoms = tuple(mol.atoms[i] for i in comp)
    bonds = tuple(
        Bond(remap[b.a], remap[b.b], b.order, b.stereo, b.in_ring)
        for b in mol.bonds
        if b.a in remap
    )
    adj = build_adjacency(len(atoms), [(b.a, b.b) for b in bonds])
    rings = tuple(tuple(remap[i] for i in ring) for ring in mol.rings if ring[0] in remap)
    chiral = {}
    for old in comp:
        seq = mol.chiral_neighbor_order(old)
        if seq is not None:
            chiral[remap[old]] = tuple(
                x if x == HYDROGEN_SENTINEL else remap[x] for x in seq
            )
    return Molecule(atoms, bonds, rings, adj, chiral), comp


def write_smiles(mol: Molecule, order: list[int] | tuple[int, ...] | None = None) -> str:
    """Emit SMILES; canonical when ``order`` is omitted.

    ``order`` lists atom indices by visit priority and must be a permutation
    of all atoms; it exists so callers can re-encode a molecule arbitrarily.
    """
    if order is None:
        return mol.canonical_smiles
    if not all(isinstance(i, int) for i in order) or sorted(order) != list(range(len(mol.atoms))):
        raise IlkitError("order must be a permutation of all atom indices")
    ranking = [0] * len(mol.atoms)
    for pos, idx in enumerate(order):
        ranking[idx] = pos
    base = refinement_ranks(mol.atoms, _coded_neighbors(mol.bonds, mol.adjacency))
    s, _ = _emit(mol, ranking, base)
    return s


def _atom_tokens(mol: Molecule) -> list[str | None]:
    """Each atom's SMILES token; None for a chiral atom, whose mark depends
    on the order its neighbors are written in."""
    return [None if atom.chirality else _atom_token(mol, u, []) for u, atom in enumerate(mol.atoms)]


def _emit(
    mol: Molecule,
    priority: list[int],
    refine_ranks: list[int],
    tokens: list[str | None] | None = None,
) -> tuple[str, tuple[int, ...]]:
    """Write SMILES visiting atoms by ascending priority. Returns (string, order).

    ``tokens`` (from ``_atom_tokens``) lets a caller that emits one molecule
    many times build the atom tokens once.
    """
    if tokens is None:
        tokens = _atom_tokens(mol)
    n = len(mol.atoms)
    adj = [sorted(mol.neighbors(i), key=lambda t: priority[t[0]]) for i in range(n)]

    visit_pos = [-1] * n
    order: list[int] = []
    parent: list[tuple[int, int] | None] = [None] * n  # (parent, tree bond)
    children: list[list[int]] = [[] for _ in range(n)]
    openings: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (closer, bond)
    closures: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (opener, bond)
    seen_edges: set[int] = set()

    for root in sorted(range(n), key=lambda i: priority[i]):
        if visit_pos[root] != -1:
            continue
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
                    parent[v] = (u, bi)
                    children[u].append(v)
                    dfs.append((u, cursor))
                    dfs.append((v, 0))
                    break
                # Back edge: v was visited earlier and opens the ring bond.
                openings[v].append((u, bi))
                closures[u].append((v, bi))

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

    # Writing order is visit order: both are the pre-order of the DFS tree
    # with children in discovery order. A ring bond takes the lowest free
    # digit when it opens. A digit is freed only after its closing atom's
    # openings, so a ring opened there takes another one (C1CC12CC2).
    out: list[str] = []
    digit_of: dict[int, int] = {}
    free = list(range(1, 100))  # heap of unused ring digits
    for u in order:
        link = parent[u]
        if link is None:
            if visit_pos[u]:
                out.append(".")
        else:
            p, bi = link
            if children[p][0] != u:
                out.append(")")
            if children[p][-1] != u:
                out.append("(")
            out.append(bond_token(bi, p))
        closed = closures[u]
        opened = openings[u]
        if len(closed) > 1:
            closed.sort(key=lambda t: digit_of[t[1]])
        if len(opened) > 1:
            opened.sort(key=lambda t: visit_pos[t[0]])
        token = tokens[u]
        if token is None:
            emit_seq: list[int] = []  # neighbor order of the written atom
            if link is not None:
                emit_seq.append(link[0])
            if mol.atoms[u].total_h == 1:
                emit_seq.append(HYDROGEN_SENTINEL)
            emit_seq.extend(v for v, _bi in closed)
            emit_seq.extend(v for v, _bi in opened)
            emit_seq.extend(children[u])
            token = _atom_token(mol, u, emit_seq)
        out.append(token)
        for _v, bi in closed:
            out.append(digit_token(digit_of[bi]))
        for _v, bi in opened:
            if not free:
                raise IlkitError("more than 99 simultaneously open ring bonds")
            digit_of[bi] = heapq.heappop(free)
            out.append(bond_token(bi, u) + digit_token(digit_of[bi]))
        for _v, bi in closed:
            heapq.heappush(free, digit_of[bi])

    return "".join(out), tuple(order)


def _needs_bracket(mol: Molecule, u: int) -> bool:
    atom = mol.atoms[u]
    if (
        atom.formal_charge != 0
        or atom.isotope is not None
        or atom.chirality
        or atom.element not in ORGANIC_SUBSET
        or (atom.aromatic and atom.element not in AROMATIC_ELEMENTS)
    ):
        return True
    order_sum = 0
    for _v, bi in mol.neighbors(u):
        order_sum += BOND_ORDER_VALUE[mol.bonds[bi].order]
    implied = implied_hydrogens(atom.element, 0, atom.aromatic, order_sum, mol.degree(u))
    return implied != atom.total_h


def _atom_token(mol: Molecule, u: int, emit_seq: list[int]) -> str:
    atom = mol.atoms[u]
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if not _needs_bracket(mol, u):
        return symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if atom.chirality:
        parts.append(_emitted_mark(mol, u, emit_seq))
    h = atom.total_h
    if h == 1:
        parts.append("H")
    elif h > 1:
        parts.append(f"H{h}")
    q = atom.formal_charge
    if q == 1:
        parts.append("+")
    elif q == -1:
        parts.append("-")
    elif q > 1:
        parts.append(f"+{q}")
    elif q < -1:
        parts.append(str(q))
    parts.append("]")
    return "".join(parts)


def _emitted_mark(mol: Molecule, u: int, emit_seq: list[int]) -> str:
    """@/@@ adjusted for the difference between stored and emitted neighbor order."""
    stored = mol.chiral_neighbor_order(u)
    mark = mol.atoms[u].chirality
    if stored is None or sorted(stored) != sorted(emit_seq):
        return mark
    index_of = {x: k for k, x in enumerate(stored)}
    perm = [index_of[x] for x in emit_seq]
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    if inversions % 2 == 0:
        return mark
    return CHI_CW if mark == CHI_CCW else CHI_CCW


def _stereo_directions(mol: Molecule, visit_pos: list[int], ranks: list[int]) -> dict[int, int]:
    """Choose /\\ marks (sign relative to bond.a->bond.b) realizing cis/trans labels."""
    stereo_bonds = sorted(
        (min(visit_pos[b.a], visit_pos[b.b]), max(visit_pos[b.a], visit_pos[b.b]), bi)
        for bi, b in enumerate(mol.bonds)
        if b.order == DOUBLE and b.stereo != STEREO_NONE
    )
    if not stereo_bonds:
        return {}

    directions: dict[int, int] = {}

    def get_side(bi: int, end: int) -> int:
        if bi not in directions:
            return 0
        return directions[bi] if mol.bonds[bi].a == end else -directions[bi]

    def known_side(ref_bi: int, end: int, skip_bi: int) -> int:
        s = get_side(ref_bi, end)
        if s:
            return s
        for _v, bi in mol.neighbors(end):
            if bi == skip_bi or bi == ref_bi:
                continue
            s = get_side(bi, end)
            if s:
                return -s
        return 0

    def apply_side(bi: int, end: int, side: int, skip_bi: int) -> None:
        if mol.bonds[bi].order != SINGLE:
            # Mark the sibling substituent with the opposite side instead.
            for _v, bi2 in mol.neighbors(end):
                if bi2 != skip_bi and bi2 != bi and mol.bonds[bi2].order == SINGLE:
                    apply_side(bi2, end, -side, skip_bi)
                    return
            raise IlkitError("stereo double bond lacks a single-bond substituent")
        want = side if mol.bonds[bi].a == end else -side
        if bi in directions and directions[bi] != want:
            raise IlkitError("conflicting directional-bond constraints")
        directions[bi] = want

    def reference(end: int, skip_bi: int) -> int | None:
        """The bond to end's lowest-ranked substituent."""
        nbrs = [pair for pair in mol.neighbors(end) if pair[1] != skip_bi]
        if not nbrs:
            return None
        nbrs.sort(key=lambda pair: (ranks[pair[0]], visit_pos[pair[0]]))
        if len(nbrs) == 2 and ranks[nbrs[0][0]] == ranks[nbrs[1][0]]:
            return None
        return nbrs[0][1]

    for _pos, _pos2, bi in stereo_bonds:
        bond = mol.bonds[bi]
        # Orient by traversal so the arbitrary anchor choice is canonical.
        j, k = sorted((bond.a, bond.b), key=lambda x: visit_pos[x])
        ref_j = reference(j, bi)
        ref_k = reference(k, bi)
        if ref_j is None or ref_k is None:
            continue
        side_j = known_side(ref_j, j, bi)
        side_k = known_side(ref_k, k, bi)
        if side_j == 0 and side_k == 0:
            side_j = -1
        if side_j == 0:
            side_j = side_k if bond.stereo == STEREO_CIS else -side_k
        want_k = side_j if bond.stereo == STEREO_CIS else -side_j
        if side_k and side_k != want_k:
            raise IlkitError("conflicting directional-bond constraints")
        apply_side(ref_j, j, side_j, bi)
        apply_side(ref_k, k, want_k, bi)
    return directions


def canonicalize(text: str) -> str:
    """Canonical SMILES of the given SMILES string; the molecular identity key.

    Memoized per input text in the process-wide molecule table; a bad SMILES
    raises on every call.
    """
    return table.memo(text, lambda: parse_smiles(text).canonical_smiles)


def structural_match(a: str, b: str) -> bool:
    """True when both SMILES describe the same labeled molecular graph."""
    return canonicalize(a) == canonicalize(b)
