"""Canonical atom ranking and SMILES emission.

Ranking is iterative invariant refinement over (element, charge, degree,
hydrogen count, aromatic flag, isotope, chirality presence). Remaining ties
are broken by exploring every tied branch and keeping the lexicographically
smallest emitted string, so the canonical form depends only on the labeled
graph, never on input atom numbering.
"""

from __future__ import annotations

from ..errors import IlkitError
from . import table
from .elements import AROMATIC_ELEMENTS, ORGANIC_SUBSET, atomic_number, implied_hydrogens
from .mol import (
    AROMATIC,
    BOND_ORDER_VALUE,
    CHI_CCW,
    CHI_CW,
    DOUBLE,
    SINGLE,
    STEREO_CIS,
    STEREO_NONE,
    TRIPLE,
    Bond,
    Molecule,
)
from .parser import parse_smiles

_BOND_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}
_ORDER_TOKEN = {SINGLE: "", DOUBLE: "=", TRIPLE: "#", AROMATIC: ""}
_HYDROGEN_SENTINEL = -1

# Guard against pathologically symmetric graphs blowing up tie exploration.
_MAX_RANKINGS = 20000


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
                tuple(sorted((_BOND_CODE[bonds[bi].order], ranks[j]) for j, bi in adj[i])),
            )
            for i in range(len(ranks))
        ]
        new_ranks = _dense_ranks(keys)
        if new_ranks == ranks:
            return ranks
        ranks = new_ranks


def _discrete_rankings(ranks: list[int], bonds, adj, budget: list[int]):
    """Yield every fully-discrete ranking reachable by tie-break choices."""
    cells: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        cells.setdefault(r, []).append(i)
    tied = sorted(r for r, members in cells.items() if len(members) > 1)
    if not tied:
        yield ranks
        return
    for chosen in cells[tied[0]]:
        budget[0] -= 1
        if budget[0] < 0:
            raise IlkitError("molecule too symmetric for canonical tie-breaking")
        keys = [(ranks[i], 0 if i == chosen else 1) for i in range(len(ranks))]
        yield from _discrete_rankings(_refine(_dense_ranks(keys), bonds, adj), bonds, adj, budget)


def canonical_form(mol: Molecule) -> tuple[str, tuple[int, ...]]:
    """Canonical SMILES plus the original atom indices in emission order.

    Fragments are canonicalized independently and joined in sorted string
    order, so the result is invariant to both atom numbering and fragment
    order in the input.
    """
    results: list[tuple[str, list[int]]] = []
    for comp in mol.components():
        sub, back = _extract_component(mol, comp)
        base = refinement_ranks(sub.atoms, sub.bonds)
        adj = _adjacency(sub.atoms, sub.bonds)
        budget = [_MAX_RANKINGS]
        best: tuple[str, tuple[int, ...]] | None = None
        for ranking in _discrete_rankings(base, sub.bonds, adj, budget):
            s, order = _emit(sub, ranking, base)
            if best is None or s < best[0]:
                best = (s, order)
        assert best is not None
        results.append((best[0], [back[i] for i in best[1]]))
    results.sort(key=lambda item: (item[0], item[1]))
    smiles = ".".join(s for s, _ in results)
    order = tuple(i for _, idxs in results for i in idxs)
    return smiles, order


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
    rings = tuple(tuple(remap[i] for i in ring) for ring in mol.rings if ring[0] in remap)
    chiral = {}
    for old in comp:
        seq = mol.chiral_neighbor_order(old)
        if seq is not None:
            chiral[remap[old]] = tuple(
                x if x == _HYDROGEN_SENTINEL else remap[x] for x in seq
            )
    return Molecule(atoms, bonds, rings, chiral), comp


def write_smiles(mol: Molecule, order: list[int] | tuple[int, ...] | None = None) -> str:
    """Emit SMILES; canonical when ``order`` is omitted.

    ``order`` lists atom indices by visit priority and must be a permutation
    of all atoms; it exists so callers can re-encode a molecule arbitrarily.
    """
    if order is None:
        return mol.canonical_smiles
    if sorted(order) != list(range(len(mol.atoms))):
        raise IlkitError("order must be a permutation of all atom indices")
    ranking = [0] * len(mol.atoms)
    for pos, idx in enumerate(order):
        ranking[idx] = pos
    base = refinement_ranks(mol.atoms, mol.bonds)
    s, _ = _emit(mol, ranking, base)
    return s


def _emit(mol: Molecule, priority: list[int], refine_ranks: list[int]) -> tuple[str, tuple[int, ...]]:
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
            emit_seq.append(_HYDROGEN_SENTINEL)
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

    bond_idx: dict[tuple[int, int], int] = {}
    for bi, b in enumerate(mol.bonds):
        bond_idx[(min(b.a, b.b), max(b.a, b.b))] = bi
    directions: dict[int, int] = {}

    def get_side(nbr: int, end: int) -> int:
        bi = bond_idx[(min(end, nbr), max(end, nbr))]
        if bi not in directions:
            return 0
        b = mol.bonds[bi]
        return directions[bi] if b.a == end else -directions[bi]

    def known_side(nbr: int, end: int, skip_bi: int) -> int:
        s = get_side(nbr, end)
        if s:
            return s
        for v, bi in mol.neighbors(end):
            if bi == skip_bi or v == nbr:
                continue
            s = get_side(v, end)
            if s:
                return -s
        return 0

    def apply_side(nbr: int, end: int, side: int, skip_bi: int) -> None:
        bi = bond_idx[(min(end, nbr), max(end, nbr))]
        if mol.bonds[bi].order != SINGLE:
            # Mark the sibling substituent with the opposite side instead.
            for v, bi2 in mol.neighbors(end):
                if bi2 != skip_bi and bi2 != bi and mol.bonds[bi2].order == SINGLE:
                    apply_side(v, end, -side, skip_bi)
                    return
            raise IlkitError("stereo double bond lacks a single-bond substituent")
        b = mol.bonds[bi]
        want = side if b.a == end else -side
        if bi in directions and directions[bi] != want:
            raise IlkitError("conflicting directional-bond constraints")
        directions[bi] = want

    def reference(end: int, skip_bi: int) -> int | None:
        nbrs = [v for v, bi in mol.neighbors(end) if bi != skip_bi]
        if not nbrs:
            return None
        nbrs.sort(key=lambda x: (ranks[x], visit_pos[x]))
        if len(nbrs) == 2 and ranks[nbrs[0]] == ranks[nbrs[1]]:
            return None
        return nbrs[0]

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
