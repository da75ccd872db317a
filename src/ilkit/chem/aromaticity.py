"""Aromaticity perception.

Candidate rings (every simple cycle of size 5-7) are tested against the
Hückel 4n+2 rule. Each ring atom contributes a small SET of possible pi
electron counts (a Kekulé double bond shared with a fused candidate ring
may count here or there), and a ring is aromatic when some choice of
contributions reaches 2, 6, or 10 electrons. Evaluating sets in a single
pass keeps perception a pure function of the labeled graph: Kekulé and
lowercase inputs, under any atom numbering, converge to the same flags.
"""

from __future__ import annotations

from ..errors import AromaticityError
from .mol import AROMATIC, DOUBLE, TRIPLE, Adjacency, Atom

_HUCKEL_COUNTS = (2, 6, 10)
_LONE_PAIR_DONORS = frozenset({"N", "P", "As", "O", "S", "Se"})


def _contribution_set(
    idx: int,
    ring: set[int],
    atoms: list[Atom],
    orders: list[str],
    adj: Adjacency,
    candidate_atoms: set[int],
) -> tuple[int, ...] | None:
    """Possible pi-electron donations of atom ``idx`` to ring ``ring``.

    None means the atom cannot sit in an aromatic ring at all.
    """
    atom = atoms[idx]
    n_nbrs = len(adj[idx])
    if n_nbrs + atom.total_h > 3:
        return None  # four sigma connections: sp3-like center

    doubles_in_ring = 0
    double_partners_outside: list[int] = []
    aromatic_in_ring = 0
    aromatic_outside = 0
    for other, bi in adj[idx]:
        order = orders[bi]
        if order == TRIPLE:
            return None
        if order == DOUBLE:
            if other in ring:
                doubles_in_ring += 1
            else:
                double_partners_outside.append(other)
        elif order == AROMATIC:
            if other in ring:
                aromatic_in_ring += 1
            else:
                aromatic_outside += 1

    if doubles_in_ring + len(double_partners_outside) > 1:
        return None  # cumulated double bonds: linear sp center
    if doubles_in_ring:
        return (1,)
    if double_partners_outside:
        partner = double_partners_outside[0]
        if partner in candidate_atoms:
            # The double bond may serve a fused ring's Kekulé structure.
            return (0, 1)
        return (1,) if atom.element in _LONE_PAIR_DONORS else (0,)

    elem, q = atom.element, atom.formal_charge
    if aromatic_in_ring:
        # Lowercase input: the Kekulé placement is unknowable, so atoms whose
        # hypothetical double bond could point into a fused ring stay flexible.
        if elem == "C":
            if q == -1:
                return (2,)
            if q == 1:
                return (0,)
            return (0, 1) if aromatic_outside else (1,)
        if elem in ("N", "P", "As"):
            if q == -1:
                return (2,)
            if q == 1:
                # One double bond is required for tetravalent N+.
                return (0, 1) if aromatic_outside else (1,)
            # Neutral: 2 connections force an in-ring double (valence 3);
            # 3 connections force the lone-pair form.
            return (2,) if n_nbrs + atom.total_h == 3 else (1,)
        if elem in ("O", "S", "Se"):
            return (1,) if q == 1 else (2,)
        if elem == "B":
            return (0,)
        return None

    # Saturated atom written in Kekulé style: lone pair or empty orbital.
    if elem in _LONE_PAIR_DONORS:
        return (2,)
    if elem == "C":
        if q == -1:
            return (2,)
        if q == 1:
            return (0,)
        return None
    if elem == "B" and q == 0:
        return (0,)
    return None


def _ring_is_aromatic(sets: list[tuple[int, ...]]) -> bool:
    """True when some choice from each contribution set hits a Hückel count.

    All sets are singletons or consecutive pairs, so achievable totals form
    the full integer interval [sum of minima, sum of maxima].
    """
    low = sum(min(s) for s in sets)
    high = sum(max(s) for s in sets)
    return any(low <= target <= high for target in _HUCKEL_COUNTS)


def perceive_aromaticity(
    atoms: list[Atom],
    ends: list[tuple[int, int]],
    orders: list[str],
    adj: Adjacency,
    rings: list[tuple[int, ...]],
) -> tuple[set[int], set[int]]:
    """Indices of the atoms and of the bonds in perceived aromatic rings.

    ``ends`` and ``orders`` hold each bond's two atoms and its order as
    written, ``adj`` is their ``build_adjacency`` and ``rings`` must hold
    every simple cycle of size 5-7. Nothing is changed: the caller sets the
    aromatic flag of the returned atoms and the aromatic order (with no
    stereo) of the returned bonds. Raises AromaticityError when lowercase
    flags or explicit aromatic bonds cannot be placed in any perceived
    aromatic ring, atoms before bonds.
    """
    candidates = [r for r in rings if 5 <= len(r) <= 7]
    candidate_atoms = {i for r in candidates for i in r}

    aromatic_atoms: set[int] = set()
    aromatic_bonds: set[int] = set()
    for ring in candidates:
        ring_set = set(ring)
        sets = []
        ok = True
        for idx in ring:
            s = _contribution_set(idx, ring_set, atoms, orders, adj, candidate_atoms)
            if s is None:
                ok = False
                break
            sets.append(s)
        if not ok or not _ring_is_aromatic(sets):
            continue
        aromatic_atoms.update(ring)
        n = len(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            aromatic_bonds.update(bi for v, bi in adj[a] if v == b)

    for idx, atom in enumerate(atoms):
        if atom.aromatic and idx not in aromatic_atoms:
            raise AromaticityError(
                f"atom {idx} ({atom.element}) is flagged aromatic but lies in no aromatic ring"
            )
    for bi, order in enumerate(orders):
        if order == AROMATIC and bi not in aromatic_bonds:
            a, b = ends[bi]
            raise AromaticityError(
                f"aromatic bond between atoms {a} and {b} lies in no aromatic ring"
            )
    return aromatic_atoms, aromatic_bonds
