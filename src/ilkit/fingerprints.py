"""Circular (ECFP-style) and atom-pair fingerprints with Tanimoto similarity.

Identifiers come from a fixed seeded 64-bit mixer (see ilkit.stablehash), so
fingerprints are bit-exact reproducible across platforms and runs. A width
of 0 keeps the raw identifier set unfolded, which the similarity tests use
as a collision-free reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chem.elements import atomic_number
from .chem.mol import AROMATIC, BOND_ORDER_VALUE, DOUBLE, Molecule, SINGLE, TRIPLE
from .errors import IlkitError
from .stablehash import combine

_BOND_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}
DEFAULT_NBITS = 2048
DEFAULT_RADIUS = 2
_DISTANCE_CAP = 30


@dataclass(frozen=True)
class Fingerprint:
    kind: str                     # "ecfp" or "atom_pair"
    nbits: int                    # 0 = unfolded identifier set
    radius: int | None
    bits: int | frozenset = 0    # int bitmask when folded, frozenset when unfolded
    popcount: int = 0

    @staticmethod
    def from_ids(kind: str, ids: set[int], nbits: int, radius: int | None = None) -> "Fingerprint":
        if nbits == 0:
            frozen = frozenset(ids)
            return Fingerprint(kind, 0, radius, frozen, len(frozen))
        if nbits < 1 or nbits & (nbits - 1):
            raise IlkitError(f"nbits must be a power of two, got {nbits}")
        mask = 0
        for ident in ids:
            mask |= 1 << (ident % nbits)
        return Fingerprint(kind, nbits, radius, mask, mask.bit_count())

    def to_hex(self) -> str:
        if self.nbits == 0:
            raise IlkitError("unfolded fingerprints have no fixed-width encoding")
        width = self.nbits // 4
        return format(self.bits, f"0{width}x")


def _initial_invariants(mol: Molecule) -> list[int]:
    ring_atoms = set()
    for bond in mol.bonds:
        if bond.in_ring:
            ring_atoms.add(bond.a)
            ring_atoms.add(bond.b)
    inv = []
    for i, atom in enumerate(mol.atoms):
        inv.append(
            combine(
                (
                    atomic_number(atom.element),
                    atom.formal_charge,
                    mol.degree(i),
                    atom.total_h,
                    int(atom.aromatic),
                    int(i in ring_atoms),
                )
            )
        )
    return inv


def ecfp_identifiers(mol: Molecule, radius: int = DEFAULT_RADIUS) -> set[int]:
    """Unfolded circular-environment identifiers up to the given radius.

    Duplicate environments are dropped: when several environments cover the
    same bond set, only the smallest identifier survives (smaller radius
    first). Keeping the minimum makes the rule independent of atom
    numbering, so fingerprints are canonicalization-invariant.
    """
    if not 0 <= radius <= 4:
        raise IlkitError(f"radius must be in [0, 4], got {radius}")
    ids: set[int] = set()
    invariants = _initial_invariants(mol)
    ids.update(invariants)

    # Bond set covered by each atom's environment at the current radius.
    coverage: list[frozenset[int]] = [frozenset() for _ in mol.atoms]
    seen_envs: set[frozenset[int]] = {frozenset()}  # radius-0 environments
    current = list(invariants)
    for layer in range(1, radius + 1):
        new_inv = []
        new_cov = []
        for i in range(len(mol.atoms)):
            nbrs = sorted(
                (_BOND_CODE[mol.bonds[bi].order], current[j])
                for j, bi in mol.neighbors(i)
            )
            ident = combine(
                [layer, current[i]] + [v for pair in nbrs for v in pair]
            )
            cov = set(coverage[i])
            for j, bi in mol.neighbors(i):
                cov.add(bi)
                cov |= coverage[j]
            new_inv.append(ident)
            new_cov.append(frozenset(cov))
        current = new_inv
        coverage = new_cov
        fresh: dict[frozenset[int], int] = {}
        for i in range(len(mol.atoms)):
            if coverage[i] in seen_envs:
                continue
            prev = fresh.get(coverage[i])
            if prev is None or current[i] < prev:
                fresh[coverage[i]] = current[i]
        for cov, ident in fresh.items():
            seen_envs.add(cov)
            ids.add(ident)
    return ids


def ecfp(mol: Molecule, radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS) -> Fingerprint:
    """Morgan circular fingerprint folded to nbits (0 = keep unfolded)."""
    return Fingerprint.from_ids("ecfp", ecfp_identifiers(mol, radius), nbits, radius)


def atom_pair_identifiers(mol: Molecule) -> set[int]:
    """Unfolded atom-pair identifiers (typed atom pairs + capped distance)."""
    heavy = [i for i, a in enumerate(mol.atoms) if a.element != "H"]
    types: dict[int, int] = {}
    for i in heavy:
        pi_bonds = 0
        heavy_deg = 0
        for j, bi in mol.neighbors(i):
            if mol.atoms[j].element == "H":
                continue
            heavy_deg += 1
            order = mol.bonds[bi].order
            if order == DOUBLE:
                pi_bonds += 1
            elif order == TRIPLE:
                pi_bonds += 2
            elif order == AROMATIC:
                pi_bonds += 1
        types[i] = combine((atomic_number(mol.atoms[i].element), heavy_deg, pi_bonds))

    ids: set[int] = set()
    dist = _topological_distances(mol, heavy)
    for ai in range(len(heavy)):
        for bj in range(ai + 1, len(heavy)):
            d = dist.get((heavy[ai], heavy[bj]))
            if d is None:
                continue
            t1, t2 = sorted((types[heavy[ai]], types[heavy[bj]]))
            ids.add(combine((t1, t2, min(d, _DISTANCE_CAP))))
    return ids


def _topological_distances(mol: Molecule, heavy: list[int]) -> dict[tuple[int, int], int]:
    from collections import deque

    heavy_set = set(heavy)
    out: dict[tuple[int, int], int] = {}
    for start in heavy:
        seen = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, _bi in mol.neighbors(u):
                if v in heavy_set and v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        for target, d in seen.items():
            if start < target:
                out[(start, target)] = d
    return out


def atom_pair(mol: Molecule, nbits: int = DEFAULT_NBITS) -> Fingerprint:
    return Fingerprint.from_ids("atom_pair", atom_pair_identifiers(mol), nbits)


def make_fingerprint(
    mol: Molecule,
    kind: str = "ecfp",
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> Fingerprint:
    if kind == "ecfp":
        return ecfp(mol, radius, nbits)
    if kind == "atom_pair":
        return atom_pair(mol, nbits)
    raise IlkitError(f"unknown fingerprint kind {kind!r}")


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a & b| / |a | b|; 1.0 when both fingerprints are empty."""
    if a.kind != b.kind or a.nbits != b.nbits:
        raise IlkitError(
            f"fingerprint mismatch: {a.kind}/{a.nbits} vs {b.kind}/{b.nbits}"
        )
    if a.nbits == 0:
        inter = len(a.bits & b.bits)
        union = len(a.bits | b.bits)
    else:
        inter = (a.bits & b.bits).bit_count()
        union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return inter / union


def similarity_matrix(
    mols: list[Molecule],
    kind: str = "ecfp",
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> np.ndarray:
    """Symmetric pairwise Tanimoto matrix with a unit diagonal."""
    fps = [make_fingerprint(m, kind, radius, nbits) for m in mols]
    n = len(fps)
    out = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = tanimoto(fps[i], fps[j])
            out[i, j] = v
            out[j, i] = v
    return out
