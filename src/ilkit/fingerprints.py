"""Circular (ECFP-style) and atom-pair fingerprints with Tanimoto similarity.

Identifiers come from a fixed seeded 64-bit mixer (see ilkit.stablehash), so
fingerprints are bit-exact reproducible across platforms and runs. Every
identifier goes through one bounded memo of that mixer (``_hash``, at most
4096 int-tuple keys): distinct molecules still share most atom types, small
environments and atom-pair keys, so about three hashes in four repeat a key
already seen. A width of 0 keeps the raw identifier set unfolded, which the
similarity tests use as a collision-free reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chem.elements import atomic_number
from .chem.mol import AROMATIC, BOND_CODE, DOUBLE, Molecule, SINGLE, TRIPLE
from .descriptors.topology import heavy_distances
from .errors import ConfigError, IlkitError
from .stablehash import combine

_PI_BONDS = {SINGLE: 0, DOUBLE: 1, TRIPLE: 2, AROMATIC: 1}
KINDS = ("ecfp", "atom_pair")
DEFAULT_NBITS = 2048
DEFAULT_RADIUS = 2
_DISTANCE_CAP = 30
_hash = functools.lru_cache(maxsize=1 << 12)(combine)


def fingerprint_key(kind: str, radius: int, nbits: int) -> tuple:
    """The one check of fingerprint settings, and the key such fingerprints
    are kept under. Atom pairs ignore the radius (it must still lie in
    [0, 4]), so their key holds ``None`` there: one entry serves every radius."""
    if kind not in KINDS:
        raise ConfigError(f"fingerprint must be {'|'.join(KINDS)}, got {kind!r}")
    if not 0 <= radius <= 4:
        raise ConfigError(f"radius must be in [0, 4], got {radius}")
    if nbits < 0 or nbits & (nbits - 1):
        raise ConfigError(f"nbits must be 0 or a power of two, got {nbits}")
    return ("fingerprint", kind, radius if kind == "ecfp" else None, nbits)


@dataclass(frozen=True)
class Fingerprint:
    kind: str                     # "ecfp" or "atom_pair"
    nbits: int                    # 0 = unfolded identifier set
    radius: int | None
    bits: int | frozenset = 0    # int bitmask when folded, frozenset when unfolded
    popcount: int = 0

    @staticmethod
    def from_ids(kind: str, ids: set[int], nbits: int, radius: int = DEFAULT_RADIUS) -> "Fingerprint":
        _, kind, radius, nbits = fingerprint_key(kind, radius, nbits)
        if nbits == 0:
            frozen = frozenset(ids)
            return Fingerprint(kind, 0, radius, frozen, len(frozen))
        mask = 0
        for ident in ids:
            mask |= 1 << (ident % nbits)
        return Fingerprint(kind, nbits, radius, mask, mask.bit_count())

    def to_hex(self) -> str:
        if self.nbits == 0:
            raise ConfigError("unfolded fingerprints have no fixed-width encoding")
        width = self.nbits // 4
        return format(self.bits, f"0{width}x")


def _initial_invariants(mol: Molecule) -> list[int]:
    ring_atoms = set()
    for bond in mol.bonds:
        if bond.in_ring:
            ring_atoms.add(bond.a)
            ring_atoms.add(bond.b)
    return [
        _hash(
            (
                atomic_number(atom.element),
                atom.formal_charge,
                mol.degree(i),
                atom.total_h,
                int(atom.aromatic),
                int(i in ring_atoms),
            )
        )
        for i, atom in enumerate(mol.atoms)
    ]


def ecfp_identifiers(mol: Molecule, radius: int = DEFAULT_RADIUS) -> set[int]:
    """Unfolded circular-environment identifiers up to the given radius.

    Duplicate environments are dropped: when several environments cover the
    same bond set, only the smallest identifier survives (smaller radius
    first). Keeping the minimum makes the rule independent of atom
    numbering, so fingerprints are canonicalization-invariant.
    """
    fingerprint_key("ecfp", radius, 0)
    current = _initial_invariants(mol)
    ids = set(current)
    codes = [BOND_CODE[bond.order] for bond in mol.bonds]
    # Bonds covered by each atom's environment at the current radius, as a
    # bitmask of bond indices; every radius-0 environment covers none.
    coverage = [0] * len(current)
    seen_envs = {0}
    for layer in range(1, radius + 1):
        new_inv = []
        new_cov = []
        for i, nbrs in enumerate(mol.adjacency):
            # Key: layer, own identifier, then the sorted (bond code,
            # neighbour identifier) pairs, flattened.
            pairs = sorted([(codes[bi], current[j]) for j, bi in nbrs])
            cov = coverage[i]
            for j, bi in nbrs:
                cov |= coverage[j] | 1 << bi
            new_inv.append(_hash(sum(pairs, (layer, current[i]))))
            new_cov.append(cov)
        current = new_inv
        coverage = new_cov
        fresh: dict[int, int] = {}
        for cov, ident in zip(coverage, current):
            if cov in seen_envs:
                continue
            prev = fresh.get(cov)
            if prev is None or ident < prev:
                fresh[cov] = ident
        seen_envs.update(fresh)
        ids.update(fresh.values())
    return ids


def ecfp(mol: Molecule, radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS) -> Fingerprint:
    """Morgan circular fingerprint folded to nbits (0 = keep unfolded)."""
    return Fingerprint.from_ids("ecfp", ecfp_identifiers(mol, radius), nbits, radius)


def atom_pair_identifiers(mol: Molecule) -> set[int]:
    """Unfolded atom-pair identifiers (typed atom pairs + capped distance)."""
    heavy, edges, dist = heavy_distances(mol)
    heavy_deg = [0] * len(heavy)
    pi_bonds = [0] * len(heavy)
    for a, b, order in edges:
        for i in (a, b):
            heavy_deg[i] += 1
            pi_bonds[i] += _PI_BONDS[order]
    types = [
        _hash((atomic_number(mol.atoms[i].element), heavy_deg[k], pi_bonds[k]))
        for k, i in enumerate(heavy)
    ]

    # Many pairs share a (type, type, distance) key; look each key up once.
    keys = set()
    for a in range(len(heavy)):
        for b in range(a + 1, len(heavy)):
            d = dist[a][b]
            if d < 0:
                continue
            t1, t2 = sorted((types[a], types[b]))
            keys.add((t1, t2, min(d, _DISTANCE_CAP)))
    return {_hash(key) for key in keys}


def atom_pair(mol: Molecule, nbits: int = DEFAULT_NBITS) -> Fingerprint:
    return Fingerprint.from_ids("atom_pair", atom_pair_identifiers(mol), nbits)


def make_fingerprint(
    mol: Molecule,
    kind: str = "ecfp",
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> Fingerprint:
    """The molecule's fingerprint, computed once and kept on the molecule
    under ``fingerprint_key``, so atom pairs are kept once per width."""
    key = fingerprint_key(kind, radius, nbits)
    if kind == "ecfp":
        return mol.derived(key, lambda: ecfp(mol, radius, nbits))
    return mol.derived(key, lambda: atom_pair(mol, nbits))


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a & b| / |a | b|; 1.0 when both fingerprints are empty."""
    if a.kind != b.kind or a.nbits != b.nbits or a.radius != b.radius:
        raise IlkitError(
            f"fingerprint mismatch: {a.kind}/{a.nbits} radius {a.radius}"
            f" vs {b.kind}/{b.nbits} radius {b.radius}"
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


def pack(fps: Sequence[Fingerprint], nbits: int) -> tuple[np.ndarray, np.ndarray]:
    """Folded fingerprints as little-endian ``uint64`` rows, plus their bit counts.

    Rows are padded to whole words, so widths below 64 work too.
    """
    width = -(-nbits // 64) * 8
    words = np.frombuffer(
        b"".join(fp.bits.to_bytes(width, "little") for fp in fps), dtype="<u8"
    ).reshape(len(fps), width // 8)
    return words, np.array([fp.popcount for fp in fps], dtype=np.int64)


def packed_tanimoto(row: np.ndarray, count: int, words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Tanimoto of one packed row against each of ``words``; each entry equals ``tanimoto``.

    Counts stay below 2**53, so int64 -> float64 division rounds as
    Python's ``int / int`` does.
    """
    inter = np.bitwise_count(row & words).sum(axis=1, dtype=np.int64)
    union = count + counts - inter
    return np.divide(inter, union, out=np.ones(len(union)), where=union > 0)


def similarity_matrix(
    mols: list[Molecule],
    kind: str = "ecfp",
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> np.ndarray:
    """Symmetric pairwise Tanimoto matrix with a unit diagonal.

    Folded fingerprints are packed once and counted a row block at a time;
    each cell equals ``tanimoto`` of the pair exactly.
    """
    fps = [make_fingerprint(m, kind, radius, nbits) for m in mols]
    n = len(fps)
    out = np.ones((n, n))
    if nbits == 0:
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = tanimoto(fps[i], fps[j])
        return out
    words, counts = pack(fps, nbits)
    for i in range(n - 1):
        out[i, i + 1:] = out[i + 1:, i] = packed_tanimoto(
            words[i], counts[i], words[i + 1:], counts[i + 1:]
        )
    return out
