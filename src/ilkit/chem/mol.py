"""Molecular graph types.

A ``Molecule`` is an immutable attributed graph: atoms with element, charge,
hydrogen counts and aromatic flags; bonds with order, ring membership and
normalized double-bond stereo. Hydrogens are stored as counts on their heavy
atom, never as graph nodes (bracket ``[H]`` atoms are the one exception).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

from ..errors import IlkitError

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

BOND_ORDER_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1}
# Bond-order codes hashed into canonical ranks and circular fingerprints.
BOND_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}

# Stands for an implicit hydrogen in a chiral atom's neighbour sequence.
HYDROGEN_SENTINEL = -1

STEREO_NONE = "none"
STEREO_CIS = "cis"
STEREO_TRANS = "trans"

CHI_NONE = ""
CHI_CCW = "@"
CHI_CW = "@@"

T = TypeVar("T")


@dataclass(frozen=True)
class Atom:
    element: str
    formal_charge: int = 0
    explicit_h: int = 0
    implicit_h: int = 0
    aromatic: bool = False
    chirality: str = CHI_NONE
    isotope: int | None = None

    @property
    def total_h(self) -> int:
        return self.explicit_h + self.implicit_h


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: str
    # cis/trans relative to the lowest-invariant-rank neighbor on each end;
    # derived at build time from directional marks, "none" otherwise.
    stereo: str = STEREO_NONE
    in_ring: bool = False

    def other(self, idx: int) -> int:
        if idx == self.a:
            return self.b
        if idx == self.b:
            return self.a
        raise IlkitError(f"atom {idx} is not an endpoint of bond {self.a}-{self.b}")


class Molecule:
    """Immutable molecular graph with perceived rings and aromaticity.

    Construct via ``ilkit.chem.parse_smiles`` or ``ilkit.chem.from_graph``;
    the raw constructor assumes fully finalized atoms and bonds.
    """

    __slots__ = (
        "atoms",
        "bonds",
        "rings",
        "_adj",
        "_chiral_order",
        "_derived",
    )

    def __init__(
        self,
        atoms: tuple[Atom, ...],
        bonds: tuple[Bond, ...],
        rings: tuple[tuple[int, ...], ...],
        chiral_order: dict[int, tuple[int, ...]] | None = None,
    ):
        self.atoms = atoms
        self.bonds = bonds
        self.rings = rings
        adj: list[list[tuple[int, int]]] = [[] for _ in atoms]
        seen = set()
        for bi, bond in enumerate(bonds):
            if bond.a == bond.b:
                raise IlkitError(f"bond {bi} joins atom {bond.a} to itself")
            if not (0 <= bond.a < len(atoms) and 0 <= bond.b < len(atoms)):
                raise IlkitError(f"bond {bi} references an atom index out of range")
            key = (min(bond.a, bond.b), max(bond.a, bond.b))
            if key in seen:
                raise IlkitError(f"duplicate bond between atoms {key[0]} and {key[1]}")
            seen.add(key)
            adj[bond.a].append((bond.b, bi))
            adj[bond.b].append((bond.a, bi))
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        # Neighbor sequences (with -1 for an implicit H) backing @/@@ parity.
        self._chiral_order = dict(chiral_order or {})
        self._derived: dict = {}

    def __len__(self) -> int:
        return len(self.atoms)

    def neighbors(self, idx: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, bond index) pairs in ascending neighbor order."""
        return self._adj[idx]

    def neighbor_atoms(self, idx: int) -> tuple[int, ...]:
        return tuple(n for n, _ in self._adj[idx])

    def degree(self, idx: int) -> int:
        return len(self._adj[idx])

    @property
    def net_charge(self) -> int:
        return sum(a.formal_charge for a in self.atoms)

    def components(self) -> list[list[int]]:
        """Connected components as sorted atom-index lists, in first-atom order."""
        seen = [False] * len(self.atoms)
        out: list[list[int]] = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v, _ in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            out.append(sorted(comp))
        return out

    def chiral_neighbor_order(self, idx: int) -> tuple[int, ...] | None:
        return self._chiral_order.get(idx)

    def derived(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value kept under ``key`` for this molecule, or ``compute()``
        kept there. Values live as long as the molecule; errors are not kept."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = compute()
        return value

    # Canonical form is computed lazily by ilkit.chem.canon and kept here.
    def _get_canonical(self) -> tuple[str, tuple[int, ...]]:
        def compute():
            from .canon import canonical_form

            return canonical_form(self)

        return self.derived("canonical", compute)

    @property
    def canonical_smiles(self) -> str:
        return self._get_canonical()[0]

    @property
    def canonical_order(self) -> tuple[int, ...]:
        """Original atom indices in the order the canonical SMILES visits them."""
        return self._get_canonical()[1]
