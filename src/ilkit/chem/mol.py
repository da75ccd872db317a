"""Molecular graph types.

A ``Molecule`` is an immutable attributed graph: atoms with element, charge,
hydrogen counts and aromatic flags; bonds with order, ring membership and
normalized double-bond stereo. Hydrogens are stored as counts on their heavy
atom, never as graph nodes (bracket ``[H]`` atoms are the one exception).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

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


Adjacency = tuple[tuple[tuple[int, int], ...], ...]


def build_adjacency(n_atoms: int, pairs) -> Adjacency:
    """Per atom, its (neighbor, bond index) pairs in ascending neighbor order.

    ``pairs`` holds each bond's two atom indices, in bond order. The one
    graph every perception and ranking step of a molecule reads.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for bi, (a, b) in enumerate(pairs):
        adj[a].append((b, bi))
        adj[b].append((a, bi))
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


class Molecule:
    """Immutable molecular graph with perceived rings and aromaticity.

    Construct via ``ilkit.chem.parse_smiles`` or ``ilkit.chem.from_graph``.
    The raw constructor checks nothing: it takes finalized atoms and bonds
    and their ``build_adjacency``. ``from_graph`` is where a graph from
    outside the parser is checked.
    """

    __slots__ = (
        "atoms",
        "bonds",
        "rings",
        "adjacency",
        "_chiral_order",
        "_derived",
    )

    def __init__(
        self,
        atoms: tuple[Atom, ...],
        bonds: tuple[Bond, ...],
        rings: tuple[tuple[int, ...], ...],
        adjacency: Adjacency,
        chiral_order: dict[int, tuple[int, ...]] | None = None,
    ):
        self.atoms = atoms
        self.bonds = bonds
        self.rings = rings
        self.adjacency = adjacency
        # Neighbor sequences (with -1 for an implicit H) backing @/@@ parity.
        self._chiral_order = dict(chiral_order or {})
        self._derived: dict = {}

    def __len__(self) -> int:
        return len(self.atoms)

    def neighbors(self, idx: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, bond index) pairs in ascending neighbor order."""
        return self.adjacency[idx]

    def neighbor_atoms(self, idx: int) -> tuple[int, ...]:
        return tuple(n for n, _ in self.adjacency[idx])

    def degree(self, idx: int) -> int:
        return len(self.adjacency[idx])

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
                for v, _ in self.adjacency[u]:
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
