"""Programmatic molecule construction (used by generators and tests)."""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from ..errors import IlkitError
from .elements import is_known_element
from .mol import (
    BOND_ORDER_VALUE,
    CHI_CCW,
    CHI_CW,
    CHI_NONE,
    DOUBLE,
    HYDROGEN_SENTINEL,
    SINGLE,
    STEREO_CIS,
    STEREO_NONE,
    STEREO_TRANS,
    Molecule,
)
from .parser import _RawAtom, finalize

_STEREO_LABELS = (None, STEREO_NONE, STEREO_CIS, STEREO_TRANS)
_CHIRALITIES = (CHI_NONE, CHI_CCW, CHI_CW)


def from_graph(atoms: Iterable[dict], bonds: Iterable[Sequence]) -> Molecule:
    """Build a molecule from explicit atoms and bonds.

    Each atom dict accepts: element (required), charge, explicit_h, aromatic,
    isotope, chirality. When ``explicit_h`` is omitted the atom is treated
    like a bare SMILES atom and implicit hydrogens are filled from the
    valence table; chiral atoms must state ``explicit_h`` so their neighbor
    frame (ascending indices, hydrogen first) is well defined.

    Bonds are (a, b, order) triples (order defaults to single) with an
    optional fourth stereo entry ("cis"/"trans"; None or "none" for no
    label) interpreted relative to the lowest-rank substituent on each end.

    This is where a graph from outside the parser is checked: an unknown
    element; a charge that is not an int in [-9, 9] (the parser's bound); an
    ``explicit_h`` or ``isotope`` that is not an int >= 0 (``isotope`` may be
    None); a chirality other than "", "@" and "@@"; a bond end that is not an
    int or is out of range; a bond from an atom to itself; a second bond
    between the same two atoms; or an unknown bond order or stereo label
    raises ``IlkitError`` naming the atom or bond.
    The same perception pipeline as SMILES parsing runs afterwards, so the
    result is indistinguishable from a parsed molecule.
    """
    raw_atoms = []
    atom_specs = list(atoms)
    for i, spec in enumerate(atom_specs):
        element = spec.get("element")
        if not is_known_element(element):
            raise IlkitError(f"atom {i}: unknown element {element!r}")
        charge = spec.get("charge", 0)
        if not isinstance(charge, int) or not -9 <= charge <= 9:
            raise IlkitError(f"atom {i}: charge {charge!r} is not an int in [-9, 9]")
        explicit_h = spec.get("explicit_h")
        if explicit_h is not None and not (isinstance(explicit_h, int) and explicit_h >= 0):
            raise IlkitError(f"atom {i}: explicit_h {explicit_h!r} is not an int >= 0")
        isotope = spec.get("isotope")
        if isotope is not None and not (isinstance(isotope, int) and isotope >= 0):
            raise IlkitError(f"atom {i}: isotope {isotope!r} is not None or an int >= 0")
        chirality = spec.get("chirality", "")
        if chirality not in _CHIRALITIES:
            raise IlkitError(f"atom {i}: unknown chirality {chirality!r}")
        if chirality and explicit_h is None:
            raise IlkitError("chiral atoms need an explicit hydrogen count")
        raw_atoms.append(
            _RawAtom(
                element=element,
                charge=charge,
                explicit_h=explicit_h if explicit_h is not None else 0,
                aromatic=spec.get("aromatic", False),
                isotope=isotope,
                chirality=chirality,
                bracket=explicit_h is not None,
            )
        )

    raw_bonds = []
    stereo_requests: list[tuple[int, str]] = []
    neighbors: dict[int, list[int]] = {}
    for bi, spec in enumerate(bonds):
        if len(spec) < 2:
            raise IlkitError(f"bond {bi}: needs at least two atom indices")
        a, b = spec[0], spec[1]
        order = spec[2] if len(spec) > 2 else SINGLE
        stereo = spec[3] if len(spec) > 3 else None
        for end in (a, b):
            if not isinstance(end, int):
                raise IlkitError(f"bond {bi}: atom index {end!r} is not an int")
            if not 0 <= end < len(raw_atoms):
                raise IlkitError(f"bond {bi}: atom index {end} is out of range")
        if a == b:
            raise IlkitError(f"bond {bi} joins atom {a} to itself")
        if b in neighbors.get(a, ()):
            raise IlkitError(f"bond {bi}: atoms {a} and {b} are already bonded")
        if order not in BOND_ORDER_VALUE:
            raise IlkitError(f"bond {bi}: unknown bond order {order!r}")
        if stereo not in _STEREO_LABELS:
            raise IlkitError(f"bond {bi}: unknown stereo label {stereo!r}")
        raw_bonds.append([a, b, order, 0])
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
        if stereo not in (None, STEREO_NONE):
            stereo_requests.append((bi, stereo))

    # Default chiral frame: implicit-H slot first, then neighbors ascending.
    seqs: dict[int, list] = {}
    for i, raw in enumerate(raw_atoms):
        if raw.chirality:
            seq: list = [HYDROGEN_SENTINEL] if raw.explicit_h else []
            seq.extend(sorted(neighbors.get(i, [])))
            seqs[i] = seq

    mol = finalize(raw_atoms, raw_bonds, seqs)
    if stereo_requests:
        new_bonds = list(mol.bonds)
        for bi, stereo in stereo_requests:
            if new_bonds[bi].order != DOUBLE:
                raise IlkitError("stereo labels are only valid on double bonds")
            new_bonds[bi] = replace(new_bonds[bi], stereo=stereo)
        chiral = {
            i: mol.chiral_neighbor_order(i)
            for i in range(len(mol.atoms))
            if mol.chiral_neighbor_order(i) is not None
        }
        mol = Molecule(mol.atoms, tuple(new_bonds), mol.rings, mol.adjacency, chiral)
    return mol
