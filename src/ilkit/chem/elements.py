"""Element tables: symbols, atomic numbers, weights, and valence rules."""

from __future__ import annotations

from functools import lru_cache

from ..errors import ValenceError

# Elements writable without brackets.
ORGANIC_SUBSET = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})

# Elements that may carry the aromatic (lowercase) flag.
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S"})

# symbol -> (atomic number, standard atomic weight)
# Conventional standard atomic weights rounded to 3 decimals.
ELEMENTS: dict[str, tuple[int, float]] = {
    "H": (1, 1.008),
    "He": (2, 4.003),
    "Li": (3, 6.941),
    "Be": (4, 9.012),
    "B": (5, 10.811),
    "C": (6, 12.011),
    "N": (7, 14.007),
    "O": (8, 15.999),
    "F": (9, 18.998),
    "Ne": (10, 20.180),
    "Na": (11, 22.990),
    "Mg": (12, 24.305),
    "Al": (13, 26.982),
    "Si": (14, 28.086),
    "P": (15, 30.974),
    "S": (16, 32.066),
    "Cl": (17, 35.453),
    "Ar": (18, 39.948),
    "K": (19, 39.098),
    "Ca": (20, 40.078),
    "Ti": (22, 47.867),
    "Cr": (24, 51.996),
    "Mn": (25, 54.938),
    "Fe": (26, 55.845),
    "Co": (27, 58.933),
    "Ni": (28, 58.693),
    "Cu": (29, 63.546),
    "Zn": (30, 65.380),
    "Ga": (31, 69.723),
    "Ge": (32, 72.630),
    "As": (33, 74.922),
    "Se": (34, 78.971),
    "Br": (35, 79.904),
    "Kr": (36, 83.798),
    "Zr": (40, 91.224),
    "Mo": (42, 95.950),
    "Ru": (44, 101.070),
    "Rh": (45, 102.906),
    "Pd": (46, 106.420),
    "Ag": (47, 107.868),
    "Cd": (48, 112.414),
    "In": (49, 114.818),
    "Sn": (50, 118.710),
    "Sb": (51, 121.760),
    "Te": (52, 127.600),
    "I": (53, 126.904),
    "Xe": (54, 131.293),
    "Cs": (55, 132.905),
    "Ba": (56, 137.327),
    "W": (74, 183.840),
    "Pt": (78, 195.084),
    "Au": (79, 196.967),
    "Hg": (80, 200.592),
    "Tl": (81, 204.383),
    "Pb": (82, 207.200),
    "Bi": (83, 208.980),
}

# Base valence sets used for implicit-hydrogen filling and validation.
_VALENCES: dict[str, tuple[int, ...]] = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "F": (1,),
    "Si": (4,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "Cl": (1,),
    "As": (3, 5),
    "Se": (2, 4, 6),
    "Br": (1,),
    "I": (1,),
}


def is_known_element(symbol: str) -> bool:
    return symbol in ELEMENTS


def atomic_number(symbol: str) -> int:
    return ELEMENTS[symbol][0]


def atomic_weight(symbol: str) -> float:
    return ELEMENTS[symbol][1]


@lru_cache(maxsize=len(ELEMENTS) * 19)  # every known element at charges -9..9
def allowed_valences(element: str, charge: int) -> tuple[int, ...] | None:
    """Valences an element may carry at the given formal charge, ascending.

    Returns None for elements outside the valence table (metals etc.); such
    atoms are exempt from valence checking and never get implicit hydrogens.

    The charge shift follows the usual electron-counting conventions:
    N/P/As and O/S/Se/halogens shift by +charge (N+ -> 4, O- -> 1), while
    B/C/Si/H lose a bonding slot per unit of charge in either direction
    (C+ -> 3, C- -> 3, B- -> 4). Anionic P and As may also reach 6, as in
    the hexacoordinate anions PF6-, AsF6- and FAP-.
    """
    base = _VALENCES.get(element)
    if base is None:
        return None
    if charge == 0:
        return base
    if element in ("N", "P", "As", "O", "S", "Se", "F", "Cl", "Br", "I"):
        shifted = tuple(v + charge for v in base)
    elif element == "B":
        shifted = tuple(v - charge for v in base)
    else:  # C, Si, H
        shifted = tuple(v - abs(charge) for v in base)
    shifted = tuple(v for v in shifted if v >= 0)
    if charge == -1 and element in ("P", "As"):
        shifted += (6,)
    return shifted if shifted else (0,)


def implied_hydrogens(element: str, charge: int, aromatic: bool, bond_order_sum: int, n_neighbors: int) -> int:
    """Hydrogen count a bare (bracket-free) atom receives.

    ``bond_order_sum`` counts single=1/double=2/triple=3 and aromatic=1;
    aromatic atoms reserve one extra slot for the ring pi system.
    """
    valences = allowed_valences(element, charge)
    if valences is None:
        return 0
    if aromatic:
        return max(0, valences[0] - n_neighbors - 1)
    for v in valences:
        if v >= bond_order_sum:
            return v - bond_order_sum
    raise ValenceError(
        f"{element} with bond order sum {bond_order_sum} exceeds allowed valences {list(valences)}"
    )
