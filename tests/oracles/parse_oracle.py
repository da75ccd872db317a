"""Frozen reference SMILES reader: ``parse_smiles`` and ``finalize`` as they
stood before parsing built each ``Atom`` and ``Bond`` once.

Here every organic-subset atom gets its own ``_RawAtom``, every bond goes
through ``add_bond``, ``finalize`` builds every ``Bond`` and then
``perceive_aromaticity`` rebuilds each aromatic bond and atom with
``dataclasses.replace``, ring perception runs on acyclic molecules too, the
short-cycle walk runs even when the SSSR's rings share no bond, and
``allowed_valences`` builds its tuples on every call. The tokenizer, the
bracket-atom grammar, the valence table, hydrogen filling, aromaticity
perception, valence validation and double-bond stereo are copied verbatim,
so ``ilkit.chem.parser.parse_smiles`` and ``finalize`` must return equal
atoms, bonds, rings, adjacency and chiral orders, or raise the same
exception class with the same message. Ring perception and canonical ranks
come from the library; their own oracles freeze them. ``fields`` and
``outcome`` put what a parse returns or raises in comparable form.
"""

from __future__ import annotations

import re
from dataclasses import replace

from ilkit.chem.mol import (
    AROMATIC,
    BOND_ORDER_VALUE,
    CHI_NONE,
    DOUBLE,
    HYDROGEN_SENTINEL,
    SINGLE,
    STEREO_CIS,
    STEREO_NONE,
    STEREO_TRANS,
    TRIPLE,
    Adjacency,
    Atom,
    Bond,
    Molecule,
    build_adjacency,
)
from ilkit.chem.elements import AROMATIC_ELEMENTS, is_known_element
from ilkit.chem.rings import ring_bond_flags, ring_subgraph, small_cycles, sssr
from ilkit.errors import AromaticityError, SmilesSyntaxError, ValenceError

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


def allowed_valences(element: str, charge: int) -> tuple[int, ...] | None:
    """Valences an element may carry at the given formal charge.

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
        return max(0, min(valences) - n_neighbors - 1)
    for v in sorted(valences):
        if v >= bond_order_sum:
            return v - bond_order_sum
    raise ValenceError(
        f"{element} with bond order sum {bond_order_sum} exceeds allowed valences {sorted(valences)}"
    )


_HUCKEL_COUNTS = (2, 6, 10)
_LONE_PAIR_DONORS = frozenset({"N", "P", "As", "O", "S", "Se"})


def _contribution_set(
    idx: int,
    ring: set[int],
    atoms: list[Atom],
    bonds: list[Bond],
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
        order = bonds[bi].order
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
    bonds: list[Bond],
    adj: Adjacency,
    rings: list[tuple[int, ...]],
) -> tuple[list[Atom], list[Bond]]:
    """Return atoms/bonds with perceived aromatic flags and bond orders.

    ``adj`` is the molecule's ``build_adjacency``; ``rings`` must hold every
    simple cycle of size 5-7. Raises AromaticityError when lowercase flags
    or explicit aromatic bonds cannot be placed in any perceived aromatic
    ring.
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
            s = _contribution_set(idx, ring_set, atoms, bonds, adj, candidate_atoms)
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
    for bi, bond in enumerate(bonds):
        if bond.order == AROMATIC and bi not in aromatic_bonds:
            raise AromaticityError(
                f"aromatic bond between atoms {bond.a} and {bond.b} lies in no aromatic ring"
            )

    # Flagged atoms outside every aromatic ring raised above: flags only turn on.
    new_atoms = [
        replace(atom, aromatic=True) if idx in aromatic_atoms and not atom.aromatic else atom
        for idx, atom in enumerate(atoms)
    ]
    new_bonds = []
    for bi, bond in enumerate(bonds):
        if bi in aromatic_bonds:
            new_bonds.append(replace(bond, order=AROMATIC, stereo="none"))
        else:
            new_bonds.append(bond)
    return new_atoms, new_bonds


_BRACKET_RE = re.compile(
    r"\[(?P<isotope>\d+)?(?P<symbol>[A-Z][a-z]?|[bcnops])"
    r"(?P<chirality>@{1,2})?(?P<hcount>H\d*)?(?P<charge>\++\d*|-+\d*)?\]",
    re.ASCII,  # \d is 0-9 only, not every Unicode digit
)
_TWO_DIGITS = re.compile("[0-9]{2}").match

_BOND_SYMBOLS = {
    "-": (SINGLE, 0),
    "=": (DOUBLE, 0),
    "#": (TRIPLE, 0),
    ":": (AROMATIC, 0),
    "/": (SINGLE, 1),
    "\\": (SINGLE, -1),
}


class _RawAtom:
    __slots__ = ("element", "charge", "explicit_h", "aromatic", "isotope", "chirality", "bracket")

    def __init__(self, element, charge, explicit_h, aromatic, isotope, chirality, bracket):
        self.element = element
        self.charge = charge
        self.explicit_h = explicit_h
        self.aromatic = aromatic
        self.isotope = isotope
        self.chirality = chirality
        self.bracket = bracket


def _parse_bracket(text: str, start: int) -> tuple[_RawAtom, int]:
    end = text.find("]", start)
    if end == -1:
        raise SmilesSyntaxError("unterminated bracket atom", start)
    body = text[start : end + 1]
    m = _BRACKET_RE.fullmatch(body)
    if m is None:
        raise SmilesSyntaxError(f"malformed bracket atom {body!r}", start)
    symbol = m.group("symbol")
    aromatic = symbol.islower()
    element = symbol.capitalize() if aromatic else symbol
    if not is_known_element(element):
        raise SmilesSyntaxError(f"unknown element {symbol!r}", start)
    if aromatic and element not in AROMATIC_ELEMENTS:
        raise SmilesSyntaxError(f"element {element} cannot be aromatic", start)
    isotope = int(m.group("isotope")) if m.group("isotope") else None
    hcount = 0
    if m.group("hcount"):
        digits = m.group("hcount")[1:]
        hcount = int(digits) if digits else 1
    charge = 0
    if m.group("charge"):
        c = m.group("charge")
        sign = 1 if c[0] == "+" else -1
        marks = len(c) - len(c.lstrip(c[0]))
        digits = c[marks:]
        charge = sign * (int(digits) if digits else marks)
        if abs(charge) > 9:
            raise SmilesSyntaxError(f"unreasonable charge {charge:+d}", start)
    chirality = m.group("chirality") or CHI_NONE
    return _RawAtom(element, charge, hcount, aromatic, isotope, chirality, True), end + 1


def _match_organic(text: str, i: int) -> tuple[_RawAtom, int] | None:
    two = text[i : i + 2]
    if two in ("Cl", "Br"):
        return _RawAtom(two, 0, 0, False, None, CHI_NONE, False), i + 2
    ch = text[i]
    if ch in ("B", "C", "N", "O", "P", "S", "F", "I"):
        return _RawAtom(ch, 0, 0, False, None, CHI_NONE, False), i + 1
    if ch in ("b", "c", "n", "o", "p", "s"):
        return _RawAtom(ch.upper(), 0, 0, True, None, CHI_NONE, False), i + 1
    return None


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a finalized Molecule."""
    if text is None or not text.strip():
        raise SmilesSyntaxError("empty SMILES string")
    s = text.strip()
    if any(ch.isspace() for ch in s):
        raise SmilesSyntaxError("SMILES must not contain internal whitespace")

    atoms: list[_RawAtom] = []
    bonds: list[list] = []  # [a, b, order, direction(+1/-1/0 relative a->b)]
    bond_keys: set[tuple[int, int]] = set()
    seqs: dict[int, list[int | tuple]] = {}  # chiral neighbor bookkeeping

    prev: int | None = None
    branch_stack: list[int] = []
    pending: tuple[str, int] | None = None
    pending_pos = 0
    open_rings: dict[int, tuple[int, tuple[str, int] | None, int]] = {}

    def add_bond(a: int, b: int, spec: tuple[str, int] | None, pos: int) -> None:
        key = (min(a, b), max(a, b))
        if a == b:
            raise SmilesSyntaxError("ring bond joins an atom to itself", pos)
        if key in bond_keys:
            raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {b}", pos)
        bond_keys.add(key)
        if spec is None:
            both_aromatic = atoms[a].aromatic and atoms[b].aromatic
            order, direction = (AROMATIC, 0) if both_aromatic else (SINGLE, 0)
        else:
            order, direction = spec
        bonds.append([a, b, order, direction])

    def new_atom(raw: _RawAtom, pos: int) -> None:
        nonlocal prev, pending
        idx = len(atoms)
        atoms.append(raw)
        if raw.chirality:
            seqs[idx] = []
        if prev is not None:
            add_bond(prev, idx, pending, pos)
            if prev in seqs:
                seqs[prev].append(idx)
            if raw.chirality:
                seqs[idx].append(prev)
        elif pending is not None:
            raise SmilesSyntaxError("bond symbol with no preceding atom", pending_pos)
        if raw.chirality and raw.explicit_h:
            seqs[idx].append(HYDROGEN_SENTINEL)
        prev = idx
        pending = None

    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch == "(":
            if prev is None:
                raise SmilesSyntaxError("branch opened before any atom", i)
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before '('", i)
            branch_stack.append(prev)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError("unmatched ')'", i)
            if pending is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'", i)
            prev = branch_stack.pop()
            i += 1
        elif ch == ".":
            if branch_stack:
                raise SmilesSyntaxError("dot separator inside a branch", i)
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before dot separator", i)
            prev = None
            i += 1
        elif ch in _BOND_SYMBOLS:
            if pending is not None:
                raise SmilesSyntaxError("two consecutive bond symbols", i)
            pending = _BOND_SYMBOLS[ch]
            pending_pos = i
            i += 1
        elif "0" <= ch <= "9" or ch == "%":
            if ch == "%":
                if not _TWO_DIGITS(s, i + 1):
                    raise SmilesSyntaxError("'%' must be followed by two digits", i)
                num = int(s[i + 1 : i + 3])
                i += 3
            else:
                num = int(ch)
                i += 1
            if prev is None:
                raise SmilesSyntaxError("ring-closure digit before any atom", i - 1)
            if num in open_rings:
                a, spec_open, _pos = open_rings.pop(num)
                spec = None
                if spec_open is not None and pending is not None:
                    o1, d1 = spec_open
                    o2, d2 = pending
                    if o1 != o2 or (d1 and d2 and d1 != -d2):
                        raise SmilesSyntaxError(f"conflicting bond symbols on ring closure {num}", i - 1)
                    spec = (o1, d1 if d1 else -d2)
                elif spec_open is not None:
                    spec = spec_open
                elif pending is not None:
                    o2, d2 = pending
                    spec = (o2, -d2)  # closing-side mark is written toward the opener
                add_bond(a, prev, spec, i - 1)
                if a in seqs:
                    slot = seqs[a].index(("ring", num))
                    seqs[a][slot] = prev
                if prev in seqs:
                    seqs[prev].append(a)
            else:
                open_rings[num] = (prev, pending, i - 1)
                if prev in seqs:
                    seqs[prev].append(("ring", num))
            pending = None
        elif ch == "[":
            raw, i = _parse_bracket(s, i)
            new_atom(raw, i)
        else:
            matched = _match_organic(s, i)
            if matched is None:
                raise SmilesSyntaxError(f"unsupported token {ch!r}", i)
            raw, i = matched
            new_atom(raw, i)

    if branch_stack:
        raise SmilesSyntaxError("unclosed branch: missing ')'")
    if open_rings:
        digits = ", ".join(str(d) for d in sorted(open_rings))
        raise SmilesSyntaxError(f"unclosed ring bond(s): {digits}")
    if pending is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input", pending_pos)
    if not atoms:
        raise SmilesSyntaxError("no atoms in SMILES string")

    return finalize(atoms, bonds, seqs)


def finalize(raw_atoms: list[_RawAtom], raw_bonds: list[list], seqs: dict[int, list]) -> Molecule:
    """Shared build pipeline: H filling, ring/aromaticity perception, validation."""
    n = len(raw_atoms)
    adj = build_adjacency(n, [(a, b) for a, b, _o, _d in raw_bonds])
    order_sum = [0] * n
    for a, b, order, _d in raw_bonds:
        v = BOND_ORDER_VALUE[order]
        order_sum[a] += v
        order_sum[b] += v

    atoms: list[Atom] = []
    for i, raw in enumerate(raw_atoms):
        if raw.explicit_h is None or not raw.bracket:
            explicit = 0
            try:
                implicit = implied_hydrogens(
                    raw.element, raw.charge, raw.aromatic, order_sum[i], len(adj[i])
                )
            except ValenceError as exc:
                raise ValenceError(f"atom {i}: {exc}") from exc
        else:
            explicit = raw.explicit_h
            implicit = 0
        atoms.append(
            Atom(
                element=raw.element,
                formal_charge=raw.charge,
                explicit_h=explicit,
                implicit_h=implicit,
                aromatic=raw.aromatic,
                chirality=raw.chirality,
                isotope=raw.isotope,
            )
        )

    ring_flags = ring_bond_flags(adj)
    ring_adj = ring_subgraph(adj, ring_flags)
    rings = sssr(ring_adj)

    bonds = [
        Bond(a=a, b=b, order=order, stereo=STEREO_NONE, in_ring=flag)
        for (a, b, order, _d), flag in zip(raw_bonds, ring_flags)
    ]
    candidates = small_cycles(ring_adj, max_size=7)
    atoms, bonds = perceive_aromaticity(atoms, bonds, adj, candidates)

    _validate_valences(atoms, bonds)

    directions = {bi: d for bi, (_a, _b, _o, d) in enumerate(raw_bonds) if d}
    bonds = _assign_double_bond_stereo(atoms, bonds, adj, directions)

    chiral_seq: dict[int, tuple[int, ...]] = {}
    final_atoms: list[Atom] = []
    for i, atom in enumerate(atoms):
        if atom.chirality:
            seq = seqs.get(i, [])
            want = len(adj[i]) + (1 if atom.explicit_h else 0)
            if len(seq) != want or len(seq) not in (3, 4) or atom.total_h > 1:
                # Not a sequenceable tetrahedral center; the mark is meaningless.
                atom = replace(atom, chirality=CHI_NONE)
            else:
                chiral_seq[i] = tuple(seq)
        final_atoms.append(atom)

    return Molecule(tuple(final_atoms), tuple(bonds), tuple(rings), adj, chiral_seq)


def _validate_valences(atoms: list[Atom], bonds: list[Bond]) -> None:
    total = [a.total_h for a in atoms]
    for bond in bonds:
        v = BOND_ORDER_VALUE[bond.order]
        total[bond.a] += v
        total[bond.b] += v
    for i, atom in enumerate(atoms):
        allowed = allowed_valences(atom.element, atom.formal_charge)
        if allowed is None:
            continue
        limit = max(allowed) + (1 if atom.aromatic else 0)
        if total[i] > limit:
            charge = f"{atom.formal_charge:+d}" if atom.formal_charge else "neutral"
            raise ValenceError(
                f"atom {i} ({atom.element}, {charge}) has valence {total[i]}, "
                f"above the allowed maximum {limit}"
            )


def _assign_double_bond_stereo(
    atoms: list[Atom], bonds: list[Bond], adj: Adjacency, directions: dict[int, int]
) -> list[Bond]:
    """Turn directional single-bond marks into cis/trans labels on double bonds.

    The label is stated relative to the lowest-invariant-rank substituent on
    each end, so it does not depend on the input atom numbering. Marks that
    flank no double bond are dropped; identical-rank substituents make the
    bond achiral and yield "none".
    """
    if not directions:
        return bonds

    from ilkit.chem.canon import _coded_neighbors, refinement_ranks

    ranks = refinement_ranks(atoms, _coded_neighbors(bonds, adj))

    def substituent_sides(end: int, double_bi: int) -> dict[int, int] | None:
        """Map neighbor atom -> side (+1/-1) for every non-double neighbor of end."""
        others = [(nbr, bi) for nbr, bi in adj[end] if bi != double_bi]
        if not others or len(others) > 2:
            return None
        sides: dict[int, int] = {}
        for nbr, bi in others:
            if bi not in directions:
                continue
            d = directions[bi] if bonds[bi].a == end else -directions[bi]
            sides[nbr] = d  # +1: neighbor drawn above the axis
        if not sides:
            return None
        if len(sides) == 2 and len(set(sides.values())) == 1:
            raise SmilesSyntaxError(
                f"conflicting directional bonds around atom {end}"
            )
        if len(others) == 2 and len(sides) == 1:
            known = next(iter(sides))
            for nbr, _bi in others:
                if nbr != known:
                    sides[nbr] = -sides[known]
        return sides

    out = list(bonds)
    for bi, bond in enumerate(bonds):
        if bond.order != DOUBLE:
            continue
        sides_a = substituent_sides(bond.a, bi)
        sides_b = substituent_sides(bond.b, bi)
        if not sides_a or not sides_b:
            continue

        def reference(sides: dict[int, int]) -> int | None:
            nbrs = sorted(sides, key=lambda x: (ranks[x], x))
            if len(nbrs) == 2 and ranks[nbrs[0]] == ranks[nbrs[1]]:
                return None  # symmetric substituents: no stereo bond
            return nbrs[0]

        ref_a = reference(sides_a)
        ref_b = reference(sides_b)
        if ref_a is None or ref_b is None:
            continue
        stereo = STEREO_CIS if sides_a[ref_a] == sides_b[ref_b] else STEREO_TRANS
        out[bi] = replace(bond, stereo=stereo)
    return out


def fields(mol) -> str:
    """The repr of a molecule's atoms, bonds (in order), rings, adjacency and
    chiral neighbour orders."""
    chiral = tuple(mol.chiral_neighbor_order(i) for i in range(len(mol.atoms)))
    return repr((mol.atoms, mol.bonds, mol.rings, mol.adjacency, chiral))


def outcome(build, *args):
    """``fields`` of what ``build(*args)`` returns, or the class and message of
    what it raises, so two parsers can be compared on one input."""
    try:
        mol = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return fields(mol)
