"""SMILES reader.

Supported grammar: organic-subset atoms, bracket atoms with isotope /
chirality / hydrogen count / charge, ring-closure digits (including %nn),
branches, bond symbols ``- = # : / \\``, dot-separated fragments, and the
tetrahedral marks ``@`` / ``@@``. Parsing preserves input atom order. One
scan of the text collects raw atoms (organic-subset atoms share one raw atom
per symbol) and bonds; ``finalize`` then fills implicit hydrogens from the
valence table, finds ring bonds and, only when there are any, the rings,
takes the indices of aromatic atoms and bonds from perception, builds each
``Atom`` and ``Bond`` once, checks valences, and normalizes directional marks
into per-bond cis/trans labels.
"""

from __future__ import annotations

import re
from dataclasses import replace

from ..errors import SmilesSyntaxError, ValenceError
from .aromaticity import perceive_aromaticity
from .elements import (
    AROMATIC_ELEMENTS,
    ORGANIC_SUBSET,
    allowed_valences,
    implied_hydrogens,
    is_known_element,
)
from .mol import (
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
from .rings import ring_bond_flags, ring_subgraph, small_cycles, sssr

_BRACKET_RE = re.compile(
    r"\[(?P<isotope>\d+)?(?P<symbol>[A-Z][a-z]?|[bcnops])"
    r"(?P<chirality>@{1,2})?(?P<hcount>H\d*)?(?P<charge>\++\d*|-+\d*)?\]",
    re.ASCII,  # \d is 0-9 only, not every Unicode digit
)
_TWO_DIGITS = re.compile("[0-9]{2}").match
_WHITESPACE = re.compile(r"\s").search  # \s matches exactly the str.isspace characters

# The bond an omitted symbol stands for, by whether both ends are aromatic.
_IMPLICIT_BOND = {False: (SINGLE, 0), True: (AROMATIC, 0)}
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


# One shared raw atom per organic-subset token; parsing never mutates them.
_ORGANIC = {
    **{sym: _RawAtom(sym, 0, 0, False, None, CHI_NONE, False) for sym in ORGANIC_SUBSET},
    **{sym.lower(): _RawAtom(sym, 0, 0, True, None, CHI_NONE, False) for sym in AROMATIC_ELEMENTS},
}


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a finalized Molecule."""
    s = text.strip() if text is not None else ""
    if not s:
        raise SmilesSyntaxError("empty SMILES string")
    if _WHITESPACE(s):
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

    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch in _ORGANIC or ch == "[":
            if ch == "[":
                raw, i = _parse_bracket(s, i)
            else:
                token = s[i : i + 2] if s[i : i + 2] in ("Cl", "Br") else ch
                raw = _ORGANIC[token]
                i += len(token)
            idx = len(atoms)
            atoms.append(raw)
            if raw.chirality:
                seqs[idx] = []
            if prev is not None:
                # A bond to a new atom cannot join it to itself or repeat a bond.
                bond_keys.add((prev, idx))
                if pending is None:
                    pending = _IMPLICIT_BOND[raw.aromatic and atoms[prev].aromatic]
                bonds.append([prev, idx, *pending])
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
        elif ch == "(":
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
                if a == prev:
                    raise SmilesSyntaxError("ring bond joins an atom to itself", i - 1)
                key = (a, prev) if a < prev else (prev, a)
                if key in bond_keys:
                    raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {prev}", i - 1)
                bond_keys.add(key)
                if spec is None:
                    spec = _IMPLICIT_BOND[atoms[a].aromatic and atoms[prev].aromatic]
                bonds.append([a, prev, *spec])
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
        else:
            raise SmilesSyntaxError(f"unsupported token {ch!r}", i)

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
    """Shared build pipeline of ``parse_smiles`` and ``from_graph``.

    In order: implicit hydrogens fill the bare atoms and each ``Atom`` is
    built; ring bonds are found and, only when there are any, the SSSR and
    every cycle of up to 7 atoms (the SSSR itself when every ring system
    is a single cycle); aromaticity perception returns the aromatic atom
    and bond indices, and an atom is rebuilt only when its aromatic flag
    turns on; each ``Bond`` is built once, with its final order and ring
    flag; valences are checked; directional marks become cis/trans labels
    (a labelled bond is rebuilt); and chirality marks no tetrahedral center
    can carry are dropped (such an atom is rebuilt).
    """
    n = len(raw_atoms)
    ends = [(a, b) for a, b, _o, _d in raw_bonds]
    orders = [order for _a, _b, order, _d in raw_bonds]
    adj = build_adjacency(n, ends)
    order_sum = [0] * n
    for (a, b), order in zip(ends, orders):
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
        # Positional fields: keywords make these constructors a third slower.
        atoms.append(Atom(raw.element, raw.charge, explicit, implicit, raw.aromatic,
                          raw.chirality, raw.isotope))

    ring_flags = ring_bond_flags(adj)
    rings = cycles = []
    if True in ring_flags:
        ring_adj = ring_subgraph(adj, ring_flags)
        rings = cycles = sssr(ring_adj)
        # With as many ring atoms as ring bonds every ring system is one cycle,
        # so the SSSR holds every cycle there is.
        if n - ring_adj.count([]) != ring_flags.count(True):
            cycles = small_cycles(ring_adj, max_size=7)
    aromatic_atoms, aromatic_bonds = perceive_aromaticity(atoms, ends, orders, adj, cycles)
    for i in aromatic_atoms:
        if not atoms[i].aromatic:
            atoms[i] = replace(atoms[i], aromatic=True)
    for bi in aromatic_bonds:
        orders[bi] = AROMATIC
    bonds = [Bond(a, b, o, STEREO_NONE, f) for (a, b), o, f in zip(ends, orders, ring_flags)]

    _validate_valences(atoms, ends, orders)

    directions = {bi: d for bi, (_a, _b, _o, d) in enumerate(raw_bonds) if d}
    bonds = _assign_double_bond_stereo(atoms, bonds, adj, directions)

    chiral_seq: dict[int, tuple[int, ...]] = {}
    for i, atom in enumerate(atoms):
        if atom.chirality:
            seq = seqs.get(i, [])
            want = len(adj[i]) + (1 if atom.explicit_h else 0)
            if len(seq) != want or len(seq) not in (3, 4) or atom.total_h > 1:
                # Not a sequenceable tetrahedral center; the mark is meaningless.
                atoms[i] = replace(atom, chirality=CHI_NONE)
            else:
                chiral_seq[i] = tuple(seq)

    return Molecule(tuple(atoms), tuple(bonds), tuple(rings), adj, chiral_seq)


def _validate_valences(atoms: list[Atom], ends: list[tuple[int, int]], orders: list[str]) -> None:
    total = [a.total_h for a in atoms]
    for (a, b), order in zip(ends, orders):
        v = BOND_ORDER_VALUE[order]
        total[a] += v
        total[b] += v
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

    from .canon import _coded_neighbors, refinement_ranks

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
