"""System records: schemas, CSV/JSONL ingest, synthetic sampling,
pseudo-labels, and the virtual hydration benchmark.

CSV column order is frozen as
``cation,anion,solute,solvent,temperature_K,category,property,value,source_id``
with empty strings for absent fields; the JSONL mirror uses the same keys
plus ``schema_version``. All SMILES are canonicalized on ingest and floats
are serialized with 9 significant digits.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .chem import canonicalize, table
from .descriptors import DESCRIPTOR_NAMES, compute_descriptors
from .errors import RecordError, SchemaError
from .featurize import CATEGORIES, CATEGORY_ROLES, ROLE_ORDER

SCHEMA_VERSION = 1
CSV_COLUMNS = (
    "cation", "anion", "solute", "solvent",
    "temperature_K", "category", "property", "value", "source_id",
)

PROPERTIES = {
    "solvation_dg": "kcal/mol",
    "transfer_dg_il_water": "kcal/mol",
    "transfer_dg_org_water": "kcal/mol",
    "melting_point": "K",
    "viscosity_log10": "log10(mPa*s)",
    "surface_tension": "mN/m",
    "mass_density": "g/cm3",
}

# Properties are tied to the category whose roles they describe.
PROPERTY_CATEGORY = {
    "solvation_dg": "il_solute",
    "transfer_dg_il_water": "il_solute",
    "transfer_dg_org_water": "organic_solute",
    "melting_point": "il_bulk_no_T",
    "viscosity_log10": "il_bulk_with_T",
    "surface_tension": "il_bulk_with_T",
    "mass_density": "il_bulk_with_T",
}

STANDARD_TEMPERATURE = 298.15  # K, used for all synthetic systems

# Pseudo-label layout: 4 x 21 descriptors + temperature + 4-way category tag.
PSEUDO_LABEL_LENGTH = 4 * len(DESCRIPTOR_NAMES) + 1 + len(CATEGORIES)
TEMPERATURE_INDEX = 4 * len(DESCRIPTOR_NAMES)
TEMPERATURE_SCALE = 1000.0  # keeps the feature comparable to descriptor scales


@dataclass(frozen=True)
class SystemRecord:
    category: str
    cation: str | None = None
    anion: str | None = None
    solute: str | None = None
    solvent: str | None = None
    temperature: float | None = None
    property: str | None = None
    value: float | None = None
    source_id: str = ""

    def roles_key(self) -> tuple:
        return (self.cation, self.anion, self.solute, self.solvent)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "cation": self.cation,
            "anion": self.anion,
            "solute": self.solute,
            "solvent": self.solvent,
            "temperature_K": self.temperature,
            "category": self.category,
            "property": self.property,
            "value": self.value,
            "source_id": self.source_id,
        }


def validate_record(rec: SystemRecord, where: str = "record") -> SystemRecord:
    """Canonicalize SMILES and enforce the category/role/temperature rules."""
    if rec.category not in CATEGORIES:
        raise RecordError(f"{where}: unknown category {rec.category!r}")
    roles = {}
    for role in ROLE_ORDER:
        raw = getattr(rec, role)
        if raw in (None, ""):
            roles[role] = None
            continue
        try:
            roles[role] = canonicalize(raw)
        except Exception as exc:
            raise RecordError(f"{where}: bad {role} SMILES {raw!r}: {exc}") from exc
    required = CATEGORY_ROLES[rec.category]
    for role in ROLE_ORDER:
        if role in required and roles[role] is None:
            raise RecordError(f"{where}: category {rec.category} requires a {role}")
        if role not in required and roles[role] is not None:
            raise RecordError(f"{where}: category {rec.category} must not carry a {role}")

    if rec.property is not None:
        if rec.property not in PROPERTIES:
            raise RecordError(f"{where}: unknown property {rec.property!r}")
        if PROPERTY_CATEGORY[rec.property] != rec.category:
            raise RecordError(
                f"{where}: property {rec.property} belongs to category "
                f"{PROPERTY_CATEGORY[rec.property]}, not {rec.category}"
            )
        if rec.value is None:
            raise RecordError(f"{where}: property {rec.property} given without a value")

    needs_temperature = rec.category not in ("il_bulk_no_T",) and rec.property != "melting_point"
    if needs_temperature:
        if rec.temperature is None:
            raise RecordError(f"{where}: category {rec.category} requires a temperature")
        if rec.temperature <= 0:
            raise RecordError(f"{where}: temperature must be positive, got {rec.temperature}")
    elif rec.temperature is not None:
        raise RecordError(
            f"{where}: temperature must be absent for category il_bulk_no_T / melting point"
        )
    return replace(rec, **roles)


def _format_float(x: float) -> str:
    return format(x, ".9g")


def save_records(records: Sequence[SystemRecord], path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = fmt or ("jsonl" if path.suffix == ".jsonl" else "csv")
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow(
                    [
                        rec.cation or "",
                        rec.anion or "",
                        rec.solute or "",
                        rec.solvent or "",
                        _format_float(rec.temperature) if rec.temperature is not None else "",
                        rec.category,
                        rec.property or "",
                        _format_float(rec.value) if rec.value is not None else "",
                        rec.source_id,
                    ]
                )
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_json_dict()) + "\n")
    else:
        raise SchemaError(f"unknown format {fmt!r}")


def load_records(path: str | Path, fmt: str | None = None) -> list[SystemRecord]:
    """Load and validate records; duplicate keys must agree within 1e-9."""
    path = Path(path)
    fmt = fmt or ("jsonl" if path.suffix == ".jsonl" else "csv")
    raw: list[tuple[str, SystemRecord]] = []
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                return []
            if tuple(header) != CSV_COLUMNS:
                raise SchemaError(f"{path}: header {header} != {list(CSV_COLUMNS)}")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell for cell in row):
                    continue
                if len(row) != len(CSV_COLUMNS):
                    raise SchemaError(f"{path}: row {lineno} has {len(row)} fields")
                rec = SystemRecord(
                    cation=row[0] or None,
                    anion=row[1] or None,
                    solute=row[2] or None,
                    solvent=row[3] or None,
                    temperature=float(row[4]) if row[4] else None,
                    category=row[5],
                    property=row[6] or None,
                    value=float(row[7]) if row[7] else None,
                    source_id=row[8],
                )
                raw.append((f"{path}:{lineno}", rec))
    elif fmt == "jsonl":
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                version = obj.get("schema_version", SCHEMA_VERSION)
                if version != SCHEMA_VERSION:
                    raise SchemaError(f"{path}:{lineno}: schema_version {version} unsupported")
                units = obj.get("units")
                prop = obj.get("property")
                if units is not None and prop is not None and units != PROPERTIES.get(prop):
                    raise RecordError(
                        f"{path}:{lineno}: unit mismatch: {prop} uses "
                        f"{PROPERTIES.get(prop)}, got {units!r}"
                    )
                rec = SystemRecord(
                    cation=obj.get("cation"),
                    anion=obj.get("anion"),
                    solute=obj.get("solute"),
                    solvent=obj.get("solvent"),
                    temperature=obj.get("temperature_K"),
                    category=obj.get("category", ""),
                    property=prop,
                    value=obj.get("value"),
                    source_id=obj.get("source_id", ""),
                )
                raw.append((f"{path}:{lineno}", rec))
    else:
        raise SchemaError(f"unknown format {fmt!r}")

    out: list[SystemRecord] = []
    seen: dict[tuple, tuple[int, float | None]] = {}
    for where, rec in raw:
        rec = validate_record(rec, where)
        key = (rec.roles_key(), rec.category, rec.temperature, rec.property)
        if rec.property is not None and key in seen:
            pos, old_value = seen[key]
            if old_value is None or rec.value is None or abs(old_value - rec.value) > 1e-9:
                raise RecordError(
                    f"{where}: duplicate of record {pos + 1} with conflicting value "
                    f"({old_value} vs {rec.value})"
                )
            continue  # agreeing duplicate: collapse
        seen[key] = (len(out), rec.value)
        out.append(rec)
    return out


def generate_synthetic_systems(
    pools: dict[str, Sequence[str]],
    n: int,
    seed: int,
    categories: Sequence[str] = CATEGORIES,
) -> list[SystemRecord]:
    """Sample n unique unlabeled systems uniformly over the categories.

    Systems use the standard temperature where the category carries one.
    Deterministic for a fixed seed; raises when n exceeds the number of
    distinct (roles, category) combinations.
    """
    if n < 0:
        raise RecordError("n must be >= 0")
    pools = {k: sorted({canonicalize(s) for s in v}) for k, v in pools.items()}
    categories = list(categories)
    for cat in categories:
        if cat not in CATEGORIES:
            raise RecordError(f"unknown category {cat!r}")
        for role in CATEGORY_ROLES[cat]:
            key = role + "s"
            if not pools.get(key):
                raise RecordError(f"category {cat} needs a non-empty {key} pool")

    def combos(cat: str) -> int:
        total = 1
        for role in CATEGORY_ROLES[cat]:
            total *= len(pools[role + "s"])
        return total

    capacity = sum(combos(c) for c in categories)
    if n > capacity:
        raise RecordError(f"requested {n} systems but only {capacity} distinct combinations exist")

    rng = random.Random(seed)
    chosen: set[tuple] = set()
    out: list[SystemRecord] = []

    def build(cat: str, parts: tuple[str, ...]) -> SystemRecord:
        roles = dict(zip(CATEGORY_ROLES[cat], parts))
        temperature = STANDARD_TEMPERATURE if cat != "il_bulk_no_T" else None
        return SystemRecord(category=cat, temperature=temperature, **roles)

    attempts = 0
    max_attempts = 50 * max(n, 1) + 1000
    while len(out) < n and attempts < max_attempts:
        attempts += 1
        cat = categories[rng.randrange(len(categories))]
        parts = tuple(
            pools[role + "s"][rng.randrange(len(pools[role + "s"]))]
            for role in CATEGORY_ROLES[cat]
        )
        key = (cat, parts)
        if key in chosen:
            continue
        chosen.add(key)
        out.append(build(cat, parts))

    if len(out) < n:
        # Sampling stalled near exhaustion: enumerate what remains.
        remaining = []
        for cat in categories:
            role_pools = [pools[r + "s"] for r in CATEGORY_ROLES[cat]]
            for parts in itertools.product(*role_pools):
                if (cat, parts) not in chosen:
                    remaining.append((cat, parts))
        remaining.sort()
        extra = rng.sample(remaining, n - len(out))
        out.extend(build(cat, parts) for cat, parts in extra)
    return out


def descriptor_values(smiles: str) -> tuple[float, ...]:
    """Descriptors of a canonical SMILES, from the molecule table."""
    return table.derived(
        smiles, "descriptors", lambda mol: tuple(compute_descriptors(mol).as_list())
    )


def build_pseudo_labels(record: SystemRecord) -> list[float]:
    """89-float target: [cation|anion|solute|solvent] descriptors, scaled
    temperature, category one-hot. Absent roles are zero blocks."""
    width = len(DESCRIPTOR_NAMES)
    vec: list[float] = []
    for role in ROLE_ORDER:
        smiles = getattr(record, role)
        if smiles is None:
            vec.extend([0.0] * width)
        else:
            vec.extend(descriptor_values(smiles))
    vec.append((record.temperature or 0.0) / TEMPERATURE_SCALE)
    one_hot = [0.0] * len(CATEGORIES)
    one_hot[CATEGORIES.index(record.category)] = 1.0
    vec.extend(one_hot)
    assert len(vec) == PSEUDO_LABEL_LENGTH
    return vec


def build_hydration_benchmark(records: Sequence[SystemRecord], seed: int) -> list[SystemRecord]:
    """Ten virtual IL systems per solute from ion recombination.

    Every emitted (cation, anion) pair is novel: it appears nowhere in the
    input records. Raises when a solute cannot receive ten novel pairs.
    """
    il_records = [r for r in records if r.category == "il_solute"]
    if not il_records:
        raise RecordError("hydration benchmark needs il_solute records")
    cations = sorted({r.cation for r in il_records})
    anions = sorted({r.anion for r in il_records})
    if len(cations) < 2 or len(anions) < 2:
        raise RecordError("hydration benchmark needs >= 2 distinct cations and anions")
    known_pairs = {(r.cation, r.anion) for r in il_records}
    solutes = sorted({r.solute for r in il_records})

    novel = sorted(
        (c, a) for c in cations for a in anions if (c, a) not in known_pairs
    )
    out: list[SystemRecord] = []
    rng = random.Random(seed)
    for solute in solutes:
        if len(novel) < 10:
            raise RecordError(
                f"solute {solute}: only {len(novel)} novel ion pairs available, need 10"
            )
        picked = rng.sample(novel, 10)
        for c, a in picked:
            out.append(
                SystemRecord(
                    category="il_solute",
                    cation=c,
                    anion=a,
                    solute=solute,
                    temperature=STANDARD_TEMPERATURE,
                    source_id="virtual-hydration",
                )
            )
    return out
