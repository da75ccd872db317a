"""Record formats written out field by field: the JSONL dict, the CSV row
and the two row -> ``SystemRecord`` constructors, frozen as they stood
before one field table in ``ilkit.datasets`` stated the schema.
``save_records`` must write the same CSV and JSONL bytes, and
``load_records`` must build the same records and raise the same errors."""

from __future__ import annotations

from ilkit.datasets import SCHEMA_VERSION, SystemRecord
from ilkit.errors import SchemaError


def to_json_dict(rec: SystemRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "cation": rec.cation,
        "anion": rec.anion,
        "solute": rec.solute,
        "solvent": rec.solvent,
        "temperature_K": rec.temperature,
        "category": rec.category,
        "property": rec.property,
        "value": rec.value,
        "source_id": rec.source_id,
    }


def _format_float(x: float) -> str:
    return format(x, ".9g")


def csv_row(rec: SystemRecord) -> list:
    return [
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


def _csv_number(cell: str, where: str) -> float | None:
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(f"{where}: {cell!r} is not a number") from None


def record_from_csv_row(row: list[str], where: str) -> SystemRecord:
    return SystemRecord(
        cation=row[0] or None,
        anion=row[1] or None,
        solute=row[2] or None,
        solvent=row[3] or None,
        temperature=_csv_number(row[4], where),
        category=row[5],
        property=row[6] or None,
        value=_csv_number(row[7], where),
        source_id=row[8],
    )


def record_from_jsonl(obj: dict) -> SystemRecord:
    return SystemRecord(
        cation=obj.get("cation"),
        anion=obj.get("anion"),
        solute=obj.get("solute"),
        solvent=obj.get("solvent"),
        temperature=obj.get("temperature_K"),
        category=obj.get("category", ""),
        property=obj.get("property"),
        value=obj.get("value"),
        source_id=obj.get("source_id", ""),
    )
