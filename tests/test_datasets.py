import json
from dataclasses import replace

import pytest

from ilkit.chem import canonicalize
from ilkit.datasets import (
    PSEUDO_LABEL_LENGTH,
    STANDARD_TEMPERATURE,
    TEMPERATURE_INDEX,
    SystemRecord,
    build_hydration_benchmark,
    build_pseudo_labels,
    generate_synthetic_systems,
    load_records,
    save_records,
    validate_record,
)
from ilkit.errors import RecordError, SchemaError

HEADER = "cation,anion,solute,solvent,temperature_K,category,property,value,source_id"

EMIM = "CCn1cc[n+](C)c1"
BMIM = "CCCCn1cc[n+](C)c1"
HMIM = "CCCCCCn1cc[n+](C)c1"
TF2N = "O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F"
SCN = "[S-]C#N"
DCA = "N#C[N-]C#N"
CO2 = "O=C=O"
WATER = "O"
BUTANOL = "CCCCO"


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", [HEADER])
    assert load_records(path) == []


def test_fixture_row_roundtrip(tmp_path):
    path = _write(
        tmp_path,
        "one.csv",
        [HEADER, f"{EMIM},{TF2N},{CO2},,298.15,il_solute,solvation_dg,-1.6346,lit"],
    )
    records = load_records(path)
    assert len(records) == 1
    rec = records[0]
    assert rec.category == "il_solute"
    assert rec.value == pytest.approx(-1.6346)
    assert rec.cation == canonicalize(EMIM)
    assert rec.solute == canonicalize(CO2)


def test_negative_temperature_rejected(tmp_path):
    path = _write(
        tmp_path,
        "bad.csv",
        [HEADER, f"{EMIM},{TF2N},{CO2},,-5,il_solute,solvation_dg,-1.0,x"],
    )
    with pytest.raises(RecordError, match="bad.csv:2"):
        load_records(path)


def test_unknown_property_rejected(tmp_path):
    path = _write(
        tmp_path,
        "bad.csv",
        [HEADER, f"{EMIM},{TF2N},{CO2},,298.15,il_solute,boiling_point,1.0,x"],
    )
    with pytest.raises(RecordError, match="unknown property"):
        load_records(path)


def test_bad_smiles_rejected_with_row(tmp_path):
    path = _write(
        tmp_path,
        "bad.csv",
        [HEADER, f"QQ,{TF2N},{CO2},,298.15,il_solute,solvation_dg,-1.0,x"],
    )
    with pytest.raises(RecordError, match="bad.csv:2"):
        load_records(path)


def test_first_bad_line_in_file_order_wins(tmp_path):
    # Rows are validated as they are read: the bad SMILES on line 3 is
    # reported, not the unreadable number or the malformed line after it.
    path = _write(tmp_path, "bad.csv", [
        HEADER,
        f"{EMIM},{TF2N},{CO2},,298.15,il_solute,solvation_dg,-1.0,x",
        f"QQ,{TF2N},{CO2},,298.15,il_solute,solvation_dg,-1.0,x",
        f"{EMIM},{TF2N},{CO2},,298.15,il_solute,solvation_dg,abc,x",
    ])
    with pytest.raises(RecordError, match=r"bad\.csv:3"):
        load_records(path)
    path = _write(tmp_path, "bad.jsonl", [
        _jsonl_record(),
        _jsonl_record(cation="QQ"),
        "{not json",
    ])
    with pytest.raises(RecordError, match=r"bad\.jsonl:2"):
        load_records(path)


def test_wrong_header_rejected(tmp_path):
    path = _write(tmp_path, "bad.csv", ["a,b,c", "1,2,3"])
    with pytest.raises(SchemaError):
        load_records(path)


def test_conflicting_duplicates_rejected(tmp_path):
    row = f"{EMIM},{TF2N},{CO2},,298.15,il_solute,solvation_dg"
    path = _write(tmp_path, "dup.csv", [HEADER, f"{row},-1.0,a", f"{row},-2.0,b"])
    with pytest.raises(RecordError, match="conflicting"):
        load_records(path)


def test_agreeing_duplicates_collapse(tmp_path):
    row = f"{EMIM},{TF2N},{CO2},,298.15,il_solute,solvation_dg"
    path = _write(tmp_path, "dup.csv", [HEADER, f"{row},-1.0,a", f"{row},-1.0,b"])
    assert len(load_records(path)) == 1


def test_ingest_idempotence(tmp_path):
    path = _write(
        tmp_path,
        "rows.csv",
        [
            HEADER,
            f"{EMIM},{TF2N},{CO2},,298.15,il_solute,solvation_dg,-1.6346,a",
            f"{BMIM},{TF2N},,,298.15,il_bulk_with_T,mass_density,1.43,b",
            f"{EMIM},{SCN},,,,il_bulk_no_T,melting_point,250.0,c",
            f",,{CO2},{WATER},298.15,organic_solute,transfer_dg_org_water,0.5,d",
        ],
    )
    records = load_records(path)
    out_csv = tmp_path / "again.csv"
    save_records(records, out_csv)
    assert load_records(out_csv) == records
    out_jsonl = tmp_path / "again.jsonl"
    save_records(records, out_jsonl)
    assert load_records(out_jsonl) == records


@pytest.mark.parametrize("column", ["temperature", "value"])
def test_csv_non_numeric_cell_rejected(tmp_path, column):
    temperature, value = ("abc", "-1.0") if column == "temperature" else ("298.15", "abc")
    path = _write(
        tmp_path,
        "bad.csv",
        [HEADER, f"{EMIM},{TF2N},{CO2},,{temperature},il_solute,solvation_dg,{value},x"],
    )
    with pytest.raises(SchemaError, match=r"bad\.csv:2: 'abc' is not a number"):
        load_records(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_number_rejected(tmp_path, cell):
    path = _write(
        tmp_path,
        "bad.csv",
        [HEADER, f"{EMIM},{TF2N},{CO2},,298.15,il_solute,solvation_dg,{cell},x"],
    )
    with pytest.raises(RecordError, match=r"bad\.csv:2: value must be a finite number"):
        load_records(path)


def _jsonl_record(**overrides):
    rec = {
        "schema_version": 1,
        "cation": EMIM, "anion": TF2N, "solute": CO2, "solvent": None,
        "temperature_K": 298.15, "category": "il_solute",
        "property": "solvation_dg", "value": -1.0, "source_id": "x",
    }
    rec.update(overrides)
    return json.dumps(rec)


def test_jsonl_unit_mismatch(tmp_path):
    path = _write(tmp_path, "bad.jsonl", [_jsonl_record(units="kJ/mol")])
    with pytest.raises(RecordError, match="unit mismatch"):
        load_records(path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_jsonl_schema_version_must_be_the_int_1(tmp_path, version):
    path = _write(tmp_path, "bad.jsonl", [_jsonl_record(), _jsonl_record(schema_version=version)])
    with pytest.raises(SchemaError, match=r"bad\.jsonl:2: schema_version .* unsupported"):
        load_records(path)


def test_jsonl_malformed_line_rejected(tmp_path):
    path = _write(tmp_path, "bad.jsonl", [_jsonl_record(), '{"cation": '])
    with pytest.raises(SchemaError, match=r"bad\.jsonl:2: invalid JSON"):
        load_records(path)


def test_jsonl_non_object_line_rejected(tmp_path):
    path = _write(tmp_path, "bad.jsonl", [_jsonl_record(), "[1, 2]"])
    with pytest.raises(SchemaError, match=r"bad\.jsonl:2: expected a JSON object"):
        load_records(path)


def test_jsonl_string_temperature_rejected(tmp_path):
    path = _write(tmp_path, "bad.jsonl", [_jsonl_record(temperature_K="298")])
    with pytest.raises(RecordError, match=r"bad\.jsonl:1: temperature must be a finite number"):
        load_records(path)


def test_jsonl_non_finite_value_rejected(tmp_path):
    path = _write(tmp_path, "bad.jsonl", [_jsonl_record(value=float("nan"))])
    with pytest.raises(RecordError, match=r"bad\.jsonl:1: value must be a finite number"):
        load_records(path)


@pytest.mark.parametrize(
    "field, x",
    [
        ("category", ["il_solute"]),
        ("property", ["solvation_dg"]),
        ("units", {"kcal": "mol"}),
        ("cation", ["CC"]),
        ("anion", 7),
        ("solute", True),
        ("solvent", 1.5),
        ("source_id", 42),
    ],
)
def test_jsonl_non_string_text_field_rejected(tmp_path, field, x):
    path = _write(tmp_path, "bad.jsonl", [_jsonl_record(), _jsonl_record(**{field: x})])
    with pytest.raises(SchemaError, match=rf"bad\.jsonl:2: {field} must be a string"):
        load_records(path)


@pytest.mark.parametrize("field", ["temperature", "value"])
@pytest.mark.parametrize("x", [float("nan"), float("inf"), True])
def test_validate_record_rejects_bad_numbers(field, x):
    rec = SystemRecord(
        category="il_solute", cation=EMIM, anion=TF2N, solute=CO2,
        temperature=298.15, property="solvation_dg", value=-1.0,
    )
    with pytest.raises(RecordError, match=f"{field} must be a finite number"):
        validate_record(replace(rec, **{field: x}))


def test_stored_smiles_are_canonical(tmp_path):
    path = _write(
        tmp_path,
        "raw.csv",
        [HEADER, f"C[n+]1ccn(CC)c1,{TF2N},{CO2},,298.15,il_solute,solvation_dg,-1.0,x"],
    )
    rec = load_records(path)[0]
    assert rec.cation == canonicalize(rec.cation)
    assert rec.cation == canonicalize(EMIM)


def test_generator_empty():
    pools = {"cations": [EMIM], "anions": [TF2N], "solutes": [CO2], "solvents": [WATER]}
    assert generate_synthetic_systems(pools, 0, seed=1) == []


def test_generator_deterministic():
    pools = {
        "cations": [EMIM, BMIM, HMIM],
        "anions": [TF2N, SCN, DCA],
        "solutes": [CO2, "N"],
        "solvents": [WATER, BUTANOL],
    }
    a = generate_synthetic_systems(pools, 30, seed=7)
    b = generate_synthetic_systems(pools, 30, seed=7)
    assert a == b
    assert len({(r.category, r.roles_key()) for r in a}) == 30


def test_generator_exhausts_pairs():
    pools = {"cations": [EMIM, BMIM, HMIM], "anions": [TF2N, SCN]}
    records = generate_synthetic_systems(pools, 6, seed=3, categories=["il_bulk_no_T"])
    assert len(records) == 6
    assert len({(r.cation, r.anion) for r in records}) == 6
    assert all(r.temperature is None for r in records)


def test_generator_overflow_rejected():
    pools = {"cations": [EMIM], "anions": [TF2N]}
    with pytest.raises(RecordError, match="distinct combinations"):
        generate_synthetic_systems(pools, 3, seed=3, categories=["il_bulk_no_T"])


def test_pseudo_label_layout_bulk_no_t():
    rec = validate_record(
        SystemRecord(category="il_bulk_no_T", cation=EMIM, anion=TF2N)
    )
    vec = build_pseudo_labels(rec)
    assert len(vec) == PSEUDO_LABEL_LENGTH == 89
    assert vec[42:84] == [0.0] * 42          # solute and solvent slots empty
    assert vec[TEMPERATURE_INDEX] == 0.0
    assert vec[85:] == [0.0, 0.0, 0.0, 1.0]


def test_pseudo_label_layout_organic():
    rec = validate_record(
        SystemRecord(category="organic_solute", solute=CO2, solvent=WATER, temperature=300.0)
    )
    vec = build_pseudo_labels(rec)
    assert vec[:42] == [0.0] * 42            # cation and anion slots empty
    assert vec[TEMPERATURE_INDEX] == pytest.approx(0.3)
    assert vec[85:] == [0.0, 1.0, 0.0, 0.0]


def test_pseudo_label_zero_slots_match_category():
    pools = {
        "cations": [EMIM, BMIM],
        "anions": [TF2N, SCN],
        "solutes": [CO2],
        "solvents": [WATER],
    }
    for rec in generate_synthetic_systems(pools, 9, seed=5):
        vec = build_pseudo_labels(rec)
        slots = {
            "cation": vec[0:21],
            "anion": vec[21:42],
            "solute": vec[42:63],
            "solvent": vec[63:84],
        }
        for role, block in slots.items():
            if getattr(rec, role) is None:
                assert block == [0.0] * 21
            else:
                assert any(v != 0.0 for v in block)


def _il_solute(cation, anion, solute, value=None):
    return validate_record(
        SystemRecord(
            category="il_solute", cation=cation, anion=anion, solute=solute,
            temperature=298.15,
            property="solvation_dg" if value is not None else None,
            value=value,
        )
    )


def test_hydration_benchmark_counts_and_novelty():
    cations = [EMIM, BMIM, HMIM, "CCCCCCCC[N+]12CCC(CC1)CC2"]
    anions = [TF2N, SCN, DCA, "N#C[C-](C#N)C#N"]
    known = [
        _il_solute(cations[i], anions[i], CO2, -1.0) for i in range(4)
    ] + [_il_solute(cations[0], anions[1], "N", -2.0)]
    virtual = build_hydration_benchmark(known, seed=11)
    known_pairs = {(r.cation, r.anion) for r in known}
    by_solute: dict[str, set] = {}
    for rec in virtual:
        by_solute.setdefault(rec.solute, set()).add((rec.cation, rec.anion))
        assert (rec.cation, rec.anion) not in known_pairs
        assert rec.temperature == STANDARD_TEMPERATURE
    assert set(by_solute) == {canonicalize(CO2), canonicalize("N")}
    assert all(len(pairs) == 10 for pairs in by_solute.values())
    # Determinism
    assert build_hydration_benchmark(known, seed=11) == virtual


def test_hydration_benchmark_insufficient_pairs():
    known = [
        _il_solute(EMIM, TF2N, CO2, -1.0),
        _il_solute(BMIM, SCN, CO2, -1.5),
    ]
    # Only 2x2 ion grid with 2 known pairs: 2 novel pairs < 10.
    with pytest.raises(RecordError, match="novel ion pairs"):
        build_hydration_benchmark(known, seed=2)
