"""CSV, JSONL and the wire protocol against the field-by-field record
formats in ``oracles.records_oracle``: ``save_records`` writes the same
bytes, ``to_json_dict`` gives the same keys in the same order, and
``load_records`` builds the same record from a row (or raises the same
error) before validation. Validation is stubbed out so that rows and
objects the validator would reject still reach the constructor."""

import csv
import io
import json

import pytest

from ilkit import datasets
from ilkit.datasets import CSV_COLUMNS, SystemRecord, load_records, save_records
from ilkit.errors import SchemaError
from oracles import records_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)

# No line breaks: a cell must read back from the CSV exactly as written.
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=8)
_WORDS = st.one_of(_TEXT, st.sampled_from(["CCO", "[O-]C(C)=O", "il_solute", "solvation_dg"]))
_NUMBERS = st.one_of(st.none(), st.integers(-10**12, 10**12), st.floats())
_ROLE = st.one_of(st.none(), _WORDS)

_RECORDS = st.builds(
    SystemRecord,
    category=_WORDS,
    cation=_ROLE,
    anion=_ROLE,
    solute=_ROLE,
    solvent=_ROLE,
    temperature=_NUMBERS,
    property=_ROLE,
    value=_NUMBERS,
    source_id=st.one_of(st.none(), st.just(""), _WORDS),
)

# CSV cells: empty, text, numbers in many spellings and cells that are not numbers.
_NUMBER_TEXT = st.one_of(
    st.floats().map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e3", " 2.5 ", "-0", "inf", "nan", "1_000", "0x10", "1,5", "abc"]),
)
_CELL = st.one_of(st.just(""), _WORDS, _NUMBER_TEXT)

_JSON_VALUE = st.one_of(st.none(), st.integers(-10**6, 10**6), st.floats(allow_nan=False), _WORDS)
_TEXT_KEYS = ("cation", "anion", "solute", "solvent", "category", "property", "source_id")


@st.composite
def _jsonl_objects(draw):
    """JSONL objects that pass the text-type checks: any subset of the keys,
    explicit nulls included."""
    obj = {}
    for key in CSV_COLUMNS:
        if draw(st.booleans()):
            strategy = st.one_of(st.none(), _WORDS) if key in _TEXT_KEYS else _JSON_VALUE
            obj[key] = draw(strategy)
    if draw(st.booleans()):
        obj["schema_version"] = 1
    return obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


def _oracle_csv(records) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(records_oracle.csv_row(rec))
    return buf.getvalue().encode()


def _load_unvalidated(path):
    """(records, or the SchemaError text) from ``load_records`` with validation off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datasets, "validate_record", lambda rec, where: rec)
        try:
            return load_records(path)
        except SchemaError as exc:
            return str(exc)


@SETTINGS
@hypothesis.given(records=st.lists(_RECORDS, max_size=4))
def test_writers_equal_the_field_by_field_formats(records, workdir):
    for rec in records:
        got = rec.to_json_dict()
        assert list(got.items()) == list(records_oracle.to_json_dict(rec).items())
    save_records(records, workdir / "out.csv")
    assert (workdir / "out.csv").read_bytes() == _oracle_csv(records)
    save_records(records, workdir / "out.jsonl")
    want = "".join(json.dumps(records_oracle.to_json_dict(rec)) + "\n" for rec in records)
    assert (workdir / "out.jsonl").read_bytes() == want.encode()


@SETTINGS
@hypothesis.given(row=st.lists(_CELL, min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS)))
def test_csv_reader_equals_the_field_by_field_constructor(row, workdir):
    path = workdir / "in.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([CSV_COLUMNS, row])
    got = _load_unvalidated(path)
    if all(not cell for cell in row):
        assert got == []
        return
    try:
        want = [records_oracle.record_from_csv_row(row, f"{path}:2")]
    except SchemaError as exc:
        want = str(exc)
    assert repr(got) == repr(want)


@SETTINGS
@hypothesis.given(obj=_jsonl_objects())
def test_jsonl_reader_equals_the_field_by_field_constructor(obj, workdir):
    path = workdir / "in.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    got = _load_unvalidated(path)
    assert repr(got) == repr([records_oracle.record_from_jsonl(obj)])
