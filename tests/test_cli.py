import csv
import json
import math
import os
import subprocess
import sys

import pytest

from ilkit.chem import canonicalize
from ilkit.cli import main
from ilkit.descriptors import DESCRIPTOR_NAMES

HEADER = "cation,anion,solute,solvent,temperature_K,category,property,value,source_id"
EMIM = "CCn1cc[n+](C)c1"
BMIM = "CCCCn1cc[n+](C)c1"
TF2N = "O=S(=O)(C(F)(F)F)[N-]S(=O)(=O)C(F)(F)F"
SCN = "[S-]C#N"
CO2 = "O=C=O"


def run_cli(args, stdin_text=""):
    """Run the CLI in-process, capturing stdout/stderr."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def _records_csv(tmp_path, rows, name="records.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return str(path)


def _bulk_rows(n=30):
    cations = [f"CCCCn1cc[n+](C{'C' * i})c1" for i in range(10)]
    anions = [TF2N, SCN, "N#C[N-]C#N"]
    rows = []
    for i in range(n):
        value = 1.2 + 0.01 * (i % 7) + 0.001 * i
        temperature = 298.15 + i  # distinct keys even when ion pairs repeat
        rows.append(
            f"{cations[i % 10]},{anions[i % 3]},,,{temperature},il_bulk_with_T,mass_density,{value},r{i}"
        )
    return rows


def test_canonicalize_stdin():
    code, out, err = run_cli(["canonicalize"], stdin_text="OCC\n")
    assert code == 0
    assert out.strip() == canonicalize("CCO")


def test_canonicalize_bad_input_exit_code():
    code, _out, err = run_cli(["canonicalize"], stdin_text="CC(C\n")
    assert code == 1
    assert err.startswith("error[smiles-syntax]")


def test_usage_error_exit_code():
    code, _out, _err = run_cli(["no-such-command"])
    assert code == 2


def test_descriptors_csv(tmp_path):
    smi = tmp_path / "mols.smi"
    smi.write_text("CCO\nC\n")
    out_path = tmp_path / "desc.csv"
    code, _out, _err = run_cli(["descriptors", str(smi), "-o", str(out_path)])
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == DESCRIPTOR_NAMES
    assert len(rows) == 3
    ethanol = dict(zip(DESCRIPTOR_NAMES, map(float, rows[1])))
    assert ethanol["mol_weight"] == pytest.approx(46.069, abs=1e-3)


def test_fingerprint_hex(tmp_path):
    smi = tmp_path / "mols.smi"
    smi.write_text("c1ccccc1\n")
    code, out, _err = run_cli(["fingerprint", str(smi), "--nbits", "512"])
    assert code == 0
    assert len(out.strip()) == 512 // 4


TWO_MOLECULES = "c1ccccc1\nCCO\n"
BAD_FINGERPRINT_SETTINGS = (
    [
        (command, flags, message, TWO_MOLECULES)
        for command in ("fingerprint", "similarity")
        for flags, message in [
            (["--nbits", "100"], "nbits must be 0 or a power of two, got 100"),
            (["--nbits", "-8"], "nbits must be 0 or a power of two, got -8"),
            (["--radius", "-1"], "radius must be in [0, 4], got -1"),
            (["--radius", "5"], "radius must be in [0, 4], got 5"),
        ]
    ]
    + [("fingerprint", ["--nbits", "0"], "unfolded fingerprints have no fixed-width encoding",
        TWO_MOLECULES)]
    + [(command, ["--kind", "atom_pair", "--radius", "7"], "radius must be in [0, 4], got 7",
        TWO_MOLECULES)
       for command in ("fingerprint", "similarity")]
    # Settings are checked before any input is read, so an empty file fails too.
    + [
        ("fingerprint", ["--radius", "7", "--nbits", "100"], "radius must be in [0, 4], got 7", ""),
        ("similarity", ["--radius", "7"], "radius must be in [0, 4], got 7", ""),
        ("similarity", ["--nbits", "100"], "nbits must be 0 or a power of two, got 100", ""),
    ]
)


@pytest.mark.parametrize(
    "command, flags, message, text",
    BAD_FINGERPRINT_SETTINGS,
    # The input text stays out of the ids.
    ids=[f"{c}-flags{i}-{m}" for i, (c, _f, m, _t) in enumerate(BAD_FINGERPRINT_SETTINGS)],
)
def test_bad_fingerprint_setting_is_a_config_error(tmp_path, command, flags, message, text):
    smi = tmp_path / "mols.smi"
    smi.write_text(text)
    code, out, err = run_cli([command, str(smi), *flags])
    assert (code, out, err) == (1, "", f"error[config]: {message}\n")


@pytest.mark.parametrize("command", ["canonicalize", "descriptors", "fingerprint", "similarity"])
def test_bad_smiles_names_its_line(tmp_path, command):
    smi = tmp_path / "mols.smi"
    smi.write_text("CCO\nC1CC\nCC\n")
    code, _out, err = run_cli([command, str(smi)])
    assert code == 1
    assert err == "error[smiles-syntax]: line 2: unclosed ring bond(s): 1\n"


def _missing_file_args(tmp_path, which):
    missing = str(tmp_path / "nonexist")
    if which == "records":
        return missing, ["split", missing, "--scheme", "cation"]
    if which == "smiles":
        return missing, ["canonicalize", missing]
    records = _records_csv(tmp_path, [f"{EMIM},{SCN},{CO2},,298.15,il_solute,solvation_dg,-0.5,r0"])
    pool = tmp_path / "pool.smi"
    pool.write_text(f"{SCN}\nN#C[N-]C#N\n")
    return missing, ["search", records, "--anion-pool", str(pool), "--model", missing]


@pytest.mark.parametrize("which", ["records", "smiles", "model"])
def test_missing_input_file_is_one_error_line(tmp_path, which):
    missing, args = _missing_file_args(tmp_path, which)
    code, out, err = run_cli(args)
    assert code == 1
    assert out == ""
    assert err == f"error[io]: No such file or directory: {missing}\n"


def test_similarity_matrix_and_order(tmp_path):
    smi = tmp_path / "mols.smi"
    smi.write_text("c1ccccc1\nCc1ccccc1\nCCO\n")
    matrix_path = tmp_path / "sim.csv"
    order_path = tmp_path / "order.txt"
    code, _out, _err = run_cli(
        ["similarity", str(smi), "-o", str(matrix_path), "--order-out", str(order_path)]
    )
    assert code == 0
    with open(matrix_path) as fh:
        rows = [[float(x) for x in row] for row in csv.reader(fh)]
    assert len(rows) == 3 and rows[0][0] == 1.0
    assert rows[0][1] == rows[1][0]
    order = [int(x) for x in open(order_path).read().split()]
    assert sorted(order) == [0, 1, 2]


def test_similarity_narrow_fingerprints_with_order(tmp_path):
    smi = tmp_path / "mols.smi"
    smi.write_text("c1ccccc1\nCc1ccccc1\nCCO\nOCC\nC\n")
    matrix_path = tmp_path / "sim.csv"
    order_path = tmp_path / "order.txt"
    code, _out, _err = run_cli(
        ["similarity", str(smi), "--nbits", "32", "-o", str(matrix_path),
         "--order-out", str(order_path)]
    )
    assert code == 0
    from ilkit.chem import parse_smiles
    from ilkit.cluster import hierarchical_cluster
    from ilkit.fingerprints import similarity_matrix

    mols = [parse_smiles(s) for s in smi.read_text().split()]
    want = similarity_matrix(mols, "ecfp", nbits=32)
    with open(matrix_path) as fh:
        rows = [[float(x) for x in row] for row in csv.reader(fh)]
    assert rows == [[float(format(v, ".9g")) for v in row] for row in want]
    assert rows[2][3] == 1.0
    order = [int(x) for x in open(order_path).read().split()]
    assert order == list(hierarchical_cluster(want).leaf_order)
    assert sorted(order) == [0, 1, 2, 3, 4]


def test_featurize_jsonl(tmp_path):
    records = _records_csv(
        tmp_path, [f"{EMIM},{TF2N},,,298.15,il_bulk_with_T,mass_density,1.5,x"]
    )
    out_path = tmp_path / "payload.jsonl"
    code, _out, _err = run_cli(["featurize", records, "-o", str(out_path)])
    assert code == 0
    payload = json.loads(open(out_path).read().splitlines()[0])
    assert payload["category"] == "il_bulk_with_T"
    assert [m["role"] for m in payload["molecules"]] == ["cation", "anion"]


def test_split_plan_json(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows())
    code, out, _err = run_cli(["split", records, "--scheme", "cation", "--k", "5"])
    assert code == 0
    plan = json.loads(out)
    assert plan["scheme"] == "cation"
    assert len(plan["assignment"]) == 10
    counts = [0] * 5
    for fold in plan["assignment"].values():
        counts[fold] += 1
    assert max(counts) - min(counts) <= 1


def test_split_too_many_folds(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows())
    code, _out, err = run_cli(["split", records, "--scheme", "cation", "--k", "99"])
    assert code == 1
    assert "fewer distinct groups" in err


def test_train_and_evaluate_ridge(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(40))
    model_path = tmp_path / "model.json"
    code, _out, _err = run_cli(
        ["train", records, "--property", "mass_density", "--model", "ridge",
         "--lambda", "1.0", "-o", str(model_path)]
    )
    assert code == 0
    blob = json.loads(open(model_path).read())
    assert blob["kind"] == "ridge" and blob["property"] == "mass_density"

    report_path = tmp_path / "report.json"
    row_path = tmp_path / "row.csv"
    code, _out, _err = run_cli(
        ["evaluate", records, "--property", "mass_density", "--scheme", "cation",
         "--k", "4", "--model", "ridge", "--lambda", "1.0",
         "-o", str(report_path), "--row-out", str(row_path)]
    )
    assert code == 0
    report = json.loads(open(report_path).read())
    assert len(report["per_fold"]) == 4
    assert "rmse" in report["summary"]
    assert open(row_path).read().count("±") == 3


def test_evaluate_deterministic(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(40))
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _out, _err = run_cli(
            ["evaluate", records, "--property", "mass_density", "--scheme", "cation",
             "--k", "4", "--seed", "7", "-o", str(path)]
        )
        assert code == 0
        outputs.append(open(path).read())
    assert outputs[0] == outputs[1]


def test_thermo_relations():
    code, out, _err = run_cli(
        ["thermo", "hydration", "--solvation", "-5.0", "--transfer-il-water", "-2.0"]
    )
    assert code == 0 and float(out) == -3.0
    code, out, _err = run_cli(
        ["thermo", "il-organic", "--transfer-il-water", "3.0", "--transfer-org-water", "1.0"]
    )
    assert code == 0 and float(out) == 2.0


def test_gen_synthetic_and_hydration_benchmark(tmp_path):
    for name, smiles in (
        ("cations.smi", ["CCCCn1cc[n+](C)c1", EMIM, "CCCCCCn1cc[n+](C)c1", "CC[P+](CCCC)(CCCC)CCCC"]),
        ("anions.smi", [TF2N, SCN, "N#C[N-]C#N", "N#C[C-](C#N)C#N"]),
        ("solutes.smi", [CO2, "N"]),
        ("solvents.smi", ["O", "CCCCO"]),
    ):
        (tmp_path / name).write_text("\n".join(smiles) + "\n")
    out_path = tmp_path / "synthetic.csv"
    code, _out, _err = run_cli(
        ["gen-synthetic",
         "--cations", str(tmp_path / "cations.smi"),
         "--anions", str(tmp_path / "anions.smi"),
         "--solutes", str(tmp_path / "solutes.smi"),
         "--solvents", str(tmp_path / "solvents.smi"),
         "--n", "25", "--seed", "3", "-o", str(out_path)]
    )
    assert code == 0
    from ilkit.datasets import load_records

    records = load_records(out_path)
    assert len(records) == 25

    # Labeled subset for the hydration benchmark builder.
    labeled = _records_csv(
        tmp_path,
        [
            f"{EMIM},{TF2N},{CO2},,298.15,il_solute,solvation_dg,-1.0,a",
            f"CCCCn1cc[n+](C)c1,{SCN},{CO2},,298.15,il_solute,solvation_dg,-0.5,b",
            f"CCCCCCn1cc[n+](C)c1,N#C[N-]C#N,{CO2},,298.15,il_solute,solvation_dg,-0.7,c",
            f"{EMIM},N#C[C-](C#N)C#N,{CO2},,298.15,il_solute,solvation_dg,-1.3,d",
            f"CC[P+](CCCC)(CCCC)CCCC,{TF2N},{CO2},,298.15,il_solute,solvation_dg,-0.9,e",
        ],
        name="labeled.csv",
    )
    bench_path = tmp_path / "virtual.csv"
    code, _out, _err = run_cli(
        ["hydration-benchmark", labeled, "--seed", "5", "-o", str(bench_path)]
    )
    assert code == 0
    virtual = load_records(bench_path)
    assert len(virtual) == 10  # one solute, ten novel pairs
    known = {(r.cation, r.anion) for r in load_records(labeled)}
    assert all((r.cation, r.anion) not in known for r in virtual)


def test_modify_anion_cli(tmp_path):
    pool = tmp_path / "anions.smi"
    pool.write_text("\n".join(["[S-]C#N", "N#C[N-]C#N", "N#C[C-](C#N)C#N", TF2N,
                               "N#C[B-](C#N)(C#N)C#N"]) + "\n")
    lookup = tmp_path / "lookup.json"
    entries = [
        {"cation": canonicalize(EMIM), "anion": canonicalize(a), "solute": canonicalize(CO2),
         "solvent": None, "value": v}
        for a, v in [
            ("[S-]C#N", -0.5964), ("N#C[N-]C#N", -0.7336), ("N#C[C-](C#N)C#N", -1.3686),
            (TF2N, -1.6346), ("N#C[B-](C#N)(C#N)C#N", -1.7204),
        ]
    ]
    lookup.write_text(json.dumps({"entries": entries}))
    out_path = tmp_path / "cands.jsonl"
    trail = tmp_path / "trail.txt"
    code, _out, _err = run_cli(
        ["modify-anion", "--cation", EMIM, "--seed-anion", "[S-]C#N",
         "--pool", str(pool), "--solute", CO2, "--budget", "5",
         "--lookup", str(lookup), "--objective", "minimize",
         "-o", str(out_path), "--trajectory-out", str(trail)]
    )
    assert code == 0
    best = json.loads(open(out_path).read().splitlines()[0])
    assert best["roles"]["anion"] == canonicalize("N#C[B-](C#N)(C#N)C#N")
    assert best["value"] == pytest.approx(-1.7204)
    assert "iteration" in open(trail).read()


def test_modify_cation_cli(tmp_path, ions):
    cations = [smi for name, smi in ions.items() if name.endswith("_cation")]
    values = {canonicalize(c): -0.25 * i for i, c in enumerate(cations)}
    pool = tmp_path / "cations.smi"
    pool.write_text("\n".join(cations) + "\n")
    anion, solute = canonicalize(TF2N), canonicalize(CO2)
    lookup = tmp_path / "lookup.json"
    lookup.write_text(json.dumps({"entries": [
        {"cation": c, "anion": anion, "solute": solute, "value": v} for c, v in values.items()
    ]}))
    out_path = tmp_path / "cands.jsonl"
    trail = tmp_path / "trail.txt"
    code, out, err = run_cli(
        ["modify-cation", "--anion", TF2N, "--seed-cation", EMIM, "--pool", str(pool),
         "--solute", CO2, "--budget", "3", "--lookup", str(lookup),
         "-o", str(out_path), "--trajectory-out", str(trail)]
    )
    assert code == 0, err
    assert out == "" and err == ""
    rows = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["value"] for r in rows] == sorted(values.values())
    for row in rows:
        assert row["roles"] == {
            "cation": row["roles"]["cation"], "anion": anion, "solute": solute, "solvent": None,
        }
        assert row["value"] == values[row["roles"]["cation"]]
    seed, = [r for r in rows if r["provenance"] == "seed"]
    assert seed["roles"]["cation"] == canonicalize(EMIM)
    assert seed["iteration"] == 0 and "similarity" not in seed
    expanded = [r for r in rows if r["provenance"] == "expanded"]
    assert {r["roles"]["cation"] for r in expanded} == set(values) - {canonicalize(EMIM)}
    assert all(r["iteration"] == 1 and 0.0 <= r["similarity"] < 1.0 for r in expanded)
    best = rows[0]
    assert best["roles"]["cation"] == canonicalize("CCn1cc[nH+]c1")

    def trace_row(i, row):
        return f"{i:>9}  {row['value']:>10.4f}    {row['roles']['cation']}.{anion}.{solute}"

    # Iteration 2 finds nothing new and stalls the beam.
    assert trail.read_text().splitlines() == [
        "iteration  best_value    roles",
        trace_row(0, seed), trace_row(1, best), trace_row(2, best),
    ]


def test_plot_data_rank(tmp_path):
    tables = {
        "d1": {
            "mlp": {"rmse": 0.4, "pearson_r": 0.9, "kendall_tau": 0.7},
            "ridge": {"rmse": 0.5, "pearson_r": 0.8, "kendall_tau": 0.6},
        }
    }
    tables_path = tmp_path / "tables.json"
    tables_path.write_text(json.dumps(tables))
    out_path = tmp_path / "ranks.csv"
    code, _out, _err = run_cli(
        ["plot-data", "rank", "--tables", str(tables_path), "-o", str(out_path)]
    )
    assert code == 0
    rows = list(csv.reader(open(out_path)))
    assert rows[0] == ["model", "d1", "overall"]
    by_model = {r[0]: float(r[2]) for r in rows[1:]}
    assert by_model["mlp"] == 1.0 and by_model["ridge"] == 2.0


def test_plot_data_histogram(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(20))
    out_path = tmp_path / "hist.csv"
    code, _out, _err = run_cli(
        ["plot-data", "histogram", records, "--property", "mass_density",
         "--bins", "5", "-o", str(out_path)]
    )
    assert code == 0
    rows = list(csv.reader(open(out_path)))
    assert rows[0] == ["bin_left", "bin_right", "count"]
    assert sum(int(r[2]) for r in rows[1:]) == 20


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ilkit.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ilkit" in proc.stdout


def _search_inputs(tmp_path):
    """Records, anion pool and lookup table for a five-anion EMIM/CO2 search."""
    anions = ["[S-]C#N", "N#C[N-]C#N", "N#C[C-](C#N)C#N", TF2N, "N#C[B-](C#N)(C#N)C#N"]
    values = [-0.5964, -0.7336, -1.3686, -1.6346, -1.7204]
    records = _records_csv(
        tmp_path,
        [f"{EMIM},{a},{CO2},,298.15,il_solute,solvation_dg,{v},r{i}"
         for i, (a, v) in enumerate(zip(anions, values))],
    )
    pool = tmp_path / "pool.smi"
    pool.write_text("\n".join(anions) + "\n")
    entries = [
        {"cation": canonicalize(EMIM), "anion": canonicalize(a), "solute": canonicalize(CO2),
         "solvent": None, "value": v}
        for a, v in zip(anions, values)
    ]
    lookup = tmp_path / "lookup.json"
    lookup.write_text(json.dumps({"entries": entries}))
    return records, pool, lookup


def _assert_one_config_error(code, out, err, *names):
    assert (code, out) == (1, ""), err
    assert err.startswith("error[config]: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for name in names:
        assert name in err, err


def test_search_cli_with_config_file(tmp_path):
    records, pool, lookup = _search_inputs(tmp_path)
    config = tmp_path / "search.cfg"
    config.write_text(
        "schema_version = 1\n"
        "objective = minimize\n"
        "property = solvation_dg\n"
        "beam_width = 3\n"
        "iterations = 4\n"
        "top_k = 2\n"
        "similarity_floor = 0.0\n"
    )
    out_path = tmp_path / "found.jsonl"
    code, _out, err = run_cli(
        ["search", records, "--anion-pool", str(pool), "--lookup", str(lookup),
         "--config", str(config), "-o", str(out_path)]
    )
    assert code == 0, err
    best = json.loads(open(out_path).read().splitlines()[0])
    assert best["roles"]["anion"] == canonicalize("N#C[B-](C#N)(C#N)C#N")
    assert best["value"] == pytest.approx(-1.7204)


@pytest.mark.parametrize(
    "line, key",
    [
        ("beam_width = 2.5", "beam_width"),
        ("beam_width = true", "beam_width"),
        ("top_k = 1.5", "top_k"),
        ('similarity_floor = "x"', "similarity_floor"),
        ("nbits = 100", "nbits"),
        ("nbits = -8", "nbits"),
        ("radius = 5", "radius"),
        ('fingerprint = "morgan"', "fingerprint"),
    ],
)
def test_bad_search_config_value_is_a_config_error(tmp_path, line, key):
    records, pool, lookup = _search_inputs(tmp_path)
    config = tmp_path / "search.cfg"
    config.write_text(f"schema_version = 1\n{line}\n")
    code, out, err = run_cli(
        ["search", records, "--anion-pool", str(pool), "--lookup", str(lookup),
         "--config", str(config)]
    )
    _assert_one_config_error(code, out, err, key)


def _ridge_model_json(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(20), name="train.csv")
    path = tmp_path / "ridge.json"
    code, _out, err = run_cli(["train", records, "--property", "mass_density", "-o", str(path)])
    assert code == 0, err
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "make_text",
    [
        lambda ridge: "{not json",
        lambda ridge: "[1]",
        lambda ridge: json.dumps({"schema_version": 1}),
        lambda ridge: json.dumps({k: v for k, v in ridge.items() if k != "lambda"}),
        lambda ridge: json.dumps({**ridge, "weights": ridge["weights"][:10]}),
        lambda ridge: json.dumps({**ridge, "bias": "x"}),
        lambda ridge: json.dumps({**ridge, "bias": None}),
        lambda ridge: json.dumps({**ridge, "weights": [None, *ridge["weights"][1:]]}),
        lambda ridge: json.dumps({**ridge, "kind": "forest"}),
    ],
    ids=["not-json", "list", "version-only", "no-lambda", "short-weights", "text-bias",
         "null-bias", "null-weight", "kind"],
)
def test_malformed_model_file_is_a_config_error(tmp_path, make_text):
    records, pool, _lookup = _search_inputs(tmp_path)
    model = tmp_path / "model.json"
    model.write_text(make_text(_ridge_model_json(tmp_path)))
    code, out, err = run_cli(
        ["search", records, "--anion-pool", str(pool), "--model", str(model)]
    )
    _assert_one_config_error(code, out, err, str(model))


@pytest.mark.parametrize(
    "change",
    [
        lambda mlp: mlp.update(weights=mlp["weights"][:-1]),
        lambda mlp: mlp["biases"][0].pop(),
        lambda mlp: mlp.update(layer_sizes=[10, *mlp["layer_sizes"][1:]]),
        lambda mlp: mlp.update(activation="sigmoid"),
    ],
    ids=["one-layer-short", "short-bias", "sizes", "activation"],
)
def test_malformed_mlp_model_file_is_a_config_error(tmp_path, change):
    records, pool, _lookup = _search_inputs(tmp_path)
    config = tmp_path / "mlp.cfg"
    config.write_text("schema_version = 1\nhidden = 4\nbatch_size = 8\nepochs = 1\n")
    model = tmp_path / "mlp.json"
    code, _out, err = run_cli(
        ["train", _records_csv(tmp_path, _bulk_rows(20), name="train.csv"),
         "--property", "mass_density", "--model", "mlp", "--config", str(config),
         "-o", str(model)]
    )
    assert code == 0, err
    obj = json.loads(model.read_text())
    change(obj)
    model.write_text(json.dumps(obj))
    code, out, err = run_cli(
        ["search", records, "--anion-pool", str(pool), "--model", str(model)]
    )
    _assert_one_config_error(code, out, err, str(model))


@pytest.mark.parametrize(
    "table",
    [
        {"rows": []},
        {"entries": [{"cation": EMIM, "anion": SCN, "solute": CO2, "value": "x"}]},
        {"entries": [{"cation": EMIM, "anion": SCN, "solute": CO2}]},
        {"entries": [1]},
        [1],
        *({"entries": [{"cation": EMIM, "anion": SCN, "solute": CO2, "value": v}]}
          for v in ["nan", float("nan"), float("inf"), "-1.5", True, None, 10**400]),
    ],
    ids=["no-entries", "text-value", "no-value", "entry-not-object", "list", "text-nan", "nan",
         "inf", "text-number", "bool", "null", "huge-int"],
)
def test_malformed_lookup_table_is_a_config_error(tmp_path, table):
    records, pool, lookup = _search_inputs(tmp_path)
    lookup.write_text(json.dumps(table))
    code, out, err = run_cli(
        ["search", records, "--anion-pool", str(pool), "--lookup", str(lookup)]
    )
    _assert_one_config_error(code, out, err, str(lookup))


def test_lookup_role_that_is_not_text_is_a_config_error(tmp_path):
    _records, pool, lookup = _search_inputs(tmp_path)
    lookup.write_text(json.dumps({"entries": [
        {"cation": 5, "anion": SCN, "solute": CO2, "value": 1.0},
    ]}))
    code, out, err = run_cli(
        ["modify-anion", "--cation", EMIM, "--seed-anion", SCN, "--pool", str(pool),
         "--solute", CO2, "--lookup", str(lookup)]
    )
    assert (code, out) == (1, ""), err
    assert err == (
        f"error[config]: {lookup}: malformed lookup table: "
        f"roles (5, '{SCN}', '{CO2}', None) are not each a string or null\n"
    )


def test_model_narrower_than_the_layout_is_a_prediction_error(tmp_path):
    # mean, scale and weights agree with one another, so the file loads.
    records, pool, _lookup = _search_inputs(tmp_path)
    ridge = _ridge_model_json(tmp_path)
    model = tmp_path / "narrow.json"
    model.write_text(json.dumps({**ridge, **{k: ridge[k][:10] for k in ("mean", "scale", "weights")}}))
    code, out, err = run_cli(
        ["search", records, "--anion-pool", str(pool), "--model", str(model)]
    )
    assert (code, out) == (1, ""), err
    assert err == "error[prediction]: model takes 10 features, its layout has 89\n"


def test_bad_record_number_is_a_schema_error_without_traceback(tmp_path):
    records = _records_csv(tmp_path, [f"{EMIM},{TF2N},{CO2},,abc,il_solute,solvation_dg,-1.0,x"])
    proc = subprocess.run(
        [sys.executable, "-m", "ilkit.cli", "split", records, "--scheme", "cation"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[schema]: "), proc.stderr
    assert f"{records}:2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_string_jsonl_property_is_a_schema_error_without_traceback(tmp_path):
    records = tmp_path / "bad.jsonl"
    records.write_text(json.dumps({
        "cation": EMIM, "anion": TF2N, "solute": CO2, "temperature_K": 298.15,
        "category": "il_solute", "property": ["solvation_dg"], "value": -1.0,
    }) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "ilkit.cli", "split", str(records), "--scheme", "cation"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[schema]: "), proc.stderr
    assert f"{records}:1: property must be a string" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_mlp_defaults_match_mlp_config(tmp_path):
    import numpy as np
    from ilkit.datasets import load_records
    from ilkit.predictor import MLPConfig, featurize_records, save_model, train_mlp

    records_path = _records_csv(tmp_path, _bulk_rows(32))
    cli_path = tmp_path / "cli.json"
    code, _out, err = run_cli(
        ["train", records_path, "--property", "mass_density", "--model", "mlp",
         "-o", str(cli_path)]
    )
    assert code == 0, err
    records = load_records(records_path)
    X = featurize_records(records)
    y = np.asarray([r.value for r in records])
    direct_path = tmp_path / "direct.json"
    save_model(train_mlp(X, y, MLPConfig(seed=42), "mass_density"), str(direct_path))
    assert cli_path.read_text() == direct_path.read_text()


def test_train_mlp_with_config_file(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(40))
    config = tmp_path / "mlp.cfg"
    config.write_text(
        "schema_version = 1\n"
        "hidden = 8,4\n"
        "activation = tanh\n"
        "learning_rate = 0.001\n"
        "batch_size = 16\n"
        "epochs = 3\n"
        "seed = 5\n"
    )
    model_path = tmp_path / "mlp.json"
    trace_path = tmp_path / "trace.csv"
    code, _out, err = run_cli(
        ["train", records, "--property", "mass_density", "--model", "mlp",
         "--config", str(config), "-o", str(model_path), "--trace-out", str(trace_path)]
    )
    assert code == 0, err
    blob = json.loads(open(model_path).read())
    assert blob["kind"] == "mlp"
    assert blob["layer_sizes"] == [89, 8, 4, 1]
    assert len(open(trace_path).read().splitlines()) == 4  # initial + 3 epochs


def test_train_mlp_seed_zero_is_its_own_seed(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(20))
    config = tmp_path / "mlp.cfg"
    config.write_text("schema_version = 1\nhidden = 4\nbatch_size = 8\nepochs = 2\n")
    models = {}
    for seed in ("0", "42"):
        path = tmp_path / f"mlp-{seed}.json"
        code, _out, err = run_cli(
            ["train", records, "--property", "mass_density", "--model", "mlp",
             "--config", str(config), "--seed", seed, "-o", str(path)]
        )
        assert code == 0, err
        models[seed] = path.read_text()
    assert models["0"] != models["42"]


def test_config_file_requires_schema_version(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(20))
    config = tmp_path / "bad.cfg"
    config.write_text("hidden = 8\n")
    code, _out, err = run_cli(
        ["train", records, "--property", "mass_density", "--model", "mlp",
         "--config", str(config), "-o", str(tmp_path / "m.json")]
    )
    assert code == 1
    assert "schema_version" in err


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_config_file_schema_version_must_be_the_int_1(tmp_path, version):
    records = _records_csv(tmp_path, _bulk_rows(20))
    config = tmp_path / "bad.cfg"
    config.write_text(f"schema_version = {version}\nbeam_width = 4\n")
    code, _out, err = run_cli(
        ["train", records, "--property", "mass_density", "--config", str(config),
         "-o", str(tmp_path / "m.json")]
    )
    assert code == 1
    assert "unsupported schema_version" in err


def test_config_file_model_applies_unless_the_flag_overrides_it(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(20))
    config = tmp_path / "mlp.cfg"
    config.write_text('schema_version = 1\nmodel = "mlp"\nhidden = 4\nbatch_size = 8\nepochs = 2\n')
    for flags, kind in (([], "mlp"), (["--model", "ridge"], "ridge")):
        path = tmp_path / f"{kind}.json"
        code, _out, err = run_cli(
            ["train", records, "--property", "mass_density", "--config", str(config),
             "-o", str(path), *flags]
        )
        assert code == 0, err
        assert json.loads(path.read_text())["kind"] == kind


@pytest.mark.parametrize(
    "line, key",
    [
        ("epochs = 2.5", "epochs"),
        ("batch_size = 8.9", "batch_size"),
        ("epochs = true", "epochs"),
        ("hidden = 32.5", "hidden"),
        ("hidden = 8.5, 4", "hidden"),
        ("learning_rate = nan", "learning_rate"),
        ("learning_rate = inf", "learning_rate"),
        ("learning_rate = 0", "learning_rate"),
    ],
)
def test_bad_mlp_config_value_is_a_config_error(tmp_path, line, key):
    records = _records_csv(tmp_path, _bulk_rows(20))
    config = tmp_path / "mlp.cfg"
    config.write_text(f"schema_version = 1\nbatch_size = 8\n{line}\n")
    code, out, err = run_cli(
        ["train", records, "--property", "mass_density", "--model", "mlp",
         "--config", str(config), "-o", str(tmp_path / "m.json")]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error[config]:") and key in err and err.count("\n") == 1, err
    assert not (tmp_path / "m.json").exists()


def test_seed_flag_overrides_the_config_file_seed(tmp_path):
    records = _records_csv(tmp_path, _bulk_rows(20))
    config = tmp_path / "mlp.cfg"
    config.write_text("schema_version = 1\nhidden = 4\nbatch_size = 8\nepochs = 2\nseed = 5\n")
    models = {}
    for seed in (None, 1, 2, 5):
        path = tmp_path / f"m{seed}.json"
        flags = [] if seed is None else ["--seed", str(seed)]
        code, _out, err = run_cli(
            ["train", records, "--property", "mass_density", "--model", "mlp",
             "--config", str(config), "-o", str(path), *flags]
        )
        assert code == 0, err
        models[seed] = path.read_text()
    # Without the flag the file's seed applies; the flag wins over it.
    assert models[None] == models[5]
    assert len({models[1], models[2], models[5]}) == 3
    # With neither, the seed is 42, for training and for evaluate's split.
    plain = tmp_path / "plain.cfg"
    plain.write_text("schema_version = 1\nhidden = 4\nbatch_size = 8\nepochs = 2\n")
    outputs = []
    for flags in ([], ["--seed", "42"]):
        tag = len(outputs)
        code, _out, err = run_cli(
            ["train", records, "--property", "mass_density", "--model", "mlp",
             "--config", str(plain), "-o", str(tmp_path / f"t{tag}.json"), *flags]
        )
        assert code == 0, err
        code, _out, err = run_cli(
            ["evaluate", records, "--property", "mass_density", "--scheme", "cation",
             "--k", "3", "--model", "mlp", "--config", str(plain),
             "-o", str(tmp_path / f"e{tag}.json"), *flags]
        )
        assert code == 0, err
        outputs.append((tmp_path / f"t{tag}.json").read_text()
                       + (tmp_path / f"e{tag}.json").read_text())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "flags, config_line, message",
    [
        (["--lambda", "nan"], None, "error[training]: lambda must be finite and >= 0, not nan"),
        (["--lambda", "inf"], None, "error[training]: lambda must be finite and >= 0, not inf"),
        ([], "lambda = nan", "error[training]: lambda must be finite and >= 0, not nan"),
        ([], 'lambda = "x"', "error[config]: config key lambda: 'x' is not a number"),
        ([], "lambda = x", "error[config]: config key lambda: 'x' is not a number"),
        ([], "lambda = true", "error[config]: config key lambda: True is not a number"),
        ([], "lambda = 1, 2", "error[config]: config key lambda: (1, 2) is not a number"),
    ],
)
def test_bad_ridge_penalty_is_an_error(tmp_path, flags, config_line, message):
    records = _records_csv(tmp_path, _bulk_rows(20))
    if config_line is not None:
        config = tmp_path / "ridge.cfg"
        config.write_text(f"schema_version = 1\n{config_line}\n")
        flags = [*flags, "--config", str(config)]
    code, out, err = run_cli(
        ["train", records, "--property", "mass_density", "-o", str(tmp_path / "m.json"), *flags]
    )
    assert (code, out, err) == (1, "", message + "\n")
    assert not (tmp_path / "m.json").exists()


def test_similarity_combined_mean(tmp_path):
    smi = tmp_path / "mols.smi"
    smi.write_text("c1ccccc1\nCc1ccccc1\n")
    single = tmp_path / "ecfp.csv"
    combined = tmp_path / "mean.csv"
    run_cli(["similarity", str(smi), "-o", str(single)])
    code, _out, _err = run_cli(["similarity", str(smi), "--combine", "mean", "-o", str(combined)])
    assert code == 0
    import numpy as np
    from ilkit.chem import parse_smiles
    from ilkit.fingerprints import similarity_matrix

    mols = [parse_smiles("c1ccccc1"), parse_smiles("Cc1ccccc1")]
    want = (similarity_matrix(mols, "ecfp") + similarity_matrix(mols, "atom_pair")) / 2
    got = np.array([[float(x) for x in row] for row in csv.reader(open(combined))])
    assert np.allclose(got, want)


def test_evaluate_bundled_demo_dataset(tmp_path):
    from importlib import resources

    demo = resources.files("ilkit").joinpath("data/demo_bulk.csv")
    report_path = tmp_path / "report.json"
    code, _out, err = run_cli(
        ["evaluate", str(demo), "--property", "mass_density", "--scheme", "cation",
         "--k", "5", "--model", "ridge", "--lambda", "1.0", "-o", str(report_path)]
    )
    assert code == 0, err
    report = json.loads(open(report_path).read())
    assert len(report["per_fold"]) == 5


# Fake --external child: logs its pid, then answers len(anion) per request
# until it has answered ``limit`` requests (negative: no limit) and exits.
_FAKE_CHILD = """
import json, os, sys
log, limit = sys.argv[1], int(sys.argv[2])
with open(log, "a") as fh:
    fh.write(f"{os.getpid()}\\n")
for answered, line in enumerate(sys.stdin):
    if answered == limit:
        sys.exit(0)
    record = json.loads(line)["record"]
    print(json.dumps({"value": float(len(record["anion"]))}), flush=True)
"""


def _modify_anion_external(tmp_path, ions, limit, *extra):
    script = tmp_path / "child.py"
    script.write_text(_FAKE_CHILD)
    log = tmp_path / "pids.txt"
    anions = [smi for name, smi in ions.items() if name.endswith("_anion")]
    pool = tmp_path / "anions.smi"
    pool.write_text("\n".join(anions) + "\n")
    command = f"{sys.executable} {script} {log} {limit}"
    code, _out, err = run_cli(
        ["modify-anion", "--cation", EMIM, "--seed-anion", anions[0], "--pool", str(pool),
         "--solute", CO2, "--budget", "3", "--external", command,
         "-o", str(tmp_path / "cands.jsonl"), "--trajectory-out", str(tmp_path / "trail.txt"),
         *extra]
    )
    return code, err, log.read_text().split() if log.exists() else []


def test_external_predictor_spawned_once_per_command(tmp_path, ions):
    code, err, pids = _modify_anion_external(tmp_path, ions, limit=-1)
    assert code == 0, err
    assert len(pids) == 1
    scored = open(tmp_path / "cands.jsonl").read().splitlines()
    assert len(scored) == 8  # the seed plus every other fixture anion


def test_external_predictor_exit_mid_search_names_request(tmp_path, ions):
    code, err, pids = _modify_anion_external(tmp_path, ions, limit=3)
    assert code == 1
    assert len(pids) == 1
    assert err == (
        "error[external-predictor]: record 3: predictor process closed stdout (exit code 0)\n"
    )


def test_external_predictor_that_cannot_start(tmp_path):
    pool = tmp_path / "anions.smi"
    pool.write_text(SCN + "\n" + "N#C[N-]C#N\n")
    code, _out, err = run_cli(
        ["modify-anion", "--cation", EMIM, "--seed-anion", SCN, "--pool", str(pool),
         "--solute", CO2, "--external", str(tmp_path / "no-such-predictor")]
    )
    assert code == 1
    assert err.startswith("error[external-predictor]: cannot start predictor"), err


def test_bad_search_config_starts_no_external_predictor(tmp_path, ions):
    config = tmp_path / "search.cfg"
    config.write_text("schema_version = 1\nnbits = 100\n")
    code, err, pids = _modify_anion_external(tmp_path, ions, -1, "--config", str(config))
    assert code == 1
    assert err == "error[config]: nbits must be 0 or a power of two, got 100\n"
    assert pids == []


def test_external_predictor_ended_after_domain_error(tmp_path, ions):
    code, err, pids = _modify_anion_external(tmp_path, ions, -1, "--similarity-floor", "1.0")
    assert code == 1
    assert err.startswith("error[search]: no pool molecule reaches the similarity floor"), err
    assert len(pids) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(int(pids[0]), 0)
