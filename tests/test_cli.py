import csv
import json
import math
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


def test_search_cli_with_config_file(tmp_path):
    anions = ["[S-]C#N", "N#C[N-]C#N", "N#C[C-](C#N)C#N", TF2N, "N#C[B-](C#N)(C#N)C#N"]
    records = _records_csv(
        tmp_path,
        [f"{EMIM},{a},{CO2},,298.15,il_solute,solvation_dg,{v},r{i}"
         for i, (a, v) in enumerate(zip(anions, [-0.5964, -0.7336, -1.3686, -1.6346, -1.7204]))],
    )
    pool = tmp_path / "pool.smi"
    pool.write_text("\n".join(anions) + "\n")
    entries = [
        {"cation": canonicalize(EMIM), "anion": canonicalize(a), "solute": canonicalize(CO2),
         "solvent": None, "value": v}
        for a, v in zip(anions, [-0.5964, -0.7336, -1.3686, -1.6346, -1.7204])
    ]
    lookup = tmp_path / "lookup.json"
    lookup.write_text(json.dumps({"entries": entries}))
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


def _modify_anion_external(tmp_path, ions, limit):
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
         "-o", str(tmp_path / "cands.jsonl"), "--trajectory-out", str(tmp_path / "trail.txt")]
    )
    return code, err, log.read_text().split()


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
    assert err.startswith("error[external-predictor]: record 3:"), err


def test_external_predictor_that_cannot_start(tmp_path):
    pool = tmp_path / "anions.smi"
    pool.write_text(SCN + "\n" + "N#C[N-]C#N\n")
    code, _out, err = run_cli(
        ["modify-anion", "--cation", EMIM, "--seed-anion", SCN, "--pool", str(pool),
         "--solute", CO2, "--external", str(tmp_path / "no-such-predictor")]
    )
    assert code == 1
    assert err.startswith("error[external-predictor]: cannot start predictor"), err
