"""Golden CLI outputs: every subcommand run in-process on the fixtures in
``tests/golden``, pinned by digest.

Each case is one or more command lines run in order in a scratch copy of
the fixture directory. Its pin holds the exit codes and the sha256 (first
16 hex digits) of the joined stdout, the joined stderr and every file the
case wrote. A failing case prints the digests it saw, so an intended change
of output is re-pinned by copying them and naming the case in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ilkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

RECORDS = "records.csv"
PROPERTY = ["--property", "solvation_dg"]
RIDGE = ["train", RECORDS, *PROPERTY, "--model", "ridge", "-o", "ridge.json"]
SEARCH = ["search", RECORDS, "--anion-pool", "anions.smi", "--cation-pool", "cations.smi",
          "--config", "search.cfg"]
MODIFY_ANION = ["modify-anion", "--cation", "CCCCn1cc[n+](C)c1", "--seed-anion", "[S-]C#N",
                "--pool", "anions.smi", "--solute", "O=C=O", "--budget", "4"]
MODIFY_CATION = ["modify-cation", "--anion", "N#C[N-]C#N", "--seed-cation", "CCn1cc[n+](C)c1",
                 "--pool", "cations.smi", "--solute", "N", "--budget", "3"]

# name -> (command lines, stdin or None)
CASES = {
    "canonicalize": ([["canonicalize", "mols.smi"]], None),
    "canonicalize-stdin": ([["canonicalize", "-o", "canon.smi"]], "OCC\nC1CC1 cyclopropane\n"),
    "descriptors": ([["descriptors", "mols.smi", "-o", "desc.csv"]], None),
    "fingerprint-ecfp": ([["fingerprint", "mols.smi", "--nbits", "256"]], None),
    "fingerprint-atom-pair": ([["fingerprint", "mols.smi", "--kind", "atom_pair",
                                "--radius", "3", "--nbits", "512"]], None),
    "similarity-mean": ([["similarity", "mols.smi", "--combine", "mean", "--order-out",
                          "order.txt", "-o", "sim.csv"]], None),
    "similarity-atom-pair": ([["similarity", "mols.smi", "--kind", "atom_pair"]], None),
    "featurize": ([["featurize", RECORDS, "-o", "graphs.jsonl"]], None),
    "split": ([["split", RECORDS, "--scheme", "il_pair", "--k", "3", "--seed", "7"]], None),
    "train-ridge": ([RIDGE], None),
    "train-mlp": ([["train", RECORDS, *PROPERTY, "--config", "mlp.cfg", "-o", "mlp.json",
                    "--trace-out", "trace.csv"]], None),
    "evaluate-ridge": ([["evaluate", RECORDS, *PROPERTY, "--scheme", "cation", "--k", "3",
                         "--model", "ridge", "--lambda", "0.5", "--row-out", "row.csv"]], None),
    "evaluate-mlp": ([["evaluate", RECORDS, *PROPERTY, "--scheme", "il_pair", "--k", "3",
                       "--config", "mlp.cfg", "-o", "report.json"]], None),
    "search-lookup": ([[*SEARCH, "--lookup", "lookup.json"]], None),
    "search-model": ([RIDGE, [*SEARCH, "--model", "ridge.json", "-o", "found.jsonl",
                              "--trajectory-out", "trajectory.txt"]], None),
    "modify-anion-lookup": ([[*MODIFY_ANION, "--lookup", "lookup.json"]], None),
    "modify-anion-model": ([RIDGE, [*MODIFY_ANION, "--model", "ridge.json",
                                    "--objective", "maximize"]], None),
    "modify-cation-lookup": ([[*MODIFY_CATION, "--lookup", "lookup.json",
                               "-o", "cands.jsonl"]], None),
    "modify-cation-model": ([RIDGE, [*MODIFY_CATION, "--model", "ridge.json"]], None),
    "thermo": ([["thermo", "hydration", "--solvation", "-1.25", "--transfer-il-water", "0.4"],
                ["thermo", "il-organic", "--transfer-il-water", "0.4",
                 "--transfer-org-water", "-0.35"]], None),
    "gen-synthetic-jsonl-round-trip": ([
        ["gen-synthetic", "--cations", "cations.smi", "--anions", "anions.smi",
         "--solutes", "solutes.smi", "--categories", "il_solute", "--n", "12", "--seed", "5",
         "-o", "synth.jsonl"],
        ["split", "synth.jsonl", "--scheme", "ternary", "--k", "2"],
    ], None),
    "hydration-benchmark": ([["hydration-benchmark", RECORDS, "--seed", "5",
                              "-o", "virtual.csv"]], None),
    "plot-data-rank": ([["plot-data", "rank", "--tables", "tables.json"]], None),
    "plot-data-histogram": ([["plot-data", "histogram", RECORDS, *PROPERTY, "--bins", "4"]],
                            None),
    "error-io-missing-file": ([["canonicalize", "missing.smi"]], None),
    "error-smiles-syntax": ([["canonicalize"]], "CCO\nCC(C\n"),
    "error-smiles-syntax-unicode-digit": ([["canonicalize"]], "C1CC1\nC\u00b2\n"),
}

EMPTY = "e3b0c44298fc1c14"  # the digest of no output

# name -> (exit codes, stdout digest, stderr digest, {written file: digest})
PINS = {
    "canonicalize": ((0,), "fd494590b6bd06bd", EMPTY, {}),
    "canonicalize-stdin": ((0,), EMPTY, EMPTY, {"canon.smi": "7759cdca9fd18983"}),
    "descriptors": ((0,), EMPTY, EMPTY, {"desc.csv": "db3f32bcb178e0cf"}),
    "fingerprint-ecfp": ((0,), "e3c8083c4a8886d6", EMPTY, {}),
    "fingerprint-atom-pair": ((0,), "5a8a888c392ebe1d", EMPTY, {}),
    "similarity-mean": ((0,), EMPTY, EMPTY, {
        "order.txt": "74558ba5f2749dd1",
        "sim.csv": "68c226c2356d1b81",
    }),
    "similarity-atom-pair": ((0,), "353c0e9bf5e3f4d6", EMPTY, {}),
    "featurize": ((0,), EMPTY, EMPTY, {"graphs.jsonl": "f321c4d5aa2348b8"}),
    "split": ((0,), "9925af73207cc8e4", EMPTY, {}),
    "train-ridge": ((0,), EMPTY, EMPTY, {"ridge.json": "79460007c3d7ca9b"}),
    "train-mlp": ((0,), EMPTY, EMPTY, {
        "mlp.json": "8f2b2694d064c6e3",
        "trace.csv": "d8dd28a0779acccb",
    }),
    "evaluate-ridge": ((0,), "bdf155552e07236d", EMPTY, {"row.csv": "81517100957868e3"}),
    "evaluate-mlp": ((0,), EMPTY, EMPTY, {"report.json": "ecd1f2dd8a9ca3f3"}),
    "search-lookup": ((0,), "38f8bf042c7cfbfb", "965f1be2198f06dc", {}),
    "search-model": ((0, 0), EMPTY, EMPTY, {
        "found.jsonl": "8e947c6653d0a5ac",
        "ridge.json": "79460007c3d7ca9b",
        "trajectory.txt": "391eb46249f100b2",
    }),
    "modify-anion-lookup": ((0,), "cd42f84f7e8261f5", "afca43c91f2db01a", {}),
    "modify-anion-model": ((0, 0), "36e2d62049c63e3f", "254858b0ab000b57", {
        "ridge.json": "79460007c3d7ca9b",
    }),
    "modify-cation-lookup": ((0,), EMPTY, "62c723f64e2b1cda", {"cands.jsonl": "2658e6a0534b4e42"}),
    "modify-cation-model": ((0, 0), "1afab06ccfd86961", "f88667954bd0e8ef", {
        "ridge.json": "79460007c3d7ca9b",
    }),
    "thermo": ((0, 0), "a78669c45648b50b", EMPTY, {}),
    "gen-synthetic-jsonl-round-trip": ((0, 0), "fc0c1957ab88fd8c", EMPTY, {
        "synth.jsonl": "dc10906d6f3b64cd",
    }),
    "hydration-benchmark": ((0,), EMPTY, EMPTY, {"virtual.csv": "2cabaeae1a452ca5"}),
    "plot-data-rank": ((0,), "140b19f674bbbcec", EMPTY, {}),
    "plot-data-histogram": ((0,), "9514676bf8bdb6d6", EMPTY, {}),
    "error-io-missing-file": ((1,), EMPTY, "302e81a209904e5f", {}),
    "error-smiles-syntax": ((1,), "5c9aa2a3024d56c9", "a9570829638d89f7", {}),
    "error-smiles-syntax-unicode-digit": ((1,), "f403d0803f77f69e", "75c856c16a06648a", {}),
}


def _digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _run(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_golden_cli_output(name, tmp_path, monkeypatch):
    steps, stdin = CASES[name]
    work = tmp_path / "work"
    shutil.copytree(GOLDEN, work)
    fixtures = {p.name: p.read_bytes() for p in work.iterdir()}
    monkeypatch.chdir(work)
    runs = [_run(argv, stdin or "") for argv in steps]
    written = {
        p.name: _digest(p.read_bytes())
        for p in sorted(work.iterdir())
        if fixtures.get(p.name) != p.read_bytes()
    }
    seen = (
        tuple(code for code, _out, _err in runs),
        _digest("".join(out for _code, out, _err in runs)),
        _digest("".join(err for _code, _out, err in runs)),
        written,
    )
    assert seen == PINS[name], f"{name}: {seen}"
