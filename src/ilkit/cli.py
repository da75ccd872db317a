"""Command-line entry point wiring all modules together.

Subcommands: canonicalize, descriptors, featurize, fingerprint, similarity,
split, train, evaluate, search, modify-anion, modify-cation, thermo,
gen-synthetic, hydration-benchmark, plot-data. Every subcommand is
deterministic given its flags and seed. Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chem import canonicalize, parse_smiles
from .cluster import hierarchical_cluster
from .datasets import (
    CATEGORIES,
    SystemRecord,
    build_hydration_benchmark,
    generate_synthetic_systems,
    load_records,
    save_records,
)
from .descriptors import DESCRIPTOR_NAMES, compute_descriptors
from .errors import ConfigError, IlkitError
from .evalharness import SCHEMES, cross_validate, make_split, rank_aggregate
from .featurize import assemble_system
from .fingerprints import (
    DEFAULT_NBITS,
    DEFAULT_RADIUS,
    make_fingerprint,
    similarity_matrix,
)
from .predictor import (
    ExternalPredictor,
    MLPConfig,
    load_model,
    predict,
    save_model,
    train_mlp,
    train_ridge,
)
from .screening import (
    LookupPredictor,
    SearchConfig,
    beam_search,
    hydration_dg,
    il_organic_transfer,
    modify_anion,
    modify_side_chain,
    top_k_seeds,
)

DEFAULT_SEED = 42


def _read_config_file(path: str) -> dict:
    """Flat TOML-style key = value file with a mandatory schema_version."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if raw.startswith('"') and raw.endswith('"'):
            values[key] = raw[1:-1]
        elif raw.lower() in ("true", "false"):
            values[key] = raw.lower() == "true"
        elif "," in raw:
            values[key] = tuple(int(p.strip()) for p in raw.split(",") if p.strip())
        else:
            try:
                values[key] = int(raw)
            except ValueError:
                try:
                    values[key] = float(raw)
                except ValueError:
                    values[key] = raw
    if values.get("schema_version") != 1:
        raise ConfigError(f"{path}: missing or unsupported schema_version (need 1)")
    values.pop("schema_version")
    return values


def _smiles_lines(path: str | None):
    stream = open(path) if path else sys.stdin
    try:
        for lineno, line in enumerate(stream, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            # Allow "SMILES name" lines; only the first token is structure.
            yield lineno, text.split()[0]
    finally:
        if path:
            stream.close()


def _out_stream(path: str | None):
    return open(path, "w") if path else sys.stdout


def _load_pool(path: str) -> list[str]:
    return [smi for _ln, smi in _smiles_lines(path)]


def _make_predictor(args) -> object:
    if getattr(args, "model", None):
        model = load_model(args.model)
        return lambda record: predict(model, record)
    if getattr(args, "lookup", None):
        with open(args.lookup) as fh:
            obj = json.load(fh)
        entries = {}
        for e in obj["entries"]:
            key = (e.get("cation"), e.get("anion"), e.get("solute"), e.get("solvent"))
            entries[key] = float(e["value"])
        return LookupPredictor(entries)
    if getattr(args, "external", None):
        return ExternalPredictor(args.external).start()
    raise ConfigError("need one of --model, --lookup, or --external")


def _search_config(args) -> SearchConfig:
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in (
        "objective", "property", "beam_width", "iterations", "top_k",
        "similarity_floor", "fingerprint", "radius", "nbits", "seed",
    ):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    known = {k: v for k, v in values.items() if k in SearchConfig.__dataclass_fields__}
    cfg = SearchConfig(**known)
    cfg.validate()
    return cfg


def _mlp_config(values: dict, seed: int) -> MLPConfig:
    hidden = values.get("hidden", (128, 64))
    if isinstance(hidden, int):
        hidden = (hidden,)
    return MLPConfig(
        hidden=tuple(hidden),
        activation=str(values.get("activation", "tanh")),
        learning_rate=float(values.get("learning_rate", 1e-3)),
        batch_size=int(values.get("batch_size", 32)),
        epochs=int(values.get("epochs", 200)),
        seed=int(values.get("seed", seed)),
    )


def _make_trainer(args, property_name: str):
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    kind = getattr(args, "model_kind", None) or values.get("model", "ridge")
    if kind == "ridge":
        lam = getattr(args, "ridge_lambda", None)
        if lam is None:
            lam = float(values.get("lambda", 1.0))
        return kind, lambda X, y: train_ridge(X, y, lam, property_name)
    if kind == "mlp":
        cfg = _mlp_config(values, getattr(args, "seed", DEFAULT_SEED) or DEFAULT_SEED)
        return kind, lambda X, y: train_mlp(X, y, cfg, property_name)
    raise ConfigError(f"unknown model kind {kind!r}")


def _write_candidates_jsonl(result, path: str | None) -> None:
    out = _out_stream(path)
    try:
        for cand in result.ranked:
            obj = {
                "roles": {
                    "cation": cand.record.cation,
                    "anion": cand.record.anion,
                    "solute": cand.record.solute,
                    "solvent": cand.record.solvent,
                },
                "value": cand.value,
                "provenance": cand.provenance,
                "iteration": cand.iteration,
            }
            if cand.similarity is not None:
                obj["similarity"] = cand.similarity
            out.write(json.dumps(obj) + "\n")
    finally:
        if path:
            out.close()


def _print_trajectory(result, stream=sys.stdout) -> None:
    stream.write("iteration  best_value    roles\n")
    for i, cand in enumerate(result.best_trace):
        roles = ".".join(x for x in cand.roles_key() if x)
        stream.write(f"{i:>9}  {cand.value:>10.4f}    {roles}\n")


# ---------------------------------------------------------------- commands


def _cmd_canonicalize(args) -> int:
    out = _out_stream(args.output)
    try:
        for lineno, smi in _smiles_lines(args.input):
            try:
                out.write(canonicalize(smi) + "\n")
            except IlkitError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc
    finally:
        if args.output:
            out.close()
    return 0


def _cmd_descriptors(args) -> int:
    out = _out_stream(args.output)
    try:
        writer = csv.writer(out)
        writer.writerow(DESCRIPTOR_NAMES)
        for lineno, smi in _smiles_lines(args.input):
            try:
                vec = compute_descriptors(parse_smiles(smi))
            except IlkitError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc
            writer.writerow([format(v, ".9g") for v in vec.as_list()])
    finally:
        if args.output:
            out.close()
    return 0


def _cmd_featurize(args) -> int:
    records = load_records(args.records)
    out = _out_stream(args.output)
    try:
        for rec in records:
            out.write(json.dumps(assemble_system(rec).to_json_dict()) + "\n")
    finally:
        if args.output:
            out.close()
    return 0


def _cmd_fingerprint(args) -> int:
    out = _out_stream(args.output)
    try:
        for lineno, smi in _smiles_lines(args.input):
            fp = make_fingerprint(parse_smiles(smi), args.kind, args.radius, args.nbits)
            out.write(fp.to_hex() + "\n")
    finally:
        if args.output:
            out.close()
    return 0


def _cmd_similarity(args) -> int:
    smiles = [smi for _ln, smi in _smiles_lines(args.input)]
    mols = [parse_smiles(s) for s in smiles]
    kinds = ["ecfp", "atom_pair"] if args.combine == "mean" else [args.kind]
    matrices = [
        similarity_matrix(mols, kind, args.radius, args.nbits)
        for kind in kinds
    ]
    matrix = np.mean(matrices, axis=0)
    out = _out_stream(args.output)
    try:
        writer = csv.writer(out)
        for row in matrix:
            writer.writerow([format(v, ".9g") for v in row])
    finally:
        if args.output:
            out.close()
    if args.order_out:
        result = hierarchical_cluster(matrix)
        with open(args.order_out, "w") as fh:
            for leaf in result.leaf_order:
                fh.write(f"{leaf}\n")
    return 0


def _cmd_split(args) -> int:
    records = load_records(args.records)
    plan = make_split(records, args.scheme, args.k, args.seed)
    out = _out_stream(args.output)
    try:
        json.dump(plan.to_json_dict(), out, indent=2)
        out.write("\n")
    finally:
        if args.output:
            out.close()
    return 0


def _cmd_train(args) -> int:
    records = [r for r in load_records(args.records) if r.property == args.property]
    if not records:
        raise IlkitError(f"no records carry property {args.property!r}")
    from .predictor import featurize_records

    X = featurize_records(records)
    y = np.asarray([r.value for r in records])
    _kind, trainer = _make_trainer(args, args.property)
    model = trainer(X, y)
    save_model(model, args.output)
    if args.trace_out and hasattr(model, "loss_trace"):
        with open(args.trace_out, "w") as fh:
            for epoch, loss in enumerate(model.loss_trace):
                fh.write(f"{epoch},{format(loss, '.9g')}\n")
    return 0


def _cmd_evaluate(args) -> int:
    records = load_records(args.records)
    plan = make_split(
        [r for r in records if r.property == args.property], args.scheme, args.k, args.seed
    )
    _kind, trainer = _make_trainer(args, args.property)
    report = cross_validate(records, plan, trainer, args.property)
    out = _out_stream(args.output)
    try:
        json.dump(report.to_json_dict(), out, indent=2)
        out.write("\n")
    finally:
        if args.output:
            out.close()
    if args.row_out:
        with open(args.row_out, "w") as fh:
            fh.write(report.format_row() + "\n")
    return 0


def _close_predictor(predictor) -> None:
    if isinstance(predictor, ExternalPredictor):
        predictor.close()


def _cmd_search(args) -> int:
    records = load_records(args.records)
    predictor = _make_predictor(args)
    try:
        config = _search_config(args)
        seeds_result = top_k_seeds(records, predictor, config)
        pools = {}
        for role in ("cation", "anion", "solute", "solvent"):
            path = getattr(args, f"{role}_pool")
            if path:
                pools[role] = _load_pool(path)
        if not pools:
            raise ConfigError("search needs at least one --<role>-pool file")
        result = beam_search([c.record for c in seeds_result.ranked], pools, predictor, config)
    finally:
        _close_predictor(predictor)
    _write_candidates_jsonl(result, args.output)
    if args.trajectory_out:
        with open(args.trajectory_out, "w") as fh:
            _print_trajectory(result, fh)
    else:
        _print_trajectory(result, sys.stderr)
    return 0


def _cmd_modify(args, mutate_anion: bool) -> int:
    predictor = _make_predictor(args)
    try:
        config = _search_config(args)
        if mutate_anion:
            result = modify_anion(
                args.cation, args.seed_anion, _load_pool(args.pool), predictor,
                solute=args.solute, budget=args.budget, config=config,
            )
        else:
            result = modify_side_chain(
                args.anion, args.seed_cation, _load_pool(args.pool), predictor,
                solute=args.solute, budget=args.budget, config=config,
            )
    finally:
        _close_predictor(predictor)
    _write_candidates_jsonl(result, args.output)
    if args.trajectory_out:
        with open(args.trajectory_out, "w") as fh:
            _print_trajectory(result, fh)
    else:
        _print_trajectory(result, sys.stderr)
    return 0


def _cmd_thermo(args) -> int:
    if args.relation == "hydration":
        value = hydration_dg(args.solvation, args.transfer_il_water)
    else:
        value = il_organic_transfer(args.transfer_il_water, args.transfer_org_water)
    print(format(value, ".9g"))
    return 0


def _cmd_gen_synthetic(args) -> int:
    pools = {}
    for role in ("cations", "anions", "solutes", "solvents"):
        path = getattr(args, role)
        if path:
            pools[role] = _load_pool(path)
    categories = args.categories.split(",") if args.categories else list(CATEGORIES)
    records = generate_synthetic_systems(pools, args.n, args.seed, categories)
    save_records(records, args.output)
    return 0


def _cmd_hydration_benchmark(args) -> int:
    records = load_records(args.records)
    virtual = build_hydration_benchmark(records, args.seed)
    save_records(virtual, args.output)
    return 0


def _cmd_plot_data(args) -> int:
    if args.mode == "rank":
        with open(args.tables) as fh:
            tables = json.load(fh)
        ranks = rank_aggregate(tables)
        out = _out_stream(args.output)
        try:
            writer = csv.writer(out)
            datasets = sorted(ranks["per_dataset"])
            writer.writerow(["model", *datasets, "overall"])
            for model in sorted(ranks["overall"]):
                row = [model]
                row += [format(ranks["per_dataset"][ds][model], ".9g") for ds in datasets]
                row.append(format(ranks["overall"][model], ".9g"))
                writer.writerow(row)
        finally:
            if args.output:
                out.close()
        return 0
    # histogram mode
    records = [r for r in load_records(args.records) if r.property == args.property]
    if not records:
        raise IlkitError(f"no records carry property {args.property!r}")
    values = np.asarray([r.value for r in records])
    counts, edges = np.histogram(values, bins=args.bins)
    out = _out_stream(args.output)
    try:
        writer = csv.writer(out)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, count in enumerate(counts):
            writer.writerow([format(edges[i], ".9g"), format(edges[i + 1], ".9g"), int(count)])
    finally:
        if args.output:
            out.close()
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilkit",
        description="Ionic-liquid screening toolkit: parsing, descriptors, "
        "similarity, datasets, baselines, evaluation, and beam-search screening.",
    )
    parser.add_argument("--version", action="version", version=f"ilkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, records=False):
        if records:
            p.add_argument("records", help="records file (.csv or .jsonl)")
        else:
            p.add_argument("input", nargs="?", help="SMILES file (default: stdin)")
        p.add_argument("-o", "--output", help="output path (default: stdout)")

    p = sub.add_parser("canonicalize", help="canonical SMILES per input line")
    add_io(p)
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("descriptors", help="21-column descriptor CSV per molecule")
    add_io(p)
    p.set_defaults(func=_cmd_descriptors)

    p = sub.add_parser("featurize", help="system-graph JSONL from records")
    add_io(p, records=True)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("fingerprint", help="hex fingerprints per molecule")
    add_io(p)
    p.add_argument("--kind", choices=["ecfp", "atom_pair"], default="ecfp")
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    p.add_argument("--nbits", type=int, default=DEFAULT_NBITS)
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("similarity", help="pairwise Tanimoto matrix (+ dendrogram order)")
    add_io(p)
    p.add_argument("--kind", choices=["ecfp", "atom_pair"], default="ecfp")
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    p.add_argument("--nbits", type=int, default=DEFAULT_NBITS)
    p.add_argument("--combine", choices=["mean"], help="average the two fingerprint kinds")
    p.add_argument("--order-out", help="write dendrogram leaf order to this file")
    p.set_defaults(func=_cmd_similarity)

    p = sub.add_parser("split", help="grouped cross-validation plan as JSON")
    add_io(p, records=True)
    p.add_argument("--scheme", choices=list(SCHEMES), required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fit a baseline model on one property")
    p.add_argument("records")
    p.add_argument("--property", required=True)
    p.add_argument("--model", dest="model_kind", choices=["ridge", "mlp"], default="ridge")
    p.add_argument("--lambda", dest="ridge_lambda", type=float, help="ridge penalty")
    p.add_argument("--config", help="model config file (key = value)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", required=True, help="model JSON path")
    p.add_argument("--trace-out", help="write per-epoch loss trace CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="grouped cross-validation metric report")
    p.add_argument("records")
    p.add_argument("--property", required=True)
    p.add_argument("--scheme", choices=list(SCHEMES), required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--model", dest="model_kind", choices=["ridge", "mlp"], default="ridge")
    p.add_argument("--lambda", dest="ridge_lambda", type=float)
    p.add_argument("--config", help="model config file")
    p.add_argument("-o", "--output", help="report JSON path (default stdout)")
    p.add_argument("--row-out", help="write the mean±std CSV row here")
    p.set_defaults(func=_cmd_evaluate)

    def add_predictor_flags(p):
        p.add_argument("--model", help="trained model JSON")
        p.add_argument("--lookup", help="lookup-table predictor JSON")
        p.add_argument("--external", help="child-process predictor command")
        p.add_argument("--config", help="search config file")
        p.add_argument("--objective", choices=["minimize", "maximize"])
        p.add_argument("--property")
        p.add_argument("--beam-width", dest="beam_width", type=int)
        p.add_argument("--iterations", type=int)
        p.add_argument("--top-k", dest="top_k", type=int)
        p.add_argument("--similarity-floor", dest="similarity_floor", type=float)
        p.add_argument("--fingerprint", choices=["ecfp", "atom_pair"])
        p.add_argument("--seed", type=int)
        p.add_argument("-o", "--output", help="candidates JSONL (default stdout)")
        p.add_argument("--trajectory-out", help="trajectory table path (default stderr)")

    p = sub.add_parser("search", help="Top-K seeded beam search over pools")
    p.add_argument("records", help="scored dataset supplying the seeds")
    for role in ("cation", "anion", "solute", "solvent"):
        p.add_argument(f"--{role}-pool", dest=f"{role}_pool", help=f"{role} pool SMILES file")
    add_predictor_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("modify-anion", help="fix the cation, substitute anions")
    p.add_argument("--cation", required=True)
    p.add_argument("--seed-anion", dest="seed_anion", required=True)
    p.add_argument("--pool", required=True, help="anion pool SMILES file")
    p.add_argument("--solute", required=True)
    p.add_argument("--budget", type=int, default=5)
    add_predictor_flags(p)
    p.set_defaults(func=lambda a: _cmd_modify(a, mutate_anion=True))

    p = sub.add_parser("modify-cation", help="fix the anion, modify the cation")
    p.add_argument("--anion", required=True)
    p.add_argument("--seed-cation", dest="seed_cation", required=True)
    p.add_argument("--pool", required=True, help="cation pool SMILES file")
    p.add_argument("--solute", required=True)
    p.add_argument("--budget", type=int, default=5)
    add_predictor_flags(p)
    p.set_defaults(func=lambda a: _cmd_modify(a, mutate_anion=False))

    p = sub.add_parser("thermo", help="thermodynamic cycle relations")
    tsub = p.add_subparsers(dest="relation", required=True)
    ph = tsub.add_parser("hydration", help="solvation - transfer(IL/water)")
    ph.add_argument("--solvation", type=float, required=True)
    ph.add_argument("--transfer-il-water", dest="transfer_il_water", type=float, required=True)
    ph.set_defaults(func=_cmd_thermo)
    po = tsub.add_parser("il-organic", help="transfer(IL/water) - transfer(org/water)")
    po.add_argument("--transfer-il-water", dest="transfer_il_water", type=float, required=True)
    po.add_argument("--transfer-org-water", dest="transfer_org_water", type=float, required=True)
    po.set_defaults(func=_cmd_thermo)

    p = sub.add_parser("gen-synthetic", help="sample unlabeled synthetic systems")
    p.add_argument("--cations", help="cation pool SMILES file")
    p.add_argument("--anions", help="anion pool SMILES file")
    p.add_argument("--solutes", help="solute pool SMILES file")
    p.add_argument("--solvents", help="solvent pool SMILES file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--categories", help="comma-separated category subset")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("hydration-benchmark", help="ten novel virtual ILs per solute")
    p.add_argument("records")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_hydration_benchmark)

    p = sub.add_parser("plot-data", help="rank tables and label histograms as CSV")
    psub = p.add_subparsers(dest="mode", required=True)
    pr = psub.add_parser("rank", help="per-model average ranks")
    pr.add_argument("--tables", required=True, help="JSON: dataset -> model -> metric means")
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=_cmd_plot_data)
    ph = psub.add_parser("histogram", help="1-D label histogram")
    ph.add_argument("records")
    ph.add_argument("--property", required=True)
    ph.add_argument("--bins", type=int, default=20)
    ph.add_argument("-o", "--output")
    ph.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("ILKIT_TMPDIR"):
        import tempfile

        tempfile.tempdir = os.environ["ILKIT_TMPDIR"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IlkitError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
