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
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .chem import canonicalize, parse_smiles
from .cluster import hierarchical_cluster
from .datasets import (
    CATEGORIES,
    ROLE_ORDER,
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
    KINDS,
    fingerprint_key,
    make_fingerprint,
    similarity_matrix,
)
from .predictor import (
    ExternalPredictor,
    MLPConfig,
    finite_number,
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
MODEL_HELP = "model kind (default: the config file's model, else ridge)"
SEED_HELP = f"MLP seed (default: the config file's seed, else {DEFAULT_SEED})"


def _read_config_file(path: str | None) -> dict:
    """Flat TOML-style key = value file with a mandatory schema_version ({} for no path)."""
    values: dict[str, object] = {}
    if path is None:
        return values
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
            try:
                values[key] = tuple(int(p.strip()) for p in raw.split(",") if p.strip())
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key}: expected ints") from None
        else:
            try:
                values[key] = int(raw)
            except ValueError:
                try:
                    values[key] = float(raw)
                except ValueError:
                    values[key] = raw
    version = values.pop("schema_version", None)
    if type(version) is not int or version != 1:  # True == 1.0 == 1
        raise ConfigError(f"{path}: missing or unsupported schema_version (need 1)")
    return values


def _smiles_lines(path: str | None, parse=str):
    """Yield ``parse(smiles)`` for each structure line of a SMILES file (stdin
    when no path); a domain error from ``parse`` names its line number."""
    with open(path) if path else nullcontext(sys.stdin) as stream:
        for lineno, line in enumerate(stream, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            # Allow "SMILES name" lines; only the first token is structure.
            try:
                value = parse(text.split()[0])
            except IlkitError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc
            yield value


def _output(path: str | None, default=None):
    """Context manager for an output: the file at ``path`` (closed on exit),
    else ``default`` or stdout (left open)."""
    return open(path, "w") if path else nullcontext(default or sys.stdout)


def _load_pool(path: str) -> list[str]:
    return list(_smiles_lines(path))


def _read_lookup(path: str) -> dict:
    """Role tuple -> value from a lookup-table JSON; a malformed table is a
    ConfigError naming ``path``."""
    try:
        with open(path) as fh:
            entries = json.load(fh)["entries"]
        lookup = {tuple(e.get(r) for r in ROLE_ORDER): finite_number(e["value"]) for e in entries}
        for roles in lookup:
            if any(s is not None and type(s) is not str for s in roles):
                raise ValueError(f"roles {roles} are not each a string or null")
        return lookup
    except KeyError as exc:
        raise ConfigError(f"{path}: lookup table has no {exc}") from None
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed lookup table: {exc}") from None


@contextmanager
def _predictor(args):
    """The predictor chosen by --model, --lookup or --external, live for the block."""
    if args.model:
        model = load_model(args.model)
        yield lambda record: predict(model, record)
    elif args.lookup:
        yield LookupPredictor(_read_lookup(args.lookup))
    elif args.external:
        with ExternalPredictor(args.external) as predictor:
            yield predictor
    else:
        raise ConfigError("need one of --model, --lookup, or --external")


def _typed(key: str, value, want: type):
    """``value`` as a ``want``: a float may be an int, an int is no bool, and
    one int is a 1-tuple; any other mismatch is a ConfigError naming ``key``."""
    if want is tuple and type(value) is int:
        value = (value,)
    if want is float and type(value) is int:
        value = float(value)
    if type(value) is not want:
        kind = {int: "an int", float: "a number", str: "a string", tuple: "int(s)"}[want]
        raise ConfigError(f"config key {key}: {value!r} is not {kind}")
    return value


def _config(cls, args, values: dict, **defaults):
    """A validated ``cls``: its defaults, then ``defaults``, then the config
    file's ``values``, then the flags of the same names that are not None,
    each of its field default's type."""
    for key, field in cls.__dataclass_fields__.items():
        value = getattr(args, key, None)
        if value is None:
            value = values.get(key)
        if value is not None:
            defaults[key] = _typed(key, value, type(field.default))
    cfg = cls(**defaults)
    cfg.validate()
    return cfg


def _make_trainer(args, property_name: str):
    values = _read_config_file(args.config)
    kind = args.model_kind or values.get("model", "ridge")
    if kind == "ridge":
        lam = args.ridge_lambda
        lam = _typed("lambda", values.get("lambda", 1.0) if lam is None else lam, float)
        return kind, lambda X, y: train_ridge(X, y, lam, property_name)
    if kind == "mlp":
        cfg = _config(MLPConfig, args, values, seed=DEFAULT_SEED)
        return kind, lambda X, y: train_mlp(X, y, cfg, property_name)
    raise ConfigError(f"unknown model kind {kind!r}")


def _write_search(result, args) -> None:
    """Candidates JSONL to -o (default stdout), the best-per-iteration table to
    --trajectory-out (default stderr)."""
    with _output(args.output) as out:
        for cand in result.ranked:
            obj = {
                "roles": {role: getattr(cand.record, role) for role in ROLE_ORDER},
                "value": cand.value,
                "provenance": cand.provenance,
                "iteration": cand.iteration,
            }
            if cand.similarity is not None:
                obj["similarity"] = cand.similarity
            out.write(json.dumps(obj) + "\n")
    with _output(args.trajectory_out, sys.stderr) as out:
        out.write("iteration  best_value    roles\n")
        for i, cand in enumerate(result.best_trace):
            roles = ".".join(x for x in cand.roles_key() if x)
            out.write(f"{i:>9}  {cand.value:>10.4f}    {roles}\n")


# ---------------------------------------------------------------- commands


def _cmd_canonicalize(args) -> int:
    with _output(args.output) as out:
        for smiles in _smiles_lines(args.input, canonicalize):
            out.write(smiles + "\n")
    return 0


def _cmd_descriptors(args) -> int:
    with _output(args.output) as out:
        writer = csv.writer(out)
        writer.writerow(DESCRIPTOR_NAMES)
        for vec in _smiles_lines(args.input, lambda s: compute_descriptors(parse_smiles(s))):
            writer.writerow([format(v, ".9g") for v in vec.as_list()])
    return 0


def _cmd_featurize(args) -> int:
    records = load_records(args.records)
    with _output(args.output) as out:
        for rec in records:
            out.write(json.dumps(assemble_system(rec).to_json_dict()) + "\n")
    return 0


def _cmd_fingerprint(args) -> int:
    fingerprint_key(args.kind, args.radius, args.nbits)
    with _output(args.output) as out:
        for mol in _smiles_lines(args.input, parse_smiles):
            fp = make_fingerprint(mol, args.kind, args.radius, args.nbits)
            out.write(fp.to_hex() + "\n")
    return 0


def _cmd_similarity(args) -> int:
    fingerprint_key(args.kind, args.radius, args.nbits)
    mols = list(_smiles_lines(args.input, parse_smiles))
    kinds = KINDS if args.combine == "mean" else [args.kind]
    matrices = [
        similarity_matrix(mols, kind, args.radius, args.nbits)
        for kind in kinds
    ]
    matrix = np.mean(matrices, axis=0)
    with _output(args.output) as out:
        writer = csv.writer(out)
        for row in matrix:
            writer.writerow([format(v, ".9g") for v in row])
    if args.order_out:
        result = hierarchical_cluster(matrix)
        with open(args.order_out, "w") as fh:
            for leaf in result.leaf_order:
                fh.write(f"{leaf}\n")
    return 0


def _cmd_split(args) -> int:
    records = load_records(args.records)
    plan = make_split(records, args.scheme, args.k, args.seed)
    with _output(args.output) as out:
        json.dump(plan.to_json_dict(), out, indent=2)
        out.write("\n")
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
    seed = DEFAULT_SEED if args.seed is None else args.seed
    plan = make_split(
        [r for r in records if r.property == args.property], args.scheme, args.k, seed
    )
    _kind, trainer = _make_trainer(args, args.property)
    report = cross_validate(records, plan, trainer, args.property)
    with _output(args.output) as out:
        json.dump(report.to_json_dict(), out, indent=2)
        out.write("\n")
    if args.row_out:
        with open(args.row_out, "w") as fh:
            fh.write(report.format_row() + "\n")
    return 0


def _cmd_search(args) -> int:
    records = load_records(args.records)
    config = _config(SearchConfig, args, _read_config_file(args.config))
    with _predictor(args) as predictor:
        seeds_result = top_k_seeds(records, predictor, config)
        pools = {
            role: _load_pool(getattr(args, f"{role}_pool"))
            for role in ROLE_ORDER
            if getattr(args, f"{role}_pool")
        }
        if not pools:
            raise ConfigError("search needs at least one --<role>-pool file")
        result = beam_search([c.record for c in seeds_result.ranked], pools, predictor, config)
    _write_search(result, args)
    return 0


def _cmd_modify(args, mutate_anion: bool) -> int:
    if mutate_anion:
        modify, fixed, seed = modify_anion, args.cation, args.seed_anion
    else:
        modify, fixed, seed = modify_side_chain, args.anion, args.seed_cation
    config = _config(SearchConfig, args, _read_config_file(args.config))
    with _predictor(args) as predictor:
        result = modify(
            fixed, seed, _load_pool(args.pool), predictor,
            solute=args.solute, budget=args.budget, config=config,
        )
    _write_search(result, args)
    return 0


def _cmd_thermo(args) -> int:
    if args.relation == "hydration":
        value = hydration_dg(args.solvation, args.transfer_il_water)
    else:
        value = il_organic_transfer(args.transfer_il_water, args.transfer_org_water)
    print(format(value, ".9g"))
    return 0


def _cmd_gen_synthetic(args) -> int:
    pools = {
        f"{role}s": _load_pool(getattr(args, f"{role}s"))
        for role in ROLE_ORDER
        if getattr(args, f"{role}s")
    }
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
        with _output(args.output) as out:
            writer = csv.writer(out)
            datasets = sorted(ranks["per_dataset"])
            writer.writerow(["model", *datasets, "overall"])
            for model in sorted(ranks["overall"]):
                row = [model]
                row += [format(ranks["per_dataset"][ds][model], ".9g") for ds in datasets]
                row.append(format(ranks["overall"][model], ".9g"))
                writer.writerow(row)
        return 0
    # histogram mode
    records = [r for r in load_records(args.records) if r.property == args.property]
    if not records:
        raise IlkitError(f"no records carry property {args.property!r}")
    values = np.asarray([r.value for r in records])
    counts, edges = np.histogram(values, bins=args.bins)
    with _output(args.output) as out:
        writer = csv.writer(out)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, count in enumerate(counts):
            writer.writerow([format(edges[i], ".9g"), format(edges[i + 1], ".9g"), int(count)])
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
    p.add_argument("--kind", choices=KINDS, default="ecfp")
    p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
    p.add_argument("--nbits", type=int, default=DEFAULT_NBITS)
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("similarity", help="pairwise Tanimoto matrix (+ dendrogram order)")
    add_io(p)
    p.add_argument("--kind", choices=KINDS, default="ecfp")
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
    p.add_argument("--model", dest="model_kind", choices=["ridge", "mlp"], help=MODEL_HELP)
    p.add_argument("--lambda", dest="ridge_lambda", type=float, help="ridge penalty")
    p.add_argument("--config", help="model config file (key = value)")
    p.add_argument("--seed", type=int, help=SEED_HELP)
    p.add_argument("-o", "--output", required=True, help="model JSON path")
    p.add_argument("--trace-out", help="write per-epoch loss trace CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="grouped cross-validation metric report")
    p.add_argument("records")
    p.add_argument("--property", required=True)
    p.add_argument("--scheme", choices=list(SCHEMES), required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, help=f"split seed (default {DEFAULT_SEED}) and {SEED_HELP}")
    p.add_argument("--model", dest="model_kind", choices=["ridge", "mlp"], help=MODEL_HELP)
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
        p.add_argument("--fingerprint", choices=KINDS)
        p.add_argument("-o", "--output", help="candidates JSONL (default stdout)")
        p.add_argument("--trajectory-out", help="trajectory table path (default stderr)")

    p = sub.add_parser("search", help="Top-K seeded beam search over pools")
    p.add_argument("records", help="scored dataset supplying the seeds")
    for role in ROLE_ORDER:
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
    for role in ROLE_ORDER:
        p.add_argument(f"--{role}s", help=f"{role} pool SMILES file")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IlkitError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return 1
    except OSError as exc:
        where = f": {exc.filename}" if exc.filename is not None else ""
        sys.stderr.write(f"error[io]: {exc.strerror or exc}{where}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
