"""Command-line entry point: run the engine, inspect KGs, explain features,
and emit plot-ready report files."""
from __future__ import annotations

import argparse
import csv
import difflib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import engine as eng
from . import kg as kgmod
from . import learn
from .agent import AgentError
from .data import DataError, SchemaConfig, Task, load_csv
from .kg import KGError, RawRef, expr_unit
from .learn import LearnError
from .transform import (AggNode, BinaryNode, DateNode, TransformError,
                        UnaryNode, expr_from_json)

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2

_USER_ERRORS = (DataError, KGError, TransformError, LearnError, AgentError,
                eng.EngineError, FileNotFoundError, json.JSONDecodeError, KeyError)


def _resolve(base_dir, path):
    if path is None:
        return None
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _load_manifest(path):
    with open(path) as fh:
        doc = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    for key in ("dataset", "schema", "kg", "mapping"):
        if doc.get(key):
            doc[key] = _resolve(base, doc[key])
    if doc.get("out"):
        doc["out"] = _resolve(base, doc["out"])
    return doc


def _build_config(doc, args):
    overrides = dict(doc.get("engine", {}))
    flag_map = {
        "episodes": args.episodes,
        "steps": args.steps,
        "cap": args.cap,
        "feature_budget": args.budget,
        "max_order": args.max_order,
        "k_folds": args.k,
        "seed": args.seed,
    }
    for key, val in flag_map.items():
        if val is not None:
            overrides[key] = val
    manifest_learner = overrides.pop("learner", None)
    learner_kind = args.learner or manifest_learner
    cfg = eng.EngineConfig()
    known = {"episodes", "steps", "cap", "feature_budget", "max_order",
             "k_folds", "seed", "patience", "policy"}
    bad = set(overrides) - known
    if bad:
        raise eng.EngineError(f"unknown engine options: {sorted(bad)}")
    cfg = replace(cfg, **overrides)
    if learner_kind:
        cfg = replace(cfg, learner=learn.LearnerSpec(kind=learner_kind, seed=cfg.seed))
    else:
        cfg = replace(cfg, learner=replace(cfg.learner, seed=cfg.seed))
    return cfg


def _check_exists(path, what):
    if path is None or not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")


def _write_result_files(result, d, kg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    headers, columns = eng.feature_matrix(d, kg, result.best_features)
    tcol = d.target_column
    with open(os.path.join(out_dir, "features.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers + [d.target])
        for i in range(d.n_rows):
            row = [_cell(col[i]) for col in columns]
            row.append("" if tcol.missing[i] else str(tcol.values[i]))
            writer.writerow(row)
    with open(os.path.join(out_dir, "log.txt"), "w") as fh:
        for trace in result.traces:
            for i, s in enumerate(trace.steps):
                fh.write(
                    f"episode={trace.index} step={i} action={s.action} "
                    f"generated={s.generated} kept={s.kept} discarded={s.discarded} "
                    f"score {s.score_before:.6f} -> {s.score_after:.6f} "
                    f"reward={s.reward:+.6f}\n"
                )
                for name, reason in s.discarded_features:
                    fh.write(f"  discarded {name}: {reason}\n")


def _cell(v):
    if isinstance(v, float) and np.isnan(v):
        return ""
    return repr(float(v)) if isinstance(v, float) else str(v)


def cmd_run(args) -> int:
    doc = _load_manifest(args.manifest) if args.manifest else {}
    dataset_path = args.dataset or doc.get("dataset")
    schema_path = args.schema or doc.get("schema")
    kg_path = args.kg or doc.get("kg")
    mapping_path = args.mapping or doc.get("mapping")
    out_dir = args.out or doc.get("out") or "."
    _check_exists(dataset_path, "dataset")
    _check_exists(schema_path, "schema")
    _check_exists(kg_path, "kg")
    if mapping_path is not None:
        _check_exists(mapping_path, "mapping")
    cfg = _build_config(doc, args)

    schema = SchemaConfig.from_json(schema_path)
    d = load_csv(dataset_path, schema)
    if mapping_path is None and schema.concept_map_path:
        mapping_path = _resolve(os.path.dirname(os.path.abspath(schema_path)),
                                schema.concept_map_path)
    kg = kgmod.load_kg(kg_path, mapping_path)
    result = eng.run(cfg, d, kg)
    result.config["dataset_path"] = os.path.abspath(dataset_path)
    result.config["schema_path"] = os.path.abspath(schema_path)
    result.config["kg_path"] = os.path.abspath(kg_path)
    result.config["mapping_path"] = (os.path.abspath(mapping_path)
                                     if mapping_path else None)
    if args.sweep:
        orders = [int(x) for x in args.sweep.split(",")]
        result.order_sweep = [[o, s] for o, s in eng.max_order_sweep(cfg, d, kg, orders)]
    _write_result_files(result, d, kg, out_dir)
    print(f"best score {result.best_score:.6f} (baseline {result.baseline_score:.6f}); "
          f"outputs in {out_dir}")
    return EXIT_OK


def cmd_kg_check(args) -> int:
    _check_exists(args.kg, "kg")
    _check_exists(args.dataset, "dataset")
    if args.mapping is not None:
        _check_exists(args.mapping, "mapping")
    kg = kgmod.load_kg(args.kg, args.mapping)
    with open(args.dataset, newline="") as fh:
        header = next(csv.reader(fh))
    target = None
    if args.schema:
        target = SchemaConfig.from_json(args.schema).target_name
    cols = [c for c in header if c != target]
    mapped = [c for c in cols if c in kg.column_concepts]
    frac = len(mapped) / len(cols) if cols else 0.0
    print(f"coverage: {frac:.2f}")
    unmapped = [c for c in cols if c not in kg.column_concepts]
    if unmapped:
        print("unmapped columns: " + ", ".join(unmapped))
    print(f"classes: {len(kg.classes)}")
    print(f"rules: {len(kg.rules)}")
    return EXIT_OK


def _print_tree(expr, kg, indent=0):
    pad = "  " * indent
    unit = expr_unit(kg, expr)
    token = unit.name or unit.dims_token() if unit is not None else "unknown"
    if isinstance(expr, RawRef):
        entry = kg.column_concepts.get(expr.name)
        cls = entry[0] if entry else "(unmapped)"
        print(f"{pad}{expr.name.upper()}  class={cls} unit={token}")
        return
    op = expr.op
    print(f"{pad}{op.upper()}  unit={token}")
    if isinstance(expr, (UnaryNode, DateNode)):
        _print_tree(expr.child, kg, indent + 1)
    elif isinstance(expr, BinaryNode):
        _print_tree(expr.left, kg, indent + 1)
        _print_tree(expr.right, kg, indent + 1)
    elif isinstance(expr, AggNode):
        _print_tree(expr.key, kg, indent + 1)
        _print_tree(expr.value, kg, indent + 1)


def cmd_explain(args) -> int:
    _check_exists(args.result, "result file")
    with open(args.result) as fh:
        result = eng.FEResult.from_json(json.load(fh))
    known = {f["display_name"]: f for f in result.best_features}
    discarded = {e["display_name"]: e for e in result.discard_log}
    name = args.feature
    if name not in known and name not in discarded:
        near = difflib.get_close_matches(name, list(known) + list(discarded), n=3)
        hint = f"; closest matches: {', '.join(near)}" if near else ""
        print(f"error: unknown feature {name!r}{hint}", file=sys.stderr)
        return EXIT_USER
    kg = kgmod.load_kg(result.config["kg_path"], result.config.get("mapping_path"))
    if name in known:
        doc = known[name]
        print(f"{name}")
        print(f"verdict: {doc['verdict']}")
    else:
        doc = discarded[name]
        print(f"{name}")
        print(f"verdict: non_interpretable (discarded during the run)")
        print(f"rule: {doc['reason']}")
    _print_tree(expr_from_json(doc["expr"]), kg, indent=1)
    return EXIT_OK


def cmd_report(args) -> int:
    _check_exists(args.result, "result file")
    with open(args.result) as fh:
        result = eng.FEResult.from_json(json.load(fh))
    out_dir = args.out or os.path.dirname(os.path.abspath(args.result))
    os.makedirs(out_dir, exist_ok=True)

    schema = SchemaConfig.from_json(result.config["schema_path"])
    d = load_csv(result.config["dataset_path"], schema)
    kg = kgmod.load_kg(result.config["kg_path"], result.config.get("mapping_path"))

    raw = [f for f in result.best_features if f["raw"]]
    generated = [f for f in result.best_features if not f["raw"]]
    headers, columns = eng.feature_matrix(d, kg, result.best_features)
    X = np.column_stack(columns)
    X, _ = learn.impute_columns(X, X[:0])
    y = eng._target_labels(d)
    if d.task == Task.CLASSIFICATION:
        y, _ = learn.encode_labels(y)
    seed = result.config.get("seed", 0)
    spec = learn.LearnerSpec(kind="random_forest", seed=seed)

    # rank generated features, then rebuild raw + top-n for the report forest
    model = learn.train(spec, X, np.asarray(y, dtype=float), d.task)
    imp = learn.feature_importance(model)
    gen_idx = [i for i, f in enumerate(result.best_features) if not f["raw"]]
    gen_idx.sort(key=lambda i: (-imp[i], headers[i]))
    top_gen = gen_idx[: len(raw)] if raw else gen_idx
    keep = [i for i, f in enumerate(result.best_features) if f["raw"]] + top_gen
    model2 = learn.train(spec, X[:, keep], np.asarray(y, dtype=float), d.task)
    imp2 = learn.feature_importance(model2)
    with open(os.path.join(out_dir, "importance.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "importance", "origin"])
        for pos, i in enumerate(keep):
            origin = "raw" if result.best_features[i]["raw"] else "generated"
            writer.writerow([headers[i], repr(float(imp2[pos])), origin])

    if result.order_sweep:
        with open(os.path.join(out_dir, "order_sweep.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["max_order", "best_score"])
            for order, score in result.order_sweep:
                writer.writerow([order, repr(float(score))])
    print(f"report written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgfeat",
                                     description="knowledge-guided feature engineering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the feature engineering engine")
    p_run.add_argument("--manifest", help="JSON manifest with paths and options")
    p_run.add_argument("--dataset")
    p_run.add_argument("--schema")
    p_run.add_argument("--kg")
    p_run.add_argument("--mapping")
    p_run.add_argument("--episodes", type=int)
    p_run.add_argument("--steps", type=int)
    p_run.add_argument("--cap", type=int)
    p_run.add_argument("--budget", type=int)
    p_run.add_argument("--max-order", type=int, dest="max_order")
    p_run.add_argument("--k", type=int)
    p_run.add_argument("--learner",
                       choices=["decision_tree", "random_forest", "linear", "logistic"])
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--sweep", help="comma-separated max_order values to sweep")
    p_run.set_defaults(func=cmd_run)

    p_kg = sub.add_parser("kg-check", help="report KG coverage of a dataset")
    p_kg.add_argument("--kg", required=True)
    p_kg.add_argument("--dataset", required=True)
    p_kg.add_argument("--mapping")
    p_kg.add_argument("--schema")
    p_kg.set_defaults(func=cmd_kg_check)

    p_ex = sub.add_parser("explain", help="explain one feature from a result file")
    p_ex.add_argument("result")
    p_ex.add_argument("feature")
    p_ex.set_defaults(func=cmd_explain)

    p_rep = sub.add_parser("report", help="emit importance / sweep CSVs")
    p_rep.add_argument("result")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
