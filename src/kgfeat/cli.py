"""Command-line entry point: run the engine, inspect KGs, explain features,
and emit plot-ready report files."""
from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import sys

import numpy as np

from . import engine as eng
from . import kg as kgmod
from . import learn
from .agent import AgentError
from .data import DataError, Kind, RawRef, SchemaConfig, load_csv, read_header, read_json
from .kg import KGError
from .learn import LearnError
from .transform import TransformError, categorical_codes, children, expr_from_json

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2

_USER_ERRORS = (DataError, KGError, TransformError, LearnError, AgentError,
                eng.EngineError, OSError, json.JSONDecodeError)
_PATH_KEYS = ("dataset", "schema", "kg", "mapping", "out")  # a manifest's file fields
# A manifest: its file fields, and engine options typed as EngineConfig's
# fields (a null option is absent).
_MANIFEST_SHAPE = {**dict.fromkeys(_PATH_KEYS, (str, None)), "engine": (
    {"learner": (str, None), **{key: (t, None) for key, t in eng.ENGINE_OPTIONS.items()}}, None)}


def _load_manifest(path):
    doc = read_json(path, _MANIFEST_SHAPE, eng.EngineError)
    base = os.path.dirname(os.path.abspath(path))
    for key in _PATH_KEYS:
        if doc.get(key):
            doc[key] = os.path.join(base, doc[key])  # an absolute path stays as it is
    return doc


def _load_result(path):
    """The FEResult in a result file (checked by `FEResult.from_json`)."""
    _check_inputs({"result file": path})
    return eng.FEResult.from_json(read_json(path, object, eng.EngineError), path)


def _build_config(doc, args):
    """The run's EngineConfig: each engine option, the learner kind among
    them, is the flag, else the manifest's, else the default."""
    options = dict(doc.get("engine") or {})
    bad = set(options) - {"learner", *eng.ENGINE_OPTIONS}
    if bad:
        raise eng.EngineError(f"unknown engine options: {sorted(bad)}")
    for key in ("learner", *eng.ENGINE_OPTIONS):
        if getattr(args, key, None) is not None:
            options[key] = getattr(args, key)
    kind = options.pop("learner", None) or learn.LearnerSpec.kind
    return eng.EngineConfig(**{k: v for k, v in options.items() if v is not None},
                            learner=learn.LearnerSpec(kind=kind))


def _check_inputs(paths):
    """Raise an OSError naming the first path in `paths` (what -> path) that
    is no file, or, for `out`, that is no directory or lies under a file; a
    mapping may be absent, and an absent `out` is the working directory."""
    for what, path in paths.items():
        if what == "out":
            head = os.path.abspath(path or ".")
            while not os.path.exists(head):  # the directory it would be made in
                head = os.path.dirname(head)
            if not os.path.isdir(head):
                raise NotADirectoryError(f"out is not a directory: {path}")
        elif not (what == "mapping" and path is None) and not (path and os.path.isfile(path)):
            problem = "is not a file" if path and os.path.exists(path) else "not found"
            raise FileNotFoundError(f"{what} {problem}: {path}")


_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(s: str) -> str:
    """`s` quoted as csv.writer's default dialect (QUOTE_MINIMAL) quotes it."""
    return '"' + s.replace('"', '""') + '"' if _CSV_SPECIAL.search(s) else s


def _csv_line(fields) -> str:
    """One CSV row, as csv.writer writes it, from fields already passed
    through `_csv_field` (a float's repr never needs quoting)."""
    # csv.writer quotes a row's only field when it is empty, so no line is blank
    return (",".join(fields) or '""' * (len(fields) == 1)) + "\r\n"


_CSV_BLOCK_ROWS = 4096  # features.csv rows formatted at a time; bounds the cells held


def _write_result_files(result, d, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    headers, X = eng.feature_matrix(d, result.best_features)
    tcol = d.target_column  # a categorical one reads back as its cells, "" where missing
    numeric = list(X.T) + ([] if tcol.kind == Kind.CATEGORICAL else [tcol.values])
    labels = (np.array(tcol.levels + ("",), dtype=object)[categorical_codes(tcol)]
              if tcol.kind == Kind.CATEGORICAL else None)
    with open(os.path.join(out_dir, "features.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line([_csv_field(h) for h in headers + [d.target]]))
        for a in range(0, d.n_rows, _CSV_BLOCK_ROWS):
            b = a + _CSV_BLOCK_ROWS
            cells = [[repr(v) if v == v else "" for v in col[a:b].tolist()] for col in numeric]
            if labels is not None:
                cells.append([_csv_field(v) for v in labels[a:b].tolist()])
            fh.writelines(_csv_line(row) for row in zip(*cells))
    with open(os.path.join(out_dir, "log.txt"), "w", encoding="utf-8") as fh:
        for trace in result.traces:
            for i, s in enumerate(trace.steps):
                fh.write(
                    f"episode={trace.index} step={i} action={s.action} "
                    f"generated={s.generated} kept={s.kept} discarded={len(s.discarded)} "
                    f"score {s.score_before:.6f} -> {s.score_after:.6f} "
                    f"reward={s.reward:+.6f}\n"
                )
                for entry in s.discarded:
                    fh.write(f"  discarded {entry['display_name']}: {entry['reason']}\n")


def cmd_run(args) -> int:
    doc = _load_manifest(args.manifest) if args.manifest else {}
    paths = {key: getattr(args, key) or doc.get(key) for key in _PATH_KEYS}
    _check_inputs(paths)
    cfg = _build_config(doc, args)
    try:
        orders = [int(x) for x in args.sweep.split(",")] if args.sweep else []
    except ValueError:
        raise eng.EngineError(f"invalid --sweep value {args.sweep!r}") from None
    eng.sweep_configs(cfg, orders)  # a bad list fails before the run

    schema = SchemaConfig.from_json(paths["schema"])
    d = load_csv(paths["dataset"], schema)
    if paths["mapping"] is None and schema.concept_map_path:
        paths["mapping"] = os.path.join(os.path.dirname(os.path.abspath(paths["schema"])),
                                        schema.concept_map_path)
    kg = kgmod.load_kg(paths["kg"], paths["mapping"])
    result = eng.run(cfg, d, kg)
    for key in ("dataset", "schema", "kg", "mapping"):
        result.config[f"{key}_path"] = paths[key] and os.path.abspath(paths[key])
    if orders:
        result.order_sweep = [[o, s] for o, s in eng.max_order_sweep(cfg, d, kg, orders)]
    out_dir = paths["out"] or "."
    _write_result_files(result, d, out_dir)
    print(f"best score {result.best_score:.6f} (baseline {result.baseline_score:.6f}); "
          f"outputs in {out_dir}")
    return EXIT_OK


def cmd_kg_check(args) -> int:
    inputs = {"kg": args.kg, "dataset": args.dataset, "mapping": args.mapping}
    if args.schema:
        inputs["schema"] = args.schema
    _check_inputs(inputs)
    kg = kgmod.load_kg(args.kg, args.mapping)
    header = read_header(args.dataset)
    target = SchemaConfig.from_json(args.schema).target_name if args.schema else None
    cols = [c for c in header if c != target]
    print(f"coverage: {kgmod.coverage(kg, cols):.2f}")
    unmapped = [c for c in cols if c not in kg.column_concepts]
    if unmapped:
        print("unmapped columns: " + ", ".join(unmapped))
    print(f"classes: {len(kg.classes)}")
    print(f"rules: {len(kg.rules)}")
    return EXIT_OK


def _print_tree(expr, kg, nodes, indent=1):
    """One line per node; `nodes` holds each node's (unit, unit name) as
    the verdict computed them (kg.materialize_facts), and a node prints the
    unit name its hasUnit fact uses."""
    pad = "  " * indent
    unit = f"unit={nodes[expr][1] or 'unknown'}"
    if isinstance(expr, RawRef):
        cls = kg.column_concepts.get(expr.name, ("(unmapped)",))[0]
        print(f"{pad}{expr.name}  class={cls} {unit}")
        return
    print(f"{pad}{expr.op.upper()}  {unit}")
    for child in children(expr):
        _print_tree(child, kg, nodes, indent + 1)


def cmd_explain(args) -> int:
    result = _load_result(args.result)
    known = {f["display_name"]: i for i, f in enumerate(result.best_features)}
    discarded = {e["display_name"]: i for i, e in enumerate(result.discard_log)}
    name = args.feature
    if name not in known and name not in discarded:
        near = difflib.get_close_matches(name, list(known) + list(discarded), n=3)
        hint = f"; closest matches: {', '.join(near)}" if near else ""
        raise eng.EngineError(f"unknown feature {name!r}{hint}")
    paths = {"kg": result.config["kg_path"], "mapping": result.config.get("mapping_path")}
    _check_inputs(paths)
    kg = kgmod.load_kg(paths["kg"], paths["mapping"])
    at = ("best_features", known[name]) if name in known else ("discard_log", discarded[name])
    doc = getattr(result, at[0])[at[1]]
    expr = expr_from_json(doc["expr"], args.result, (*at, "expr"))
    print(f"{name}")
    if name in known:
        print(f"verdict: {doc['verdict']}")
    else:
        print(f"verdict: non_interpretable (discarded during the run)")
        print(f"rule: {doc['reason']}")
    _print_tree(expr, kg, kgmod.materialize_facts(kg, expr)[1])
    return EXIT_OK


def cmd_report(args) -> int:
    result = _load_result(args.result)
    unpaired = [i for i, pair in enumerate(result.order_sweep or []) if len(pair) != 2]
    if unpaired:
        raise eng.EngineError(f"{args.result}: order_sweep[{unpaired[0]}] is not a "
                              "[max_order, best_score] pair")
    out_dir = args.out or os.path.dirname(os.path.abspath(args.result))
    paths = {"schema": result.config["schema_path"], "dataset": result.config["dataset_path"]}
    _check_inputs({**paths, "out": out_dir})
    os.makedirs(out_dir, exist_ok=True)
    d = load_csv(paths["dataset"], SchemaConfig.from_json(paths["schema"]))

    raw = [i for i, f in enumerate(result.best_features) if f["raw"]]
    headers, X = eng.feature_matrix(d, result.best_features, args.result)
    y = eng.target_codes(d)
    spec = learn.LearnerSpec(kind="random_forest", seed=result.config.get("seed") or 0)

    # rank generated features, then rebuild raw + top-n for the report forest
    imp = eng.importance(spec, X, y, d.task)
    gen_idx = [i for i, f in enumerate(result.best_features) if not f["raw"]]
    gen_idx.sort(key=lambda i: (-imp[i], headers[i]))
    top_gen = gen_idx[: len(raw)] if raw else gen_idx
    keep = raw + top_gen
    imp2 = eng.importance(spec, X[:, keep], y, d.task)
    with open(os.path.join(out_dir, "importance.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_line(["feature", "importance", "origin"]))
        for pos, i in enumerate(keep):
            origin = "raw" if result.best_features[i]["raw"] else "generated"
            fh.write(_csv_line([_csv_field(headers[i]), repr(float(imp2[pos])), origin]))

    if result.order_sweep:
        with open(os.path.join(out_dir, "order_sweep.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            fh.write(_csv_line(["max_order", "best_score"]))
            fh.writelines(_csv_line([str(order), repr(float(score))])
                          for order, score in result.order_sweep)
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
    p_run.add_argument("--budget", type=int, dest="feature_budget")
    p_run.add_argument("--max-order", type=int, dest="max_order")
    p_run.add_argument("--k", type=int, dest="k_folds")
    p_run.add_argument("--learner", choices=learn.LEARNERS)
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
