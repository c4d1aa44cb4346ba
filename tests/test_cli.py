import csv
import json
import math
import os

import numpy as np
import pytest

import kgfeat
from kgfeat.cli import _write_result_files, main
from kgfeat.data import Column, Dataset, Kind, Task
from kgfeat.engine import FEResult
from kgfeat.kg import empty_kg
from kgfeat.transform import RawRef, expr_to_json

from conftest import make_planted_dataset


def run_manifest(tmp_path, planted_paths, out_name="out", extra=None):
    manifest = {
        "dataset": planted_paths["csv"],
        "schema": planted_paths["schema"],
        "kg": kgfeat.resource_path("default_kg.json"),
        "engine": {"episodes": 2, "steps": 2, "cap": 4, "k_folds": 3,
                   "learner": "linear", "seed": 0},
        "out": str(tmp_path / out_name),
    }
    path = tmp_path / f"{out_name}.manifest.json"
    path.write_text(json.dumps(manifest))
    argv = ["run", "--manifest", str(path)] + (extra or [])
    return main(argv), str(tmp_path / out_name)


@pytest.fixture()
def planted_paths(tmp_path):
    _, _, paths = make_planted_dataset(tmp_path)
    return paths


def test_run_writes_outputs(tmp_path, planted_paths, capsys):
    code, out_dir = run_manifest(tmp_path, planted_paths)
    assert code == 0
    for name in ("result.json", "features.csv", "log.txt"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    with open(os.path.join(out_dir, "result.json")) as fh:
        doc = json.load(fh)
    assert doc["best_score"] >= doc["baseline_score"]
    assert doc["config"]["episodes"] == 2
    assert "best score" in capsys.readouterr().out


def test_run_sales_linear_with_near_singular_normal_matrix(tmp_path):
    # the sales columns are collinear and badly scaled (condition about 4e25)
    out_dir = tmp_path / "out"
    code = main(["run", "--manifest", kgfeat.resource_path("sales.manifest.json"),
                 "--learner", "linear", "--episodes", "5", "--steps", "10",
                 "--out", str(out_dir)])
    assert code == 0
    doc = json.loads((out_dir / "result.json").read_text())
    assert math.isfinite(doc["baseline_score"])
    assert doc["best_score"] >= doc["baseline_score"]


def test_run_flags_override_manifest(tmp_path, planted_paths):
    code, out_dir = run_manifest(tmp_path, planted_paths, "flagged",
                                 extra=["--episodes", "1", "--seed", "3"])
    assert code == 0
    with open(os.path.join(out_dir, "result.json")) as fh:
        doc = json.load(fh)
    assert doc["config"]["episodes"] == 1
    assert doc["seed"] == 3


def test_run_deterministic_byte_identical(tmp_path, planted_paths):
    _, out_a = run_manifest(tmp_path, planted_paths, "a")
    _, out_b = run_manifest(tmp_path, planted_paths, "b")
    with open(os.path.join(out_a, "result.json"), "rb") as fh:
        blob_a = fh.read()
    with open(os.path.join(out_b, "result.json"), "rb") as fh:
        blob_b = fh.read()
    assert blob_a == blob_b


def test_run_sweep_recorded(tmp_path, planted_paths):
    code, out_dir = run_manifest(tmp_path, planted_paths, "swept",
                                 extra=["--sweep", "0,1"])
    assert code == 0
    with open(os.path.join(out_dir, "result.json")) as fh:
        doc = json.load(fh)
    assert [o for o, _ in doc["order_sweep"]] == [0, 1]


def test_run_missing_dataset_exits_one(tmp_path, capsys):
    code = main(["run", "--dataset", str(tmp_path / "nope.csv"),
                 "--schema", str(tmp_path / "nope.json"),
                 "--kg", kgfeat.resource_path("default_kg.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_unknown_engine_option_exits_one(tmp_path, planted_paths, capsys):
    manifest = {
        "dataset": planted_paths["csv"],
        "schema": planted_paths["schema"],
        "kg": kgfeat.resource_path("default_kg.json"),
        "engine": {"velocity": 9},
        "out": str(tmp_path / "never"),
    }
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["run", "--manifest", str(path)]) == 1
    assert "unknown engine options" in capsys.readouterr().err


def test_kg_check_output(planted_paths, capsys):
    code = main(["kg-check",
                 "--kg", kgfeat.resource_path("default_kg.json"),
                 "--dataset", planted_paths["csv"],
                 "--mapping", planted_paths["mapping"],
                 "--schema", planted_paths["schema"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "coverage: 0.40" in out  # 2 of 5 feature columns mapped
    assert "unmapped columns" in out
    assert "rules: 3" in out


def test_kg_check_bundled_diabetes(capsys):
    code = main(["kg-check",
                 "--kg", kgfeat.resource_path("default_kg.json"),
                 "--dataset", kgfeat.resource_path("diabetes.csv"),
                 "--mapping", kgfeat.resource_path("diabetes.mapping.json"),
                 "--schema", kgfeat.resource_path("diabetes.schema.json")])
    assert code == 0
    assert "coverage: 1.00" in capsys.readouterr().out


def test_explain_known_and_unknown_feature(tmp_path, planted_paths, capsys):
    _, out_dir = run_manifest(tmp_path, planted_paths)
    result_path = os.path.join(out_dir, "result.json")
    code = main(["explain", result_path, "X1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: interpretable" in out
    assert "class=Weight" in out and "unit=kg" in out
    code = main(["explain", result_path, "X1 PLUS X2"])
    assert code == 1
    assert "unknown feature" in capsys.readouterr().err


def test_report_writes_importance(tmp_path, planted_paths):
    _, out_dir = run_manifest(tmp_path, planted_paths, "rep",
                              extra=["--sweep", "0,1"])
    result_path = os.path.join(out_dir, "result.json")
    assert main(["report", result_path]) == 0
    imp_path = os.path.join(out_dir, "importance.csv")
    assert os.path.exists(imp_path)
    with open(imp_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "feature,importance,origin"
    assert len(lines) > 1
    assert os.path.exists(os.path.join(out_dir, "order_sweep.csv"))


def test_run_missing_classification_target_exits_one(tmp_path, capsys):
    # an empty target cell is an error for classification as for regression
    csv_path = tmp_path / "labels.csv"
    rows = ["x,label"] + [f"{i},{'cat' if i % 2 else 'dog'}" for i in range(11)]
    csv_path.write_text("\n".join(rows + ["11,"]) + "\n")
    schema_path = tmp_path / "labels.schema.json"
    schema_path.write_text(json.dumps({"target_name": "label",
                                       "task": "classification"}))
    code = main(["run", "--dataset", str(csv_path), "--schema", str(schema_path),
                 "--kg", kgfeat.resource_path("default_kg.json"),
                 "--episodes", "1", "--steps", "1", "--k", "2",
                 "--learner", "decision_tree", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "target column has missing values" in capsys.readouterr().err


def test_report_missing_result_exits_one(tmp_path):
    assert main(["report", str(tmp_path / "absent.json")]) == 1


def write_regression(tmp_path, feature_cells, target_cells):
    csv_path = tmp_path / "reg.csv"
    rows = ["x,z,y"] + [f"{i},{f},{t}" for i, (f, t) in
                        enumerate(zip(feature_cells, target_cells))]
    csv_path.write_text("\n".join(rows) + "\n")
    schema_path = tmp_path / "reg.schema.json"
    schema_path.write_text(json.dumps({"target_name": "y", "task": "regression"}))
    return ["run", "--dataset", str(csv_path), "--schema", str(schema_path),
            "--kg", kgfeat.resource_path("default_kg.json"),
            "--episodes", "1", "--steps", "2", "--k", "2",
            "--learner", "linear", "--out", str(tmp_path / "out")]


def test_run_inf_feature_cell_gives_finite_scores(tmp_path):
    # an inf cell is missing, so it is imputed rather than reaching the learner
    z = [str(0.5 * i) for i in range(40)]
    z[7] = "inf"
    argv = write_regression(tmp_path, z, [str(1.5 * i + (i % 3)) for i in range(40)])
    assert main(argv) == 0
    with open(tmp_path / "out" / "result.json") as fh:
        result = json.load(fh)
    assert math.isfinite(result["baseline_score"])
    assert math.isfinite(result["best_score"])


def test_run_nan_regression_target_exits_one(tmp_path, capsys):
    y = [str(float(i)) for i in range(12)]
    y[5] = "nan"
    argv = write_regression(tmp_path, [str(i % 4) for i in range(12)], y)
    assert main(argv) == 1
    assert "target column has missing values" in capsys.readouterr().err


def test_features_csv_cells_are_repr_or_empty(tmp_path):
    vals = [math.nan, -0.0, 0.1, 1e-310, 1e300, 3.0]
    d = Dataset(columns=[Column("v", Kind.NUMERIC, np.array(vals), np.isnan(vals)),
                         Column("y", Kind.NUMERIC, np.arange(6.0), np.zeros(6, bool))],
                target="y", task=Task.REGRESSION, n_rows=6)
    result = FEResult(best_features=[{"display_name": "V",
                                      "expr": expr_to_json(RawRef("v"))}],
                      best_score=0.0, baseline_score=0.0, episode_scores=[],
                      best_trajectory=[], discard_log=[], config={}, seed=0)
    _write_result_files(result, d, empty_kg(), str(tmp_path))
    with open(tmp_path / "features.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["V", "y"]
    cells = [row[0] for row in rows[1:]]
    assert cells == [repr(v) if v == v else "" for v in vals]
    for cell, v in zip(cells, vals):
        if cell:
            assert float(cell).hex() == v.hex()  # the same float, sign of 0 too
