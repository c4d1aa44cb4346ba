import codecs
import contextlib
import copy
import csv
import datetime
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kgfeat
from kgfeat.cli import (_CSV_BLOCK_ROWS, _build_config, _csv_field, _csv_line,
                        _write_result_files, build_parser, main)
from kgfeat.data import Dataset, Task
from kgfeat.engine import FEResult
from kgfeat.learn import LEARNERS, LearnerSpec
from kgfeat import engine as eng
from kgfeat.transform import Node, RawRef, apply, expr_from_json, expr_to_json

from conftest import cat_col, make_planted_dataset, num_col


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
                                 extra=["--episodes", "1", "--seed", "3",
                                        "--budget", "9", "--k", "2"])
    assert code == 0
    with open(os.path.join(out_dir, "result.json")) as fh:
        doc = json.load(fh)
    assert doc["config"]["episodes"] == 1
    assert doc["config"]["feature_budget"] == 9
    assert doc["config"]["k_folds"] == 2
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


@pytest.mark.parametrize("sweep, message", [
    ("x", "invalid --sweep value 'x'"),
    ("2,1", "orders must be ascending"),
    ("-1", "max_order must be at least 0"),
])
def test_run_bad_sweep_exits_one_before_the_run(tmp_path, planted_paths, capsys,
                                                monkeypatch, sweep, message):
    def no_run(*args):
        raise AssertionError("the run started before --sweep was checked")
    monkeypatch.setattr(eng, "run", no_run)
    code, out_dir = run_manifest(tmp_path, planted_paths, extra=["--sweep", sweep])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out_dir)


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


@pytest.mark.parametrize("key, value, named", [
    pytest.param("steps", "2", "engine.steps is not an integer",
                 id="steps-2-'steps' is not an integer"),
    pytest.param("steps", 2.5, "engine.steps is not an integer",
                 id="steps-2.5-'steps' is not an integer"),
    pytest.param("steps", True, "engine.steps is not an integer",
                 id="steps-True-'steps' is not an integer"),
    pytest.param("steps", "dqn", "engine.steps is not an integer",
                 id="steps-dqn-'steps' is not an integer"),
    pytest.param("policy", 1, "engine.policy is not a string",
                 id="policy-1-'policy' is not a string"),
    ("learner", ["linear"], "engine.learner is not a string"),
])
def test_run_engine_option_of_the_wrong_type_exits_one(tmp_path, planted_paths, capsys,
                                                       key, value, named):
    # a string was an internal error (exit 2) from EngineConfig's range check
    manifest = {
        "dataset": planted_paths["csv"],
        "schema": planted_paths["schema"],
        "kg": kgfeat.resource_path("default_kg.json"),
        "engine": {key: value},
        "out": str(tmp_path / "never"),
    }
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["run", "--manifest", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {named}\n"
    assert not (tmp_path / "never").exists()


def test_run_with_an_unknown_learner_exits_one_before_reading_the_dataset(
        tmp_path, planted_paths, capsys, monkeypatch):
    # it used to load the CSV and the KG and fail only in the engine
    read = []
    monkeypatch.setattr("kgfeat.cli.load_csv", lambda *a: read.append(a))
    manifest = {
        "dataset": planted_paths["csv"],
        "schema": planted_paths["schema"],
        "kg": kgfeat.resource_path("default_kg.json"),
        "engine": {"learner": "foo"},
        "out": str(tmp_path / "never"),
    }
    path = tmp_path / "foo.manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["run", "--manifest", str(path)]) == 1
    assert capsys.readouterr().err == "error: unknown learner 'foo'\n"
    assert read == [] and not (tmp_path / "never").exists()


def test_run_sets_every_engine_option_from_the_manifest(tmp_path, planted_paths):
    options = {"episodes": 2, "steps": 2, "cap": 3, "feature_budget": 7, "max_order": 2,
               "k_folds": 3, "seed": 5, "patience": 4, "policy": "random"}
    manifest = {
        "dataset": planted_paths["csv"],
        "schema": planted_paths["schema"],
        "kg": kgfeat.resource_path("default_kg.json"),
        "engine": dict(options, learner="linear"),
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "all.manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["run", "--manifest", str(path)]) == 0
    config = json.loads((tmp_path / "out" / "result.json").read_text())["config"]
    assert {k: config[k] for k in options} == options
    assert config["learner"]["kind"] == "linear"


@pytest.mark.parametrize("in_manifest, flag, kind", [
    (None, None, "random_forest"),
    ("linear", None, "linear"),
    ("linear", "decision_tree", "decision_tree"),
    (None, "logistic", "logistic"),
])
def test_the_learner_is_the_default_spec_of_its_kind_on_the_run_seed(in_manifest, flag,
                                                                      kind):
    engine_doc = {"seed": 4, **({"learner": in_manifest} if in_manifest else {})}
    args = build_parser().parse_args(["run"] + (["--learner", flag] if flag else []))
    cfg = _build_config({"engine": engine_doc}, args)
    assert cfg.learner == LearnerSpec(kind=kind, seed=4)


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


def test_kg_check_deep_subclass_chain(tmp_path, capsys):
    n = 1500
    kg = {"classes": [f"C{i}" for i in range(n)],
          "subclass_of": [[f"C{i + 1}", f"C{i}"] for i in range(n - 1)]}
    (tmp_path / "kg.json").write_text(json.dumps(kg))
    (tmp_path / "data.csv").write_text("a,b\n1,2\n")
    assert main(["kg-check", "--kg", str(tmp_path / "kg.json"),
                 "--dataset", str(tmp_path / "data.csv")]) == 0
    assert f"classes: {n}" in capsys.readouterr().out


_HEAD = {"pred": "p", "args": ["?x"]}


@pytest.mark.parametrize("kg, mapping, named", [
    ([], None, "kg.json: the document is not a JSON object"),
    ({"classes": ["A"], "subclass_of": [["A"]]}, None,
     "kg.json: subclass_of entry ['A'] is not two class names"),
    pytest.param({"classes": ["Units"], "units": [{"dims": {}}]}, None,
                 "kg.json: units[0] has no 'name' field",
                 id="kg2-None-kg.json: unit 0 has no 'name' field"),
    pytest.param({"rules": [{"head": _HEAD}]}, None, "kg.json: rules[0] has no 'body' field",
                 id="kg3-None-kg.json: rule 0 has no 'body' field"),
    pytest.param({"rules": [{"body": [_HEAD]}]}, None, "kg.json: rules[0] has no 'head' field",
                 id="kg4-None-kg.json: rule 0 has no 'head' field"),
    pytest.param({"rules": [{"body": [{"args": ["?x"]}], "head": _HEAD}]}, None,
                 "kg.json: rules[0].body[0] has no 'pred' field",
                 id="kg5-None-kg.json: rule 0 has no 'pred' field"),
    pytest.param({"rules": [{"body": [_HEAD], "head": {"pred": "q"}}]}, None,
                 "kg.json: rules[0].head has no 'args' field",
                 id="kg6-None-kg.json: rule 0 has no 'args' field"),
    ({}, [], "map.json: the document is not a JSON object"),
    pytest.param({"classes": ["Weight"]}, {"a": {"unit": "kg"}},
                 "map.json: a has no 'class' field",
                 id="kg8-mapping8-map.json: mapping for 'a' has no 'class' field"),
    pytest.param({"quantities": []}, None, "kg.json: quantities is not a JSON object",
                 id="kg9-None-kg.json: 'quantities' is not a JSON object"),
    pytest.param({"classes": {"A": 1}}, None, "kg.json: classes is not a JSON array",
                 id="kg10-None-kg.json: 'classes' is not a JSON array"),
    pytest.param({"classes": [["A"]]}, None, "kg.json: classes[0] is not a string",
                 id="kg11-None-kg.json: 'classes' is not an array of class names"),
    pytest.param({"subclass_of": {}}, None, "kg.json: subclass_of is not a JSON array",
                 id="kg12-None-kg.json: 'subclass_of' is not a JSON array"),
    pytest.param({"units": "kg"}, None, "kg.json: units is not a JSON array",
                 id="kg13-None-kg.json: 'units' is not a JSON array"),
    pytest.param({"rules": {}}, None, "kg.json: rules is not a JSON array",
                 id="kg14-None-kg.json: 'rules' is not a JSON array"),
    ({"classes": ["P"], "rules": [{"body": [{"pred": "P", "args": ["?x"]}],
                                   "head": {"pred": "Q", "args": ["?y"]}}]}, None,
     "kg.json: rule 'rule 1': head variables must appear in the body"),
])
def test_kg_check_malformed_kg_or_mapping_exits_one_naming_the_entry(
        tmp_path, capsys, kg, mapping, named):
    # each was an internal error (exit 2), or a bare "error: 'class'"; a
    # case whose message is now a JSON path keeps the id of its old wording
    (tmp_path / "kg.json").write_text(json.dumps(kg))
    (tmp_path / "data.csv").write_text("a,b\n1,2\n")
    argv = ["kg-check", "--kg", str(tmp_path / "kg.json"),
            "--dataset", str(tmp_path / "data.csv")]
    if mapping is not None:
        (tmp_path / "map.json").write_text(json.dumps(mapping))
        argv += ["--mapping", str(tmp_path / "map.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("kg, mapping, named", [
    ({"classes": ["Units"], "units": [{"name": ["kg"]}]}, None,
     "kg.json: units[0].name is not a string"),
    ({"classes": ["Units"], "units": [{"name": "kg", "class": ["Units"]}]}, None,
     "kg.json: units[0].class is not a string"),
    ({"classes": ["Units"], "units": [{"name": "kg", "dims": [1]}]}, None,
     "kg.json: units[0].dims is not a JSON object"),
    ({"classes": ["Units"], "units": [{"name": "kg", "dims": {"mass": True}}]}, None,
     "kg.json: units[0].dims.mass is not a number"),
    ({"classes": ["Units"], "units": [{"name": "kg", "dims": {"mass": "x"}}]}, None,
     "kg.json: units[0].dims of unit 'kg': Invalid literal for Fraction: 'x'"),
    ({"rules": [{"body": 3, "head": _HEAD}]}, None, "kg.json: rules[0].body is not a JSON array"),
    ({"rules": [{"body": [{"pred": "p", "args": [3]}], "head": _HEAD}]}, None,
     "kg.json: rules[0].body[0].args[0] is not a string"),
    ({"classes": ["Units", "Mass"], "units": [{"name": "kg"}], "quantities": {"kg": ["Mass"]}},
     None, "kg.json: quantities.kg is not a string"),
    ({"classes": ["Weight"]}, {"a": {"class": ["Weight"]}}, "map.json: a.class is not a string"),
    ({"classes": ["Weight"]}, {"a b": {"class": "Weight", "unit": ["kg"]}},
     'map.json: ["a b"].unit is not a string'),
])
def test_kg_check_wrong_json_type_exits_one_naming_the_file_and_path(tmp_path, capsys, kg,
                                                                      mapping, named):
    # each was an internal error (exit 2), or for dims as a list the
    # misleading "unknown base dimension 1"
    (tmp_path / "kg.json").write_text(json.dumps(kg))
    (tmp_path / "data.csv").write_text("a,b\n1,2\n")
    argv = ["kg-check", "--kg", str(tmp_path / "kg.json"), "--dataset", str(tmp_path / "data.csv")]
    if mapping is not None:
        (tmp_path / "map.json").write_text(json.dumps(mapping))
        argv += ["--mapping", str(tmp_path / "map.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}{os.sep}{named}\n"


@pytest.mark.parametrize("kg, mapping, named", [
    ({"classes": ["A"], "subclass_of": [["A", "B"]]}, None,
     "kg.json: subclass edge references unknown class 'B'"),
    ({"classes": ["A", "B"], "subclass_of": [["A", "B"], ["B", "A"]]}, None,
     "kg.json: cycle in subclass edges at 'A'"),
    ({"classes": ["Units"], "units": [{"name": "kg"}, {"name": "kg"}]}, None,
     "kg.json: duplicate unit name 'kg'"),
    ({"classes": ["Units"], "units": [{"name": "kg", "class": "Foo"}]}, None,
     "kg.json: unit 'kg' references unknown class 'Foo'"),
    ({"classes": ["Mass"], "quantities": {"kg": "Mass"}}, None,
     "kg.json: quantity entry for unknown unit 'kg'"),
    ({"classes": ["Units"], "units": [{"name": "kg"}], "quantities": {"kg": "Mass"}}, None,
     "kg.json: quantity entry references unknown class 'Mass'"),
    ({"classes": ["Weight"]}, {"x": {"class": "Foo"}},
     "map.json: mapping for 'x' references unknown class 'Foo'"),
    ({"classes": ["Weight"]}, {"x": {"class": "Weight", "unit": "kg"}},
     "map.json: mapping for 'x' references unknown unit 'kg'"),
])
def test_kg_check_unknown_or_inconsistent_entry_exits_one_naming_the_file(tmp_path, capsys, kg,
                                                                        mapping, named):
    # each named the entry but not the file it is in
    (tmp_path / "kg.json").write_text(json.dumps(kg))
    (tmp_path / "data.csv").write_text("a,b\n1,2\n")
    argv = ["kg-check", "--kg", str(tmp_path / "kg.json"), "--dataset", str(tmp_path / "data.csv")]
    if mapping is not None:
        (tmp_path / "map.json").write_text(json.dumps(mapping))
        argv += ["--mapping", str(tmp_path / "map.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {tmp_path}{os.sep}{named}\n"


@pytest.mark.parametrize("field, value", [("quantities", []), ("rules", {})])
def test_run_with_a_kg_container_of_the_wrong_type_exits_one(tmp_path, planted_paths, capsys,
                                                             field, value):
    kg = json.loads(open(kgfeat.resource_path("default_kg.json")).read())
    kg[field] = value
    (tmp_path / "kg.json").write_text(json.dumps(kg))
    assert main(["run", "--dataset", planted_paths["csv"], "--schema", planted_paths["schema"],
                 "--kg", str(tmp_path / "kg.json"), "--out", str(tmp_path / "never")]) == 1
    assert f"kg.json: {field} is not a JSON" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["?u"], ["?u", "?v", "?w"]])
def test_a_different_atom_without_two_arguments_exits_one(tmp_path, planted_paths, capsys,
                                                          args):
    # with one argument, a run that judged an addition of two mapped columns
    # ended with an internal error (exit 2)
    kg = json.loads(open(kgfeat.resource_path("default_kg.json")).read())
    next(a for a in kg["rules"][0]["body"] if a["pred"] == "Different")["args"] = args
    path = str(tmp_path / "kg.json")
    pathlib.Path(path).write_text(json.dumps(kg))
    named = f"error: {path}: rule 'mixed-unit addition': Different takes exactly two arguments\n"
    assert main(["kg-check", "--kg", path, "--dataset", planted_paths["csv"]]) == 1
    assert capsys.readouterr().err == named
    assert main(["run", "--dataset", planted_paths["csv"], "--schema", planted_paths["schema"],
                 "--kg", path, "--out", str(tmp_path / "never")]) == 1
    assert capsys.readouterr().err == named


def test_a_different_atom_before_its_binding_atoms_exits_one(tmp_path, planted_paths,
                                                             capsys):
    # the KG loaded, and judge(GLUCOSE + INSULIN) under the diabetes mapping
    # said `unknown unit`: the rule never fired
    kg = json.loads(open(kgfeat.resource_path("default_kg.json")).read())
    body = kg["rules"][0]["body"]
    body.insert(0, body.pop(next(i for i, a in enumerate(body) if a["pred"] == "Different")))
    path = str(tmp_path / "kg.json")
    pathlib.Path(path).write_text(json.dumps(kg))
    named = (f"error: {path}: rule 'mixed-unit addition': Different's ?u is not bound "
             "by an earlier atom\n")
    assert main(["kg-check", "--kg", path, "--dataset", planted_paths["csv"]]) == 1
    assert capsys.readouterr().err == named
    assert main(["run", "--dataset", planted_paths["csv"], "--schema", planted_paths["schema"],
                 "--kg", path, "--out", str(tmp_path / "never")]) == 1
    assert capsys.readouterr().err == named


@pytest.mark.parametrize("args", [[], ["?f", "?f"]])
def test_a_class_atom_without_one_argument_exits_one(tmp_path, planted_paths, capsys, args):
    # with no argument, a run that judged an addition of two mapped columns
    # ended with an internal error (exit 2); with two, the class was closed
    # upward for the first argument only
    kg = json.loads(open(kgfeat.resource_path("default_kg.json")).read())
    kg["rules"].append({"name": "sum is mass", "body": [{"pred": "Addition", "args": ["?f"]}],
                        "head": {"pred": "Mass", "args": args}})
    path = str(tmp_path / "kg.json")
    pathlib.Path(path).write_text(json.dumps(kg))
    named = f"error: {path}: rule 'sum is mass': Mass takes exactly one argument\n"
    assert main(["kg-check", "--kg", path, "--dataset", planted_paths["csv"]]) == 1
    assert capsys.readouterr().err == named
    assert main(["run", "--dataset", planted_paths["csv"], "--schema", planted_paths["schema"],
                 "--kg", path, "--out", str(tmp_path / "never")]) == 1
    assert capsys.readouterr().err == named


def test_kg_check_reads_a_null_unit_class_as_absent(tmp_path, planted_paths, capsys):
    # it exited 1 with "unit 'kg' references unknown class None"
    kg = json.loads(open(kgfeat.resource_path("default_kg.json")).read())
    kg["units"][0]["class"] = None
    (tmp_path / "kg.json").write_text(json.dumps(kg))
    assert main(["kg-check", "--kg", str(tmp_path / "kg.json"),
                 "--dataset", planted_paths["csv"]]) == 0
    assert capsys.readouterr().err == ""


def test_explain_known_and_unknown_feature(tmp_path, planted_paths, capsys):
    _, out_dir = run_manifest(tmp_path, planted_paths)
    result_path = os.path.join(out_dir, "result.json")
    code = main(["explain", result_path, "x1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: interpretable" in out
    assert "class=Weight" in out and "unit=kg" in out
    code = main(["explain", result_path, "x1 PLUS x2"])
    assert code == 1
    assert "unknown feature" in capsys.readouterr().err


# The inputs every result.json names; explain reads only the KG files.
_RESULT_INPUTS = {"kg_path": kgfeat.resource_path("default_kg.json"),
                  "dataset_path": kgfeat.resource_path("diabetes.csv"),
                  "schema_path": kgfeat.resource_path("diabetes.schema.json")}


def test_explain_derived_feature_tree(tmp_path, capsys):
    # a leaf prints its mapped unit, a derived node the unit its hasUnit fact
    # names (the registered name for its dims, else the dims token), an
    # unmapped leaf "unknown"; an aggregation's key is printed before its value
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps({"weight": {"class": "Weight", "unit": "kg"},
                                   "height": {"class": "Height", "unit": "m"}}))
    bmi = Node("div", (RawRef("weight"), Node("square", (RawRef("height"),))))
    feature = {"display_name": "BMI BY STORE", "verdict": "interpretable", "raw": False,
               "expr": expr_to_json(Node("group_mean", (RawRef("store"), bmi)))}
    result = FEResult(best_features=[feature], best_score=0.0, baseline_score=0.0,
                      episode_scores=[], best_trajectory=[], discard_log=[],
                      config={**_RESULT_INPUTS, "mapping_path": str(mapping)}, seed=0)
    result_path = tmp_path / "result.json"
    result_path.write_text(json.dumps(result.to_json()))
    assert main(["explain", str(result_path), "BMI BY STORE"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "BMI BY STORE",
        "verdict: interpretable",
        "  GROUP_MEAN  unit=kg_per_m2",
        "    store  class=(unmapped) unit=unknown",
        "    DIV  unit=kg_per_m2",
        "      weight  class=Weight unit=kg",
        "      SQUARE  unit=m2",
        "        height  class=Height unit=m",
    ]


@pytest.mark.parametrize("name, options", [
    ("diabetes", ["--episodes", "7", "--learner", "random_forest"]),
    ("sales", ["--episodes", "2"]),
])
def test_result_unit_name_is_the_unit_explain_prints(tmp_path, capsys, name, options):
    # result.json gave every derived feature a null unit_name, while explain
    # printed the KG's name for its unit
    out = tmp_path / "out"
    assert main(["run", "--manifest", kgfeat.resource_path(f"{name}.manifest.json"),
                 "--steps", "5", "--k", "2", "--out", str(out)] + options) == 0
    features = json.loads((out / "result.json").read_text())["best_features"]
    assert any(not f["raw"] for f in features)
    capsys.readouterr()
    for f in features:
        assert main(["explain", str(out / "result.json"), f["display_name"]]) == 0
        root = capsys.readouterr().out.splitlines()[2]  # the tree's first line
        assert root.endswith(f" unit={f['unit_name'] or 'unknown'}"), (f, root)
    units = {f["display_name"]: f["unit_name"] for f in features}
    if name == "diabetes":  # mm has the dims of m, the first name registered for them
        assert units["SKIN_THICKNESS"] == "mm"


def test_explain_malformed_expression_exits_one(tmp_path, capsys):
    # a hand-edited result.json whose node type disagrees with its op
    feature = {"display_name": "LOG(WEIGHT)", "verdict": "interpretable", "raw": False,
               "expr": {"type": "date", "op": "log",
                        "child": {"type": "raw", "name": "weight"}}}
    result = FEResult(best_features=[feature], best_score=0.0, baseline_score=0.0,
                      episode_scores=[], best_trajectory=[], discard_log=[],
                      config=dict(_RESULT_INPUTS), seed=0)
    result_path = tmp_path / "result.json"
    result_path.write_text(json.dumps(result.to_json()))
    assert main(["explain", str(result_path), "LOG(WEIGHT)"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {result_path}: best_features[0].expr: transform 'log' "
                            "has node type 'unary', not 'date'\n")
    assert captured.out == ""


@pytest.mark.parametrize("expr, message", [
    pytest.param(5, "best_features[0].expr is not a JSON object",
                 id='5-expression node must be a JSON object, not 5'),
    pytest.param({"type": "unary", "op": "log"}, "best_features[0].expr has no 'child' field",
                 id="expr1-expression node has no 'child' field"),
    ({"type": "unary", "op": "log", "child": {"type": "raw", "name": ["weight"]}},
     "best_features[0].expr.child.name is not a string"),
    ({"type": "unary", "op": ["log"], "child": {"type": "raw", "name": "weight"}},
     "best_features[0].expr.op is not a string"),
])
def test_explain_incomplete_expression_exits_one(tmp_path, capsys, expr, message):
    feature = {"display_name": "LOG(WEIGHT)", "verdict": "interpretable", "raw": False,
               "expr": expr}
    result = FEResult(best_features=[feature], best_score=0.0, baseline_score=0.0,
                      episode_scores=[], best_trajectory=[], discard_log=[],
                      config=dict(_RESULT_INPUTS), seed=0)
    result_path = tmp_path / "result.json"
    result_path.write_text(json.dumps(result.to_json()))
    assert main(["explain", str(result_path), "LOG(WEIGHT)"]) == 1
    assert capsys.readouterr().err == f"error: {result_path}: {message}\n"


def test_report_does_not_read_the_kg(tmp_path, planted_paths):
    _, out_dir = run_manifest(tmp_path, planted_paths)
    result_path = os.path.join(out_dir, "result.json")
    doc = json.loads(open(result_path).read())
    doc["config"]["kg_path"] = str(tmp_path / "moved_kg.json")
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["report", result_path]) == 0
    assert os.path.exists(os.path.join(out_dir, "importance.csv"))


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


def test_report_names_a_column_the_dataset_lost(tmp_path, planted_paths, capsys):
    _, out_dir = run_manifest(tmp_path, planted_paths)
    with open(planted_paths["csv"], newline="") as fh:
        rows = [r[1:] for r in csv.reader(fh)]  # drop x1
    with open(planted_paths["csv"], "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert main(["report", os.path.join(out_dir, "result.json")]) == 1
    assert capsys.readouterr().err == "error: dataset has no column 'x1'\n"


@pytest.mark.parametrize("schema, named", [
    ({"target_name": "y", "task": "regresion"}, "'regresion' is not a valid Task"),
    ({"target_name": "y", "task": "regression", "column_kind_overrides": {"x": "numerik"}},
     "'numerik' is not a valid Kind"),
    ({"task": "regression"}, "no 'target_name' field"),
    pytest.param([], "the document is not a JSON object",
                 id='schema3-the schema is not a JSON object'),
    ({"target_name": "y", "task": "regression", "column_kind_overrides": []},
     "column_kind_overrides is not a JSON object"),
    ({"target_name": "y", "task": "regression", "concept_map_path": 3},
     "concept_map_path is not a string"),
])
def test_run_malformed_schema_exits_one_naming_the_field(tmp_path, capsys, schema, named):
    # an unknown task or kind, or a document or overrides that are not
    # objects, was an internal error (exit 2), and a missing target_name
    # printed only "error: 'target_name'"
    argv = write_regression(tmp_path, ["1", "2", "3", "4"], ["1", "2", "3", "5"])
    (tmp_path / "reg.schema.json").write_text(json.dumps(schema))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "reg.schema.json" in err and named in err


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


@pytest.mark.parametrize("command, key, what", [
    ("explain", "kg_path", "kg"), ("explain", "mapping_path", "mapping"),
    ("report", "dataset_path", "dataset"), ("report", "schema_path", "schema")])
def test_explain_and_report_name_a_moved_input(tmp_path, planted_paths, capsys,
                                               command, key, what):
    # the file was opened unchecked: "error: [Errno 2] No such file or directory: '…'"
    _, out_dir = run_manifest(tmp_path, planted_paths)
    result_path = os.path.join(out_dir, "result.json")
    doc = json.loads(open(result_path).read())
    moved = str(tmp_path / "moved.json")
    doc["config"][key] = moved
    with open(result_path, "w") as fh:
        json.dump(doc, fh)
    argv = [command, result_path] + (["x1"] if command == "explain" else [])
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {what} not found: {moved}\n"
    if key == "mapping_path":  # a run without a mapping explains its columns unmapped
        doc["config"][key] = None
        with open(result_path, "w") as fh:
            json.dump(doc, fh)
        assert main(argv) == 0
        assert "x1  class=(unmapped)" in capsys.readouterr().out


def test_kg_check_empty_dataset_exits_one_naming_the_file(tmp_path, capsys):
    # a bare StopIteration was an internal error (exit 2) printing nothing
    (tmp_path / "empty.csv").write_text("")
    assert main(["kg-check", "--kg", kgfeat.resource_path("default_kg.json"),
                 "--dataset", str(tmp_path / "empty.csv")]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'empty.csv'}: empty file\n"


def test_kg_check_missing_schema_exits_one_naming_it(tmp_path, planted_paths, capsys):
    # the schema was opened unchecked: "error: [Errno 2] No such file or directory"
    argv = ["kg-check", "--kg", kgfeat.resource_path("default_kg.json"),
            "--dataset", planted_paths["csv"]]
    missing = str(tmp_path / "absent.schema.json")
    assert main(argv + ["--schema", missing]) == 1
    assert capsys.readouterr().err == f"error: schema not found: {missing}\n"
    assert main(argv) == 0  # the schema stays optional


def _run_argv(planted_paths, out, dataset=None):
    return ["run", "--dataset", dataset or planted_paths["csv"],
            "--schema", planted_paths["schema"], "--kg", kgfeat.resource_path("default_kg.json"),
            "--episodes", "1", "--steps", "1", "--learner", "linear", "--out", out]


@pytest.mark.parametrize("out", ["taken", os.path.join("taken", "sub")],
                         ids=["a-file", "under-a-file"])
def test_run_out_that_is_no_directory_exits_one_before_loading(tmp_path, planted_paths,
                                                               capsys, monkeypatch, out):
    # the whole search ran, and then writing the outputs failed: "internal
    # error: [Errno 17] File exists" (exit 2), or "[Errno 20] Not a directory"
    (tmp_path / "taken").write_text("")
    monkeypatch.setattr("kgfeat.cli.load_csv", lambda *a: pytest.fail("the dataset was read"))
    bad = str(tmp_path / out)
    assert main(_run_argv(planted_paths, bad)) == 1
    assert capsys.readouterr().err == f"error: out is not a directory: {bad}\n"
    assert (tmp_path / "taken").read_text() == ""


def test_run_dataset_that_is_a_directory_exits_one_naming_it(tmp_path, planted_paths, capsys):
    # "internal error: [Errno 21] Is a directory" (exit 2)
    assert main(_run_argv(planted_paths, str(tmp_path / "never"), str(tmp_path))) == 1
    assert capsys.readouterr().err == f"error: dataset is not a file: {tmp_path}\n"
    assert not (tmp_path / "never").exists()


def test_report_out_that_is_a_file_exits_one_naming_it(tmp_path, planted_paths, capsys):
    # "internal error: [Errno 17] File exists" (exit 2)
    _, out_dir = run_manifest(tmp_path, planted_paths)
    taken = tmp_path / "taken"
    taken.write_text("")
    capsys.readouterr()
    assert main(["report", os.path.join(out_dir, "result.json"), "--out", str(taken)]) == 1
    assert capsys.readouterr().err == f"error: out is not a directory: {taken}\n"


_LONG_FIELD = "x" * (csv.field_size_limit() + 1)


def test_run_csv_field_past_the_limit_exits_one_naming_the_line(tmp_path, capsys):
    # csv.Error was an internal error (exit 2): "field larger than field limit"
    argv = write_regression(tmp_path, ["1", "2", _LONG_FIELD], ["0.5", "1.5", "2.5"])
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'reg.csv'}: line 4: field larger "
                                       f"than field limit ({csv.field_size_limit()})\n")


def test_kg_check_csv_field_past_the_limit_exits_one_naming_the_line(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text(f"a,{_LONG_FIELD}\n1,2\n")
    assert main(["kg-check", "--kg", kgfeat.resource_path("default_kg.json"),
                 "--dataset", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: {path}: line 1: field larger than field "
                                       f"limit ({csv.field_size_limit()})\n")


def test_run_and_kg_check_of_a_csv_that_is_not_utf8_exit_one_naming_the_line(tmp_path, capsys):
    # a Latin-1 header was an internal error (exit 2): "'utf-8' codec can't decode ..."
    argv = write_regression(tmp_path, ["1", "2", "3"], ["0.5", "1.5", "2.5"])
    path = tmp_path / "reg.csv"
    path.write_bytes(path.read_bytes().replace(b"x,", "caf\xe9,".encode("latin-1"), 1))
    want = (f"error: {path}: line 1: 'utf-8' codec can't decode byte 0xe9 in position 3: "
            "invalid continuation byte\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == want
    assert main(["kg-check", "--kg", kgfeat.resource_path("default_kg.json"),
                 "--dataset", str(path)]) == 1
    assert capsys.readouterr().err == want


def test_run_of_a_csv_with_a_byte_order_mark_finds_its_first_column(tmp_path, capsys):
    # the target, first in the file, was read as "\ufeffy": "target column 'y' not found"
    argv = write_regression(tmp_path, ["1", "2", "3", "4"], ["0.5", "1.5", "2.5", "3.5"])
    path = tmp_path / "reg.csv"
    lines = path.read_text().splitlines()
    path.write_bytes(codecs.BOM_UTF8 + "\n".join(
        ",".join(line.split(",")[::-1]) for line in lines).encode() + b"\n")
    assert main(argv) == 0, capsys.readouterr().err
    assert json.loads((tmp_path / "out" / "result.json").read_text())["best_features"][0][
        "display_name"] == "z"


@pytest.mark.parametrize("manifest, named", [
    pytest.param([], "the document is not a JSON object",
                 id='manifest0-manifest is not a JSON object'),
    pytest.param({"engine": [["episodes", 1]]}, "engine is not a JSON object",
                 id="manifest1-manifest: 'engine' is not a JSON object"),
    pytest.param({"engine": "fast"}, "engine is not a JSON object",
                 id="manifest2-manifest: 'engine' is not a JSON object"),
    pytest.param({"dataset": 5}, "dataset is not a string",
                 id="manifest3-manifest: 'dataset' is not a string"),
])
def test_run_malformed_manifest_exits_one_naming_the_field(tmp_path, capsys, manifest, named):
    # a manifest or engine block that was not an object was an internal
    # error (exit 2): "'list' object has no attribute 'get'"
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["run", "--manifest", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {named}\n"


def _complete_result(planted_paths):
    """A hand-made result.json holding every field explain and report read."""
    raw = {"type": "raw", "name": "x1"}
    return {"best_features": [{"display_name": "x1", "expr": raw, "verdict": "interpretable",
                               "raw": True, "unit": "kg", "unit_name": "kg"}],
            "best_score": 0.5, "baseline_score": 0.5, "episode_scores": [0.5],
            "best_trajectory": [0.5], "seed": 0, "order_sweep": [[1, 0.5]],
            "discard_log": [{"episode": 0, "step": 0, "display_name": "LOG(x1)",
                             "expr": {"type": "unary", "op": "log", "child": raw},
                             "reason": "a rule"}],
            "config": {"dataset_path": planted_paths["csv"],
                       "schema_path": planted_paths["schema"],
                       "kg_path": kgfeat.resource_path("default_kg.json"),
                       "mapping_path": planted_paths["mapping"], "seed": 0}}


_GONE = object()  # a mutation that deletes the field


@pytest.mark.parametrize("command, at, value, named", [
    pytest.param("explain", (), [], "the document is not a JSON object",
                 id='explain-at0-value0-result is not a JSON object'),
    pytest.param("report", (), [], "the document is not a JSON object",
                 id='report-at1-value1-result is not a JSON object'),
    pytest.param("explain", ("best_score",), _GONE, "the document has no 'best_score' field",
                 id="explain-at2-value2-result has no 'best_score' field"),
    pytest.param("report", ("seed",), _GONE, "the document has no 'seed' field",
                 id="report-at3-value3-result has no 'seed' field"),
    pytest.param("explain", ("best_features",), {}, "best_features is not a JSON array",
                 id="explain-at4-value4-result: 'best_features' is not a JSON array"),
    pytest.param("report", ("best_features",), _GONE, "the document has no 'best_features' field",
                 id="report-at5-value5-result has no 'best_features' field"),
    pytest.param("explain", ("discard_log",), None, "discard_log is not a JSON array",
                 id="explain-at6-None-result: 'discard_log' is not a JSON array"),
    pytest.param("explain", ("config",), [], "config is not a JSON object",
                 id="explain-at7-value7-result: 'config' is not a JSON object"),
    pytest.param("report", ("order_sweep",), 3, "order_sweep is not a JSON array",
                 id="report-at8-3-result: 'order_sweep' is not a JSON array"),
    ("explain", ("config", "kg_path"), _GONE, "config has no 'kg_path' field"),
    pytest.param("explain", ("config", "mapping_path"), 5, "config.mapping_path is not a string",
                 id="explain-at10-5-config: 'mapping_path' is not a string"),
    ("report", ("config", "dataset_path"), _GONE, "config has no 'dataset_path' field"),
    pytest.param("report", ("config", "schema_path"), ["s.json"],
                 "config.schema_path is not a string",
                 id="report-at12-value12-config: 'schema_path' is not a string"),
    pytest.param("report", ("config", "seed"), "0", "config.seed is not an integer",
                 id="report-at13-0-config: 'seed' is not an integer"),
    ("explain", ("best_features", 0), "x1", "best_features[0] is not a JSON object"),
    ("explain", ("best_features", 0, "display_name"), _GONE,
     "best_features[0] has no 'display_name' field"),
    pytest.param("report", ("best_features", 0, "display_name"), 1,
                 "best_features[0].display_name is not a string",
                 id="report-at16-1-best_features[0]: 'display_name' is not a string"),
    ("explain", ("best_features", 0, "expr"), _GONE, "best_features[0] has no 'expr' field"),
    ("report", ("best_features", 0, "expr"), _GONE, "best_features[0] has no 'expr' field"),
    ("explain", ("best_features", 0, "verdict"), _GONE,
     "best_features[0] has no 'verdict' field"),
    ("report", ("best_features", 0, "raw"), _GONE, "best_features[0] has no 'raw' field"),
    pytest.param("report", ("best_features", 0, "raw"), "yes",
                 "best_features[0].raw is not a boolean",
                 id="report-at21-yes-best_features[0]: 'raw' is not a boolean"),
    ("explain", ("discard_log", 0), 7, "discard_log[0] is not a JSON object"),
    ("explain", ("discard_log", 0, "display_name"), _GONE,
     "discard_log[0] has no 'display_name' field"),
    ("explain", ("discard_log", 0, "expr"), _GONE, "discard_log[0] has no 'expr' field"),
    ("explain", ("discard_log", 0, "reason"), _GONE, "discard_log[0] has no 'reason' field"),
    ("report", ("order_sweep", 0), [1], "order_sweep[0] is not a [max_order, best_score] pair"),
    pytest.param("report", ("order_sweep", 0), [1, "0.5"], "order_sweep[0][1] is not a number",
                 id='report-at27-value27-order_sweep[0] is not a [max_order, best_score] pair'),
    ("report", ("best_features", 0, "expr", "name"), 3,
     "best_features[0].expr.name is not a string"),
    ("explain", ("best_features", 0, "expr", "type"), ["raw"],
     "best_features[0].expr.type is not a string"),
])
def test_malformed_result_exits_one_naming_the_file_and_field(tmp_path, planted_paths, capsys,
                                                              command, at, value, named):
    # a result of [] was an internal error (exit 2), and one lacking a field
    # printed only the bare key, e.g. "error: 'best_score'"; a case whose
    # message is now a JSON path keeps the id of its old wording
    doc = _complete_result(planted_paths)
    path = tmp_path / "result.json"
    argv = [command, str(path)] + (["x1"] if command == "explain" else [])
    path.write_text(json.dumps(doc))
    assert main(argv) == 0  # complete, the result explains and reports
    capsys.readouterr()
    if not at:
        doc = value
    else:
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        if value is _GONE:
            del parent[at[-1]]
        else:
            parent[at[-1]] = value
    path.write_text(json.dumps(doc))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {named}\n"


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
    d = Dataset(columns=[num_col("v", vals), num_col("y", np.arange(6.0))],
                target="y", task=Task.REGRESSION, n_rows=6)
    result = FEResult(best_features=[{"display_name": "V",
                                      "expr": expr_to_json(RawRef("v"))}],
                      best_score=0.0, baseline_score=0.0, episode_scores=[],
                      best_trajectory=[], discard_log=[], config={}, seed=0)
    _write_result_files(result, d, str(tmp_path))
    with open(tmp_path / "features.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["V", "y"]
    cells = [row[0] for row in rows[1:]]
    assert cells == [repr(v) if v == v else "" for v in vals]
    for cell, v in zip(cells, vals):
        if cell:
            assert float(cell).hex() == v.hex()  # the same float, sign of 0 too


@settings(max_examples=300, deadline=None)
@given(row=st.lists(st.text(alphabet=',"\r\n a1é', max_size=5), min_size=1, max_size=4))
def test_csv_line_matches_csv_writer(row):
    # an empty string is a missing cell; a row's only empty field is quoted
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(row)
    assert _csv_line([_csv_field(s) for s in row]) == buf.getvalue()


def test_features_csv_quotes_header_and_categorical_target(tmp_path):
    labels = ["a,b", 'say "hi"', "two\nlines", "", "plain"]
    d = Dataset(columns=[num_col("v", np.arange(5.0)), cat_col("lab,el", labels)],
                target="lab,el", task=Task.CLASSIFICATION, n_rows=5)
    result = FEResult(best_features=[{"display_name": 'V "1"',
                                      "expr": expr_to_json(RawRef("v"))}],
                      best_score=0.0, baseline_score=0.0, episode_scores=[],
                      best_trajectory=[], discard_log=[], config={}, seed=0)
    _write_result_files(result, d, str(tmp_path))
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([['V "1"', "lab,el"]]
                              + [[repr(float(i)), lab] for i, lab in enumerate(labels)])
    assert (tmp_path / "features.csv").read_bytes() == buf.getvalue().encode()


def _result_of_raw_columns(names):
    return FEResult(best_features=[{"display_name": name,
                                    "expr": expr_to_json(RawRef(name))} for name in names],
                    best_score=0.0, baseline_score=0.0, episode_scores=[],
                    best_trajectory=[], discard_log=[], config={}, seed=0)


@pytest.mark.parametrize("n", [_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
def test_features_csv_is_csv_writer_bytes_across_a_block_boundary(tmp_path, n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=n)
    a[rng.random(n) < 0.1] = np.nan
    b = rng.integers(0, 5, n).astype(float)
    b[-1] = np.nan  # a gap in the last row of the table
    labels = np.array(["a,b", 'say "hi"', "two\nlines", "plain"], dtype=object)[
        rng.integers(0, 4, n)]
    gone = rng.random(n) < 0.05
    labels[gone] = ""  # a missing label
    d = Dataset(columns=[num_col("a", a), num_col("b", b), cat_col("lab", labels)],
                target="lab", task=Task.CLASSIFICATION, n_rows=n)
    _write_result_files(_result_of_raw_columns(["a", "b"]), d, str(tmp_path))
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(
        [["a", "b", "lab"]]
        + [["" if u != u else repr(u), "" if v != v else repr(v), "" if m else lab]
           for u, v, lab, m in zip(a.tolist(), b.tolist(), labels, gone)])
    assert (tmp_path / "features.csv").read_bytes() == buf.getvalue().encode()


def _features_csv_in_one_block(result, d, path):
    """The features.csv writer as it was before it wrote row blocks: every
    column encoded, then every cell formatted, before the first row."""
    columns = [eng.encode_feature(apply(expr_from_json(doc["expr"]), d))
               for doc in result.best_features]
    tcol = d.target_column
    cells = [[repr(v) if v == v else "" for v in col.tolist()] for col in columns]
    cells.append(["" if m else _csv_field(str(v))
                  for v, m in zip(tcol.values.tolist(), np.isnan(tcol.values).tolist())])
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line([_csv_field(doc["display_name"]) for doc in result.best_features]
                           + [d.target]))
        fh.writelines(_csv_line(row) for row in zip(*cells))


def test_features_csv_writer_holds_under_half_the_one_block_peak(tmp_path):
    n = 20000
    rng = np.random.default_rng(0)
    names = [f"x{i}" for i in range(10)]
    d = Dataset(columns=[num_col(name, rng.normal(size=n)) for name in names + ["y"]],
                target="y", task=Task.REGRESSION, n_rows=n)
    result = _result_of_raw_columns(names)
    peaks = []
    for write in (lambda: _features_csv_in_one_block(result, d, tmp_path / "old.csv"),
                  lambda: _write_result_files(result, d, str(tmp_path / "new"))):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    old, new = peaks
    assert (tmp_path / "new" / "features.csv").read_bytes() == (
        tmp_path / "old.csv").read_bytes()
    assert new < old / 2, f"peak {new / 1e6:.1f} MB against {old / 1e6:.1f} MB"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_run_linear_survives_a_candidate_whose_fit_overflows(tmp_path, seed):
    # x1 near 1e80: a generated product or square of it overflows the linear
    # fit's sum of squares, which ended the run with exit 1 on every seed
    rng = np.random.default_rng(0)
    x1 = 1e80 * rng.uniform(1, 2, 40)
    x2 = rng.uniform(0, 1, 40)
    y = 3 * x2 + rng.normal(0, 0.1, 40)
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("x1,x2,y\n" + "".join(
        f"{a!r},{b!r},{t!r}\n" for a, b, t in zip(x1.tolist(), x2.tolist(), y.tolist())))
    schema_path = tmp_path / "big.schema.json"
    schema_path.write_text(json.dumps({"target_name": "y", "task": "regression"}))
    argv = ["run", "--dataset", str(csv_path), "--schema", str(schema_path),
            "--kg", kgfeat.resource_path("default_kg.json"), "--learner", "linear",
            "--seed", str(seed), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    with open(tmp_path / "out" / "result.json") as fh:
        result = json.load(fh)
    assert math.isfinite(result["best_score"])


def test_run_linear_keeps_every_reward_in_unit_range_past_an_outlier(tmp_path):
    # the fold that validates z = 1e100 scored -2.5e97, so the baseline was
    # -1.24e97 and the TD loss overflowed (exit 2 under -W error)
    z = [str(0.5 * i) for i in range(40)]
    z[7] = "1e100"
    argv = write_regression(tmp_path, z, [str(1.5 * i + (i % 3)) for i in range(40)])
    (tmp_path / "map.json").write_text("{}")
    argv += ["--mapping", str(tmp_path / "map.json"), "--episodes", "10", "--steps", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    with open(tmp_path / "out" / "result.json") as fh:
        result = json.load(fh)
    assert 0.0 <= result["baseline_score"] <= result["best_score"] <= 1.0
    rewards = [float(line.split("reward=")[1])
               for line in (tmp_path / "out" / "log.txt").read_text().splitlines()
               if "reward=" in line]
    assert len(rewards) == 50 and all(-1.0 <= r <= 1.0 for r in rewards)


def test_run_linear_prunes_a_pool_whose_fit_overflows(tmp_path, capsys):
    # c near 1e160 overflows the whole pool's sum of squares: pruning, which
    # fits it, ended the run with "the linear learner cannot fit"
    rng = np.random.default_rng(0)
    a, b = rng.uniform(1, 2, 60), rng.uniform(1, 2, 60)
    c = rng.uniform(1, 2, 60) * 1e160
    y = 3 * a + b
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("a,b,c,y\n" + "".join(
        f"{p!r},{q!r},{r!r},{t!r}\n" for p, q, r, t in
        zip(a.tolist(), b.tolist(), c.tolist(), y.tolist())))
    schema_path = tmp_path / "wide.schema.json"
    schema_path.write_text(json.dumps({"target_name": "y", "task": "regression"}))
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(csv_path), "--schema", str(schema_path),
                 "--kg", kgfeat.resource_path("default_kg.json"), "--learner", "linear",
                 "--k", "2", "--episodes", "3", "--steps", "5", "--budget", "3",
                 "--out", str(out)]) == 0, capsys.readouterr().err
    result = json.loads((out / "result.json").read_text())
    assert len(result["best_features"]) <= 3


def test_run_writes_column_names_as_written(tmp_path, capsys):
    # columns `a` and `A` both rendered as "A": the header read A,A,y and
    # explain reached one of them
    rng = np.random.default_rng(0)
    a, big_a = rng.uniform(1, 2, 40), rng.uniform(1, 2, 40)
    csv_path = tmp_path / "case.csv"
    csv_path.write_text("a,A,y\n" + "".join(
        f"{p!r},{q!r},{3 * p + q!r}\n" for p, q in zip(a.tolist(), big_a.tolist())))
    schema_path = tmp_path / "case.schema.json"
    schema_path.write_text(json.dumps({"target_name": "y", "task": "regression"}))
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(csv_path), "--schema", str(schema_path),
                 "--kg", kgfeat.resource_path("default_kg.json"), "--learner", "linear",
                 "--episodes", "1", "--steps", "1", "--k", "2", "--out", str(out)]) == 0
    with open(out / "features.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[:2] == ["a", "A"] and header[-1] == "y"
    assert len(set(header)) == len(header)
    capsys.readouterr()
    for name in ("a", "A"):
        assert main(["explain", str(out / "result.json"), name]) == 0
        assert f"  {name}  class=(unmapped)" in capsys.readouterr().out


def test_run_seeds_the_learner_alike_from_the_cli_and_the_engine(tmp_path):
    # engine.run fitted its forests with seed 0 whatever the run's seed; only
    # the CLI copied the run's seed into the learner
    d, kg, paths = make_planted_dataset(tmp_path, n=60)
    options = dict(episodes=1, steps=2, cap=4, k_folds=2)
    direct = eng.run(eng.EngineConfig(seed=3, learner=LearnerSpec(kind="random_forest"),
                                      **options), d, kg).to_json()
    out = tmp_path / "out"
    assert main(["run", "--dataset", paths["csv"], "--schema", paths["schema"],
                 "--kg", kgfeat.resource_path("default_kg.json"), "--seed", "3",
                 "--learner", "random_forest", "--episodes", "1", "--steps", "2",
                 "--cap", "4", "--k", "2", "--out", str(out)]) == 0
    via_cli = json.loads((out / "result.json").read_text())
    for key in ("baseline_score", "best_score", "episode_scores", "best_trajectory",
                "best_features"):
        assert via_cli[key] == direct[key], key
    assert via_cli["config"]["learner"]["seed"] == direct["config"]["learner"]["seed"] == 3


def test_run_linear_on_a_feature_whose_square_overflows_exits_zero(tmp_path):
    # the fold that trains on row 7 fits x alone, giving z coefficient 0;
    # the run exited 1
    z = [str(0.5 * i) for i in range(40)]
    z[7] = "1e200"
    argv = write_regression(tmp_path, z, [str(1.5 * i + (i % 3)) for i in range(40)])
    assert main(argv) == 0
    with open(tmp_path / "out" / "result.json") as fh:
        result = json.load(fh)
    assert math.isfinite(result["baseline_score"])
    assert math.isfinite(result["best_score"])


# ------------------------------------------- a wrong JSON type anywhere

_SWAP_VALUES = [None, True, 0, 2.5, "", "x", [], ["x"], {}, {"x": 1}]
# The commands that read each document of a run
_READERS = {"kg.json": ("kg-check", "run", "explain"),
            "mapping.json": ("kg-check", "run", "explain"),
            "schema.json": ("kg-check", "run", "report"),
            "manifest.json": ("run",), "result.json": ("explain", "report")}


def _json_type(value):
    return ("null" if value is None else "boolean" if isinstance(value, bool)
            else "number" if isinstance(value, (int, float)) else type(value).__name__)


def _json_paths(doc, at=()):
    """The keys that lead to each value of a JSON document, the root's first."""
    yield at
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, at + (key,))


def _at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def run_documents(tmp_path_factory):
    """The KG, mapping, schema, manifest and result.json of a small run on a
    20-row planted table, by file name, with the table's text."""
    base = tmp_path_factory.mktemp("documents")
    _, _, paths = make_planted_dataset(base, n=20)
    docs = {"kg.json": json.loads(open(kgfeat.resource_path("default_kg.json")).read()),
            "mapping.json": json.loads(open(paths["mapping"]).read()),
            "schema.json": {"target_name": "y", "task": "regression",
                            "column_kind_overrides": {"x3": "numeric"},
                            "concept_map_path": "mapping.json"},
            "manifest.json": {"dataset": "data.csv", "schema": "schema.json", "kg": "kg.json",
                              "mapping": "mapping.json", "out": "out",
                              "engine": {"episodes": 3, "steps": 4, "k_folds": 2, "cap": 4,
                                         "learner": "linear", "seed": 0, "policy": "dqn"}}}
    table = open(paths["csv"]).read()
    _write_documents(base, docs, table)
    assert main(["run", "--manifest", str(base / "manifest.json")]) == 0
    docs["result.json"] = json.loads((base / "out" / "result.json").read_text())
    assert docs["result.json"]["discard_log"]
    return docs, table


def _write_documents(directory, docs, table):
    (directory / "data.csv").write_text(table)
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_json_value_of_another_type_anywhere_exits_zero_or_one(run_documents, data):
    # a wrong JSON type in a KG entry, or in a mapping, schema or result
    # field no check covered, was an internal error (exit 2)
    docs, table = run_documents
    name = data.draw(st.sampled_from(sorted(docs)), label="document")
    keys = data.draw(st.sampled_from(list(_json_paths(docs[name]))), label="path")
    value = data.draw(st.sampled_from([v for v in _SWAP_VALUES if _json_type(v)
                                       != _json_type(_at(docs[name], keys))]), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        docs = copy.deepcopy(docs)
        result = docs["result.json"]
        result["config"].update(dataset_path=str(d / "data.csv"), kg_path=str(d / "kg.json"),
                                schema_path=str(d / "schema.json"),
                                mapping_path=str(d / "mapping.json"))
        names = [result["best_features"][-1]["display_name"],
                 result["discard_log"][0]["display_name"]]
        if keys:
            _at(docs[name], keys[:-1])[keys[-1]] = value
        else:
            docs[name] = value
        _write_documents(d, docs, table)
        argvs = {"kg-check": [["kg-check", "--kg", str(d / "kg.json"), "--dataset",
                               str(d / "data.csv"), "--mapping", str(d / "mapping.json"),
                               "--schema", str(d / "schema.json")]],
                 "run": [["run", "--manifest", str(d / "manifest.json"), "--episodes", "1",
                          "--steps", "1", "--out", str(d / "out")]],
                 "explain": [["explain", str(d / "result.json"), n] for n in names],
                 "report": [["report", str(d / "result.json"), "--out", str(d / "report")]]}
        for command in _READERS[name]:
            for argv in argvs[command]:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1), (argv[0], err.getvalue())


@pytest.mark.parametrize("name, rules", [
    ("diabetes", {"mixed-unit addition"}),
    ("sales", {"inventory totals are not summable", "mixed-unit addition"}),
])
def test_a_run_that_fires_rules_writes_the_same_bytes_under_any_hash_seed(tmp_path, name,
                                                                           rules):
    # a verdict's reason is the first rule in provenance order, and sets of
    # facts iterate in hash order: string hashing must not reach the outputs
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        done = subprocess.run(
            [sys.executable, "-m", "kgfeat.cli", "run", "--manifest",
             kgfeat.resource_path(f"{name}.manifest.json"), "--episodes", "4", "--steps", "5",
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append([(out / f).read_bytes()
                        for f in ("result.json", "features.csv", "log.txt")])
    assert outputs[0] == outputs[1]
    fired = {line.rsplit(": ", 1)[1] for line in outputs[0][2].decode().splitlines()
             if line.startswith("  discarded ")}
    assert rules <= fired


with open(kgfeat.resource_path("default_kg.json"), encoding="utf-8") as _fh:
    _SHIPPED_KG = json.load(_fh)
# A column's present cells, by the kind load_csv infers from them; a cell is
# empty one time in four.
_CELLS = {
    "numeric": st.one_of(st.integers(-50, 50).map(str), st.just("1e308"),
                         st.floats(-1e3, 1e3, allow_nan=False).map(repr)),
    "boolean": st.sampled_from(["true", "false", "yes", "no"]),
    "categorical": st.sampled_from(["red", "green", "blue", "dark red"]),
    "date": st.dates(datetime.date(2000, 1, 1), datetime.date(2030, 12, 31)).map(str),
}
_TARGETS = {"regression": st.one_of(st.floats(-1e3, 1e3, allow_nan=False).map(repr),
                                    st.just("1e308")),
            "classification": st.sampled_from(["a", "b", "c"])}
_WRONG_LEARNER = {"regression": "logistic", "classification": "linear"}  # refused at once
_CONCEPTS = st.one_of(st.none(), st.fixed_dictionaries(
    {"class": st.sampled_from(_SHIPPED_KG["classes"])},
    optional={"unit": st.sampled_from([u["name"] for u in _SHIPPED_KG["units"]])}))


@st.composite
def generated_runs(draw):
    """A table of 2-30 rows with 1-5 columns of any kind and a complete
    target, a random mapping of its columns onto the shipped KG, a schema,
    and small engine options with any learner the task takes."""
    n = draw(st.integers(2, 30), label="rows")
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5),
                 label="kinds")
    columns = {f"c{i}": draw(st.lists(st.one_of(*[_CELLS[kind]] * 3, st.just("")),
                                      min_size=n, max_size=n))
               for i, kind in enumerate(kinds)}
    task = draw(st.sampled_from(sorted(_TARGETS)), label="task")
    columns["y"] = draw(st.lists(_TARGETS[task], min_size=n, max_size=n), label="target")
    concepts = {name: draw(_CONCEPTS, label=f"{name} concept") for name in columns}
    mapping = {name: concept for name, concept in concepts.items() if concept}
    options = [("--episodes", st.integers(1, 2)), ("--steps", st.integers(1, 3)),
               ("--cap", st.integers(1, 4)), ("--k", st.integers(2, 3)),
               ("--max-order", st.integers(1, 3)),
               ("--learner", st.sampled_from([k for k in LEARNERS if k != _WRONG_LEARNER[task]])),
               ("--seed", st.integers(0, 3))]
    flags = [str(v) for flag, values in options for v in (flag, draw(values, label=flag))]
    table = "".join(_csv_line([_csv_field(c) for c in row]) for row in zip(*(
        [name, *cells] for name, cells in columns.items())))
    return table, {"target_name": "y", "task": task}, mapping, flags


def _kgfeat(*argv):
    """`kgfeat` run in-process: its exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(list(argv)), err.getvalue()


@settings(max_examples=25, derandomize=True, database=None,
          deadline=datetime.timedelta(seconds=20))
@given(case=generated_runs())
def test_run_on_a_generated_table_succeeds_or_exits_one(case):
    # every table `run` accepts either gives a sound, repeatable result that
    # `explain` and `report` read, or a user error; never an internal error
    table, schema, mapping, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        _write_documents(d, {"schema.json": schema, "mapping.json": mapping}, table)
        argv = ["run", "--dataset", str(d / "data.csv"), "--schema", str(d / "schema.json"),
                "--kg", kgfeat.resource_path("default_kg.json"),
                "--mapping", str(d / "mapping.json"), *flags]
        code, err = _kgfeat(*argv, "--out", str(d / "out"))
        event(f"run exits {code}")
        assert code in (0, 1), err
        if code == 1:
            return
        result = (d / "out" / "result.json").read_bytes()
        doc = json.loads(result)
        scores = [doc["best_score"], doc["baseline_score"], *doc["episode_scores"]]
        assert all(math.isfinite(s) for s in scores), scores
        assert doc["best_score"] >= doc["baseline_score"]
        assert all(f["verdict"] != "non_interpretable" for f in doc["best_features"])
        assert _kgfeat(*argv, "--out", str(d / "again")) == (0, "")
        assert (d / "again" / "result.json").read_bytes() == result
        path = str(d / "out" / "result.json")
        for entries in (doc["best_features"], doc["discard_log"]):
            for entry in entries[:1]:
                assert _kgfeat("explain", path, entry["display_name"]) == (0, "")
        assert _kgfeat("report", path) == (0, "")
