import csv
import json
import os

import numpy as np
import pytest

import kgfeat
from kgfeat import kg as kgmod
from kgfeat.data import (Dataset, Feature, Kind, RawRef, SchemaConfig, Task, _build_column,
                         load_csv)
from kgfeat.kg import Unit
from kgfeat.transform import catalog_op


def num_col(name, vals, missing=None, kind=Kind.NUMERIC):
    """A numeric (or Boolean or Date) column, NaN at the `missing` cells."""
    vals = np.array(vals, dtype=float)
    if missing is not None:
        vals[np.asarray(missing, dtype=bool)] = np.nan
    return Feature(RawRef(name), vals, kind, name)


def cat_col(name, cells, missing=None):
    """A categorical column coded as load_csv codes it, missing at the
    `missing` cells and at empty ones."""
    cells = [str(c) for c in cells]
    if missing is not None:
        cells = ["" if m else c for c, m in zip(cells, missing)]
    return _build_column(name, cells, Kind.CATEGORICAL)


def cells_of(col):
    """A categorical column's cells read back through its levels, "" where
    missing."""
    return [col.levels[int(v)] if v == v else "" for v in col.values.tolist()]


def fold_pairs(fold, k):
    """The (train, valid) index pairs of kfold_indices' fold numbers, fold by
    fold, each in ascending row order."""
    return [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k)]


def render_name(expr):
    """An expression's display name rendered from its tree: each node's
    catalog label over its operands' names, column names and one-hot levels
    as written."""
    if isinstance(expr, RawRef):
        return expr.name
    return catalog_op(expr.op).label.format(*map(render_name, expr.args), level=expr.level)


def unit(**exponents):
    """The unit with these base-dimension exponents."""
    return Unit(dims=kgmod._normalize(exponents))


def empty_kg():
    """A KG with no classes, units, mappings or rules."""
    return kgmod.KnowledgeGraph([], {}, {}, [])


def make_dataset(columns, target, task=Task.REGRESSION):
    return Dataset(columns=columns, target=target, task=task,
                   n_rows=len(columns[0].values))


@pytest.fixture(scope="session")
def default_kg_path():
    return kgfeat.resource_path("default_kg.json")


@pytest.fixture(scope="session")
def diabetes():
    schema = SchemaConfig.from_json(kgfeat.resource_path("diabetes.schema.json"))
    return load_csv(kgfeat.resource_path("diabetes.csv"), schema)


@pytest.fixture(scope="session")
def diabetes_kg(default_kg_path):
    return kgmod.load_kg(default_kg_path, kgfeat.resource_path("diabetes.mapping.json"))


@pytest.fixture(scope="session")
def sales():
    schema = SchemaConfig.from_json(kgfeat.resource_path("sales.schema.json"))
    return load_csv(kgfeat.resource_path("sales.csv"), schema)


@pytest.fixture(scope="session")
def sales_kg(default_kg_path):
    return kgmod.load_kg(default_kg_path, kgfeat.resource_path("sales.mapping.json"))


def make_planted_dataset(tmp_path, n=200, noise=0.05, seed=0):
    """Synthetic regression with a planted x1 / x2^2 signal; x1 and x2 carry
    kg and m units so the planted ratio is interpretable (kg/m^2)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, (n, 5))
    y = X[:, 0] / X[:, 1] ** 2 + rng.normal(0, noise, n)
    csv_path = os.path.join(str(tmp_path), "planted.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "x4", "x5", "y"])
        for i in range(n):
            writer.writerow([f"{v:.6f}" for v in X[i]] + [f"{y[i]:.6f}"])
    map_path = os.path.join(str(tmp_path), "planted.mapping.json")
    with open(map_path, "w") as fh:
        json.dump({"x1": {"class": "Weight", "unit": "kg"},
                   "x2": {"class": "Height", "unit": "m"}}, fh)
    schema_path = os.path.join(str(tmp_path), "planted.schema.json")
    with open(schema_path, "w") as fh:
        json.dump({"target_name": "y", "task": "regression",
                   "concept_map_path": "planted.mapping.json"}, fh)
    d = load_csv(csv_path, SchemaConfig(target_name="y", task=Task.REGRESSION))
    kg = kgmod.load_kg(kgfeat.resource_path("default_kg.json"), map_path)
    return d, kg, {"csv": csv_path, "schema": schema_path, "mapping": map_path}


@pytest.fixture()
def planted(tmp_path):
    return make_planted_dataset(tmp_path)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance pass/fail lines after captured runs."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
