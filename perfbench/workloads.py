"""Workload inputs: each workload is a dataset, its schema, concept mapping,
knowledge graph and a `kgfeat run` manifest, all written into one directory
from the workload seed.

The table's values and the engine seed in the manifest are fixed, so the
search effort does not depend on the seed and the run-to-run spread reflects
the program, not a longer or shorter random search. Where that holds with the
rows reordered, the seed picks the row order, which changes the CV folds, the
bootstrap samples and so the scores.
"""
from __future__ import annotations

import csv
import json
import os
import shutil

import numpy as np

ENGINE_SEED = 0
PLANTED_ROWS = 20_000
PLANTED_DATA_SEED = 0

# name -> (data source, whether the seed reorders the rows, engine options).
# Two tables keep one row order for every seed. The diabetes F1 moves by 0.14
# of its median over 22 row orders, and by up to 0.29 within ten of them, more
# than any bound the benchmark may set. On the planted table the row order
# changes the rounding of near-tied candidate correlations (SQRT(SQUARE(X2))
# against X2), so later steps keep other candidates and the run's time and
# peak memory move by about 10%.
WORKLOADS = {
    "diabetes-rf": ("diabetes", False, {
        "episodes": 7, "steps": 5, "k_folds": 2, "learner": "random_forest"}),
    "sales-rf": ("sales", True, {
        "episodes": 2, "steps": 5, "k_folds": 2, "learner": "random_forest",
        "feature_budget": 20}),
    "planted20k-linear": ("planted20k", False, {
        "episodes": 2, "steps": 20, "k_folds": 5, "learner": "linear"}),
}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _shipped_rows(resources, name, out_dir):
    """The rows of a shipped dataset; its schema and mapping go to out_dir."""
    shutil.copyfile(os.path.join(resources, f"{name}.schema.json"),
                    os.path.join(out_dir, "schema.json"))
    shutil.copyfile(os.path.join(resources, f"{name}.mapping.json"),
                    os.path.join(out_dir, "mapping.json"))
    with open(os.path.join(resources, f"{name}.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _planted_rows(n, out_dir):
    """Regression with a planted x1 / x2^2 signal (the generator of
    tests/conftest.py). x1 carries kg and x2 m, so the planted ratio is
    interpretable (kg/m^2)."""
    rng = np.random.default_rng(PLANTED_DATA_SEED)
    X = rng.uniform(0.5, 2.0, (n, 5))
    y = X[:, 0] / X[:, 1] ** 2 + rng.normal(0, 0.05, n)
    _write_json(os.path.join(out_dir, "schema.json"),
                {"target_name": "y", "task": "regression",
                 "column_kind_overrides": {}})
    _write_json(os.path.join(out_dir, "mapping.json"),
                {"x1": {"class": "Weight", "unit": "kg"},
                 "x2": {"class": "Height", "unit": "m"}})
    body = [[f"{v:.6f}" for v in X[i]] + [f"{y[i]:.6f}"] for i in range(n)]
    return ["x1", "x2", "x3", "x4", "x5", "y"], body


def make_inputs(workload, seed, resources, out_dir):
    """Write the inputs of one workload and seed into `out_dir`.

    Returns (manifest path, number of data rows, target column name).
    """
    source, reorder, engine = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    if source == "planted20k":
        header, body = _planted_rows(PLANTED_ROWS, out_dir)
    else:
        header, body = _shipped_rows(resources, source, out_dir)
    if reorder:
        body = [body[i] for i in np.random.default_rng(seed).permutation(len(body))]
    with open(os.path.join(out_dir, "data.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(body)
    shutil.copyfile(os.path.join(resources, "default_kg.json"),
                    os.path.join(out_dir, "kg.json"))
    engine = dict(engine, seed=ENGINE_SEED, policy="dqn",
                  patience=engine["episodes"])
    manifest = os.path.join(out_dir, "manifest.json")
    _write_json(manifest, {"dataset": "data.csv", "schema": "schema.json",
                           "kg": "kg.json", "mapping": "mapping.json",
                           "engine": engine})
    with open(os.path.join(out_dir, "schema.json")) as fh:
        target = json.load(fh)["target_name"]
    return manifest, len(body), target
