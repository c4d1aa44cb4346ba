import json

import numpy as np
import pytest

from kgfeat.data import Dataset, Task
from kgfeat.engine import phi_state, raw_pool
from kgfeat.kg import judge, load_kg
from kgfeat.transform import Node, RawRef

from conftest import num_col


@pytest.fixture()
def kg(tmp_path, default_kg_path):
    mapping = {
        "weight": {"class": "Weight", "unit": "kg"},
        "height": {"class": "Height", "unit": "m"},
    }
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(mapping))
    return load_kg(default_kg_path, str(path))


def idx(kg, name):
    return kg.concept_order.index(name)


def phi(kg, expr):
    """A feature's concept vector: 1 at each concept its verdict carries."""
    vec = np.zeros(len(kg.concept_order), dtype=np.int64)
    vec[list(judge(kg, expr).concepts)] = 1
    return vec


def test_phi_raw_feature_sets_class_ancestors_unit(kg):
    vec = phi(kg, RawRef("weight"))
    assert vec.shape == (len(kg.concept_order),)
    assert set(np.unique(vec)) <= {0, 1}
    for concept in ("Weight", "Mass", "PhysicalQuantity", "Quantity", "kg"):
        assert vec[idx(kg, concept)] == 1, concept
    assert vec[idx(kg, "Height")] == 0
    assert vec[idx(kg, "m")] == 0


def test_phi_unmapped_leaf_is_zero(kg):
    assert phi(kg, RawRef("mystery")).sum() == 0


def test_phi_derived_feature_adds_propagated_unit(kg):
    bmi = Node("div", (RawRef("weight"), Node("square", (RawRef("height"),))))
    vec = phi(kg, bmi)
    for concept in ("Weight", "Height", "kg", "m", "kg_per_m2"):
        assert vec[idx(kg, concept)] == 1, concept


def test_phi_state_is_sum_of_feature_vectors(kg):
    cols = [num_col(name, np.ones(3)) for name in ("weight", "height", "y")]
    weight, height = raw_pool(Dataset(cols, "y", Task.REGRESSION, 3), kg)
    total = phi_state(kg, [weight, height, weight])
    manual = sum(phi(kg, RawRef(name)) for name in ("weight", "height", "weight"))
    assert total.dtype == np.int64 and (total == manual).all()
    # repeated concepts accumulate past one
    assert total[idx(kg, "Weight")] == 2
    assert total[idx(kg, "Quantity")] == 3


def test_phi_state_length_fixed(kg):
    assert len(phi_state(kg, [])) == len(kg.concept_order)
