"""Semantic vectors: one slot per KG concept, summed over the feature set."""
from __future__ import annotations

import numpy as np

from .kg import KnowledgeGraph, RawRef, _leaves, expr_unit
from .transform import Expr


def phi_feature(kg: KnowledgeGraph, expr: Expr) -> np.ndarray:
    """0/1 vector over the KG's concept order: each mapped leaf lights up its
    class, the class ancestors, and its unit; derived features add the
    propagated root unit when known. Unmapped leaves contribute nothing."""
    index = {name: i for i, name in enumerate(kg.concept_order)}
    vec = np.zeros(len(kg.concept_order), dtype=np.int64)
    for leaf in _leaves(expr):
        entry = kg.column_concepts.get(leaf.name)
        if entry is None:
            continue
        cls, unit_name = entry
        for concept in [cls] + kg.ancestors(cls):
            if concept in index:
                vec[index[concept]] = 1
        if unit_name is not None and unit_name in index:
            vec[index[unit_name]] = 1
    if not isinstance(expr, RawRef):
        unit = expr_unit(kg, expr)
        if unit is not None:
            name = kg.registered_name_for(unit)
            if name is not None and name in index:
                vec[index[name]] = 1
    return vec


def phi_state(kg: KnowledgeGraph, features) -> np.ndarray:
    """Element-wise sum of per-feature vectors; fixed length regardless of
    how many features the state holds."""
    vec = np.zeros(len(kg.concept_order), dtype=np.int64)
    for expr in features:
        vec += phi_feature(kg, expr)
    return vec
