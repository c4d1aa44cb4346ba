"""The benchmark tracer (perfbench/spans.py) times kgfeat by replacing module
attributes with wrappers, so every name it wraps must exist where it looks."""
import importlib
import importlib.util
import inspect
import os

SPANS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    for name, module, attr, _ in load_spans().ENTRY_POINTS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{name}: {module}.{attr} is missing"


def test_judge_takes_the_expression_second():
    # the tracer tags each judge span from its second positional argument
    from kgfeat import engine
    assert list(inspect.signature(engine.judge).parameters)[1] == "expr"


def test_phi_state_runs_once_per_step_and_once_per_episode(tmp_path, monkeypatch):
    # the count the benchmark reports as vectorize.phi_state.calls
    from kgfeat import engine
    from kgfeat.learn import LearnerSpec
    from conftest import make_planted_dataset

    d, kg, _ = make_planted_dataset(tmp_path, n=60)
    calls = []
    phi_state = engine.phi_state

    def counted(*args):
        calls.append(1)
        return phi_state(*args)
    monkeypatch.setattr(engine, "phi_state", counted)
    cfg = engine.EngineConfig(episodes=2, steps=3, cap=4, k_folds=2,
                              learner=LearnerSpec(kind="linear"))
    result = engine.run(cfg, d, kg)
    assert len(result.traces) == 2
    assert len(calls) == 2 * (3 + 1)
