"""The benchmark wraps osculant by name (``benchmarks/tracer.py``) and
calls it with fixed keywords (``benchmarks/worker.py``).  These tests
read the tracer's tables without installing it, so a refactor that
renames or re-signs one of those targets fails here rather than in a
traced benchmark run."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

import osculant
import osculant.cli  # noqa: F401  (the tracer looks modules up by name)

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    """benchmarks/tracer.py, executed from its source: nothing is
    written next to it and nothing is installed."""
    module = types.ModuleType("benchmark_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _load_tracer()

TARGETS = ([("span", name, t) for name, t in tracer.SPAN_FUNCTIONS.items()]
           + [("method", name, t) for name, t in tracer.SPAN_METHODS.items()]
           + [("counted", name, t) for name, t in tracer.COUNTED.items()])


@pytest.mark.parametrize("kind,name,target", TARGETS,
                         ids=[f"{kind}:{name}" for kind, name, _ in TARGETS])
def test_tracer_target_resolves(kind, name, target):
    owner = importlib.import_module(target[0])
    for attr in target[1:]:
        owner = getattr(owner, attr)
    assert callable(owner)


REF = osculant.LambdaSpec(4, 2, (3, 2, 2, 2))

# the library calls the query workload makes, with its keywords
WORKER_CALLS = [
    (osculant.nef_check, (REF,), {"mode": "both", "p": 7}),
    (osculant.verify_minimizer_claim, (REF,), {"p": 7}),
    (osculant.z_divisor, (REF,), {"p": 7}),
    (osculant.linear_system_dims, (REF,), {"p": 7}),
    (osculant.moduli_dimension, (REF,), {"p": 7}),
]


@pytest.mark.parametrize("fn,args,kwargs", WORKER_CALLS,
                         ids=[fn.__name__ for fn, _, _ in WORKER_CALLS])
def test_worker_calls_still_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)
    fn(*args, **kwargs)


def test_census_reaches_every_counted_layer(monkeypatch):
    """The traced census run (benchmarks/test_benchmark.py) requires each
    COUNTED call to happen; count them with the tracer's own counters,
    bound at every osculant binding as Tracer.install binds them, on the
    same grid n <= 6, d <= 3, gamma <= 15."""
    counting = tracer.Tracer()
    for name, target in tracer.COUNTED.items():
        owner = importlib.import_module(target[0])
        if len(target) == 3:
            klass = getattr(owner, target[1])
            monkeypatch.setattr(klass, target[2], counting.counter(
                name, getattr(klass, target[2])))
            continue
        original = getattr(owner, target[1])
        wrapper = counting.counter(name, original)
        for module in tracer._osculant_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    osculant.census(range(1, 7), range(1, 4), 15)
    counts = {name: counting.counters[name][0] for name in tracer.COUNTED}
    assert all(counts.values()), counts


def test_worker_names_exist():
    for name in ("LambdaSpec", "parse_divisor", "K", "DomainError"):
        assert hasattr(osculant, name)
    assert callable(osculant.cli.main) and callable(osculant.cli.build_parser)
