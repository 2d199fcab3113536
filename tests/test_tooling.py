"""Source-level checks on the package itself."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "redhom"


def test_no_assert_statements_in_package():
    # assert statements vanish under python -O; invariants must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert not found, f"plain assert statements: {found}"


def test_only_gf_names_matrix():
    # maps and Hom bases are plain arrays; gf.Matrix must not spread back
    word = re.compile(r"\bMatrix\b")
    found = [f"{path.name}:{lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "gf.py"
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if word.search(line)]
    assert not found, f"Matrix named outside gf.py: {found}"


def _load_perfbench(name):
    """perfbench/<name>.py as a private module (read only, nothing installed)."""
    import importlib.util

    path = SRC.parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    # the benchmark's tracer wraps these names; a traced run fails to
    # install when one is renamed or deleted
    tracing = _load_perfbench("tracing")
    wrapped = [(prefix, owner, attr) for prefix, owner, attr, *_ in
               tracing.LEAVES + tracing.SPANS + tracing.COUNTERS]
    assert len(wrapped) >= 20
    missing = [prefix for prefix, owner, attr in wrapped
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced names missing from redhom: {missing}"
    # a timed metric is named after what it wraps, e.g. gf.kernel
    for prefix, owner, attr, *_ in tracing.LEAVES + tracing.SPANS:
        where = (f"{owner.__module__}.{owner.__qualname__}"
                 if isinstance(owner, type) else owner.__name__)
        assert prefix == f"{where.removeprefix('redhom.')}.{attr}"


def test_benchmark_per_layer_metrics_are_traced():
    import json

    tracing = _load_perfbench("tracing")
    bench = json.loads((SRC.parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_s"}
    assert declared <= set(tracing.per_layer_names())


@pytest.mark.parametrize("workload", ["certify", "search", "tables"])
def test_every_benchmark_job_passes_at_seed_0(workload):
    # a benchmark run fails on any job whose verdict check fails, so an
    # API change that breaks a job must fail here first
    jobs = _load_perfbench("workloads").WORKLOADS[workload](0)
    assert jobs
    failed = []
    for name, job in jobs:
        ok, detail = job()
        if not ok:
            failed.append(f"{name}: {detail}")
    assert not failed, failed
