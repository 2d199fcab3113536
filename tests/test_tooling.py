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


def test_package_imports_only_numpy_and_the_standard_library():
    # scipy may be installed beside numpy, but it is not a dependency
    import sys

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not found, f"imports outside numpy and the standard library: {found}"


def _cache_uses(tree):
    """(enclosing qualname, lineno, kind) of each membership test against an
    object's `_cache` and of each item written into one."""
    found = []

    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Compare):
            found.extend((".".join(scope), node.lineno, "membership")
                         for op, right in zip(node.ops, node.comparators)
                         if isinstance(op, (ast.In, ast.NotIn)) and is_cache(right))
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        found.extend((".".join(scope), node.lineno, "write") for target in targets
                     if isinstance(target, ast.Subscript) and is_cache(target.value))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_derived_data_is_cached_only_through_the_helper():
    # algebra.cached is the one memo: no hand-written `key in obj._cache`
    # block, and items go into a `_cache` only there and where a transpose
    # hands itself to its partner
    allowed = {("algebra.py", "cached.wrapper"), ("modules.py", "LambdaMatrix.transpose")}
    bad = []
    for path in sorted(SRC.glob("*.py")):
        uses = _cache_uses(ast.parse(path.read_text(), filename=str(path)))
        bad += [f"{path.name}:{line} {kind} in {scope}" for scope, line, kind in uses
                if kind == "membership" or (path.name, scope) not in allowed]
    assert not bad, f"hand-written caches: {bad}"


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


def test_traced_search_counts_do_not_depend_on_hash_seed():
    # a traced benchmark run fails when a per-layer count differs between
    # passes; counts that follow str hashing (set or dict order keyed by
    # id() or hash) would differ between worker processes
    import json
    import os
    import subprocess
    import sys
    import time

    worker = SRC.parent.parent / "perfbench" / "worker.py"
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, str(worker), "--workload", "search", "--seed", "0",
             "--trace", "1", "--spawned-at", str(time.time())],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        out = json.loads(done.stdout.strip().splitlines()[-1])
        assert all(ok for _, _, ok, _ in out["jobs"])
        counts.append({name: value for name, value in out["per_layer"].items()
                       if not name.endswith("_s")})
    assert counts[0]["gf.rank.calls"] > 0
    assert counts[0] == counts[1]
