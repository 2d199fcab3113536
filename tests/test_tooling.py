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


def _scoped_nodes(tree):
    """(enclosing qualname, node) for every node of a module's tree."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        yield ".".join(scope), node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(tree, [])


def _cache_uses(tree):
    """(enclosing qualname, lineno, kind) of each membership test against an
    object's `_cache` and of each item written into one."""
    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    found = []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Compare):
            found.extend((scope, node.lineno, "membership")
                         for op, right in zip(node.ops, node.comparators)
                         if isinstance(op, (ast.In, ast.NotIn)) and is_cache(right))
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        found.extend((scope, node.lineno, "write") for target in targets
                     if isinstance(target, ast.Subscript) and is_cache(target.value))
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


def test_cached_functions_leave_freezing_to_the_helper():
    # algebra.cached makes every array of a value it stores read-only, so
    # no function it wraps sets flags.writeable by hand
    wrapped, bad = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "cached" for d in node.decorator_list):
                wrapped += 1
                bad += [f"{path.name}:{sub.lineno} in {node.name}" for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute) and sub.attr == "writeable"]
    assert wrapped >= 20
    assert not bad, f"cached functions that freeze by hand: {bad}"


def _arrays_one_level_in(value):
    """The value if it is an array, else the arrays among a tuple's items
    or a dataclass's fields."""
    import dataclasses

    import numpy as np

    parts = (vars(value).values() if dataclasses.is_dataclass(value) else
             value if isinstance(value, tuple) else (value,))
    return [part for part in parts if isinstance(part, np.ndarray)]


def test_every_cached_array_is_read_only_after_the_tables_jobs():
    # every value in every `_cache` is shared by all later callers, so no
    # array in one may be writable; the tables jobs fill covers, sections,
    # splits, resolutions, forms and window images
    import gc

    for name, job in _load_perfbench("workloads").WORKLOADS["tables"](0):
        assert job()[0], name
    seen, writable = 0, []
    for obj in gc.get_objects():
        owner = type(obj).__module__      # a descriptor on some metaclasses
        if not (isinstance(owner, str) and owner.startswith("redhom.")):
            continue
        for key, value in getattr(obj, "_cache", {}).items():
            arrays = _arrays_one_level_in(value)
            seen += len(arrays)
            writable += [f"{type(obj).__name__} {key}" for a in arrays if a.flags.writeable]
    assert seen >= 500
    assert not writable, f"writable cached arrays: {writable[:10]}"


def test_content_is_keyed_only_by_the_module_intern_table():
    # equal modules are one object (ModuleRep.__new__), so a side table
    # keyed by a module's content, as window images once had, must not
    # come back: array bytes, digests and hashes are read only there
    words = {"tobytes", "_digest", "hash", "hashlib", "digest", "hexdigest",
             "zlib", "crc32", "adler32"}
    allowed = {("modules.py", "_digest"), ("modules.py", "ModuleRep.__new__")}
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else None)
            if name in words and (path.name, scope) not in allowed:
                bad.append(f"{path.name}:{node.lineno} {name} in {scope or 'module'}")
    assert not bad, f"content read as a key outside the intern table: {bad}"


def test_dense_entries_are_read_only_in_lambda_matrix_and_json():
    # a LambdaMatrix holds only its nonzero entries; the dense `entries`
    # array is built on each read, so the package reads the cells instead
    # and `entries` stays for callers outside it
    bad = []
    for path in sorted(SRC.glob("*.py")):
        bad += [f"{path.name}:{node.lineno} in {scope or 'module'}"
                for scope, node in _scoped_nodes(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.Attribute) and node.attr == "entries"
                and not (scope.startswith("LambdaMatrix") or scope.endswith("to_jsonable"))]
    assert not bad, f"dense LambdaMatrix entries read in the package: {bad}"


def test_complexes_ranks_only_through_lambda_matrix():
    # every Ext rank is LambdaMatrix.linear_rank of a transpose, over the
    # ring or a module: a dense rank here would skip the component path
    # and the budget, as the induced Hom maps once did
    tree = ast.parse((SRC / "complexes.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "rank"
                 and isinstance(node.value, ast.Name) and node.value.id == "gf")
             or (isinstance(node, ast.ImportFrom) and node.module == "gf"
                 and any(alias.name == "rank" for alias in node.names))]
    assert not found, f"gf.rank called in complexes.py at lines {found}"


def test_modules_builds_no_kronecker_commuting_system():
    # Hom(M, N) is the kernel of Hom(d_1, N); the dense commuting system of
    # Kronecker blocks lives on only as the tests' reference
    # (module_helpers.commuting_system)
    text = (SRC / "modules.py").read_text()
    found = [name for name in ("np.kron", "_commuting_system") if name in text]
    assert not found, f"modules.py names {found}"


def test_only_gf_names_matrix():
    # maps and Hom bases are plain arrays; gf.Matrix must not spread back
    word = re.compile(r"\bMatrix\b")
    found = [f"{path.name}:{lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "gf.py"
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if word.search(line)]
    assert not found, f"Matrix named outside gf.py: {found}"


def test_module_maps_are_plain_arrays():
    # a module map is its read-only matrix; the wrapper class that copied
    # and re-reduced every map must not come back, in the package or tests
    word = re.compile(r"\bModule[M]ap\b")     # [M] keeps this file out of a grep
    files = sorted(SRC.glob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py"))
    found = [f"{path.name}:{lineno}" for path in files
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if word.search(line)]
    assert not found, f"module map class named at {found}"


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


@pytest.mark.parametrize("workload,seed", [
    pytest.param(w, s, id=w if s == 0 else f"{w}-seed{s}")
    for s in (0, 1) for w in ("certify", "search", "tables")])
def test_every_benchmark_job_passes_at_seed_0(workload, seed):
    # a benchmark run fails on any job whose verdict check fails, so an
    # API change that breaks a job must fail here first; seed 1 shifts
    # every sample seed, so the same checks also run on held-out modules
    jobs = _load_perfbench("workloads").WORKLOADS[workload](seed)
    assert jobs
    failed = []
    for name, job in jobs:
        ok, detail = job()
        if not ok:
            failed.append(f"{name}: {detail}")
    assert not failed, failed


_COUNT_GF_CALLS = """
import collections, functools, gc, json, sys, types
sys.path.insert(0, sys.argv[1])
from redhom import gf
import workloads

calls = collections.Counter()

def counted(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name, fn in list(vars(gf).items()):
    if isinstance(fn, types.FunctionType) and fn.__module__ == gf.__name__:
        setattr(gf, name, counted(name, fn))
jobs = workloads.WORKLOADS["tables"](0)
{collector}
assert all(job()[0] for _, job in jobs)
print(json.dumps(calls, sort_keys=True))
"""


def test_tables_work_does_not_depend_on_when_the_collector_runs():
    # no cached value refers back to its owner, so a module dies with its
    # last reference and what a later equal module shares does not depend
    # on whether a collection has run: one pass of the tables jobs makes
    # the same gf calls with the collector on, off and after every
    # allocation (each in a fresh process, as a benchmark pass runs)
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent),
                                                        os.environ.get("PYTHONPATH")])))
    perfbench = str(SRC.parent.parent / "perfbench")
    runs = [subprocess.Popen([sys.executable, "-c", _COUNT_GF_CALLS.format(collector=collector),
                              perfbench], env=env, stdout=subprocess.PIPE, text=True)
            for collector in ("", "gc.disable()", "gc.set_threshold(1, 1, 1)")]
    counts = []
    try:
        for run in runs:
            out, _ = run.communicate(timeout=300)
            assert run.returncode == 0
            counts.append(json.loads(out))
    finally:
        for run in runs:
            run.kill()
            run.wait()
    assert counts[0]["row_basis"] > 0 and counts[0]["rank"] > 0
    assert counts[0] == counts[1] == counts[2]


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
