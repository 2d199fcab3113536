"""Built-in ring catalog, module shorthands and seeded sample generators.

Catalog ids (q is the field size, 2 or 5, chosen by suffix or the --p
flag): R1 = GF(q)[x,y]/(x^2,xy,y^2), R2 = GF(q)[x]/(x^2),
R3 = GF(q)[x,y]/(x^2,y^2), R4 = the five-dimensional Gorenstein algebra
k{1,x,y,z,w} with x^2 = y^2 = z^2 = w and all other products of
generators zero, R5 = GF(q) itself.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .algebra import AlgebraError, AlgebraRep, RingSpec, build_ring, json_ints
from .complexes import resolution_of
from .modules import (
    LambdaMatrix,
    ModuleError,
    ModuleRep,
    cokernel_of_lambda_matrix,
    direct_sum,
    free_module,
    simple_module,
    span_submodule,
    transpose_module,
)

CATALOG_IDS = ("R1", "R2", "R3", "R4", "R5")
CATALOG_FIELDS = (2, 5)

_DESCRIPTIONS = {
    "R1": "GF(q)[x,y]/(x^2,xy,y^2): radical square zero, socle dim 2, not Gorenstein",
    "R2": "GF(q)[x]/(x^2): smallest Gorenstein non-field, monomial complete intersection",
    "R3": "GF(q)[x,y]/(x^2,y^2): monomial complete intersection, socle dim 1",
    "R4": "five-dimensional Gorenstein algebra x^2=y^2=z^2=w, xy=yz=xz=0 (not a monomial CI)",
    "R5": "GF(q): the field itself (the only regular case at finite dimension)",
}

_cached_rings: dict[tuple[str, int], AlgebraRep] = {}


def catalog_spec(ring_id: str, p: int) -> RingSpec:
    if ring_id == "R1":
        return RingSpec("monomial_quotient", p, variables=["x", "y"],
                        ideal=["x^2", "xy", "y^2"], name=f"R1q{p}")
    if ring_id == "R2":
        return RingSpec("monomial_quotient", p, variables=["x"],
                        ideal=["x^2"], name=f"R2q{p}")
    if ring_id == "R3":
        return RingSpec("monomial_quotient", p, variables=["x", "y"],
                        ideal=["x^2", "y^2"], name=f"R3q{p}")
    if ring_id == "R4":
        return RingSpec("structure_constants", p,
                        labels=["1", "x", "y", "z", "w"],
                        products={"x,x": "w", "y,y": "w", "z,z": "w"},
                        gens=["x", "y", "z"], name=f"R4q{p}")
    if ring_id == "R5":
        return RingSpec("monomial_quotient", p, variables=[], ideal=[],
                        name=f"R5q{p}")
    raise AlgebraError(f"unknown catalog ring {ring_id!r}")


def catalog_ring(ring_id: str, p: int = 5) -> AlgebraRep:
    """Resolve 'R1', 'R1q2', 'R3q5' and similar ids (cached per field)."""
    base = ring_id
    if len(ring_id) > 2 and "q" in ring_id[2:]:
        base, _, suffix = ring_id.partition("q")
        if not suffix.isdigit():
            raise AlgebraError(f"bad catalog id {ring_id!r}")
        p = int(suffix)
    if base not in CATALOG_IDS:
        raise AlgebraError(f"unknown catalog ring {ring_id!r}; "
                           f"known ids: {', '.join(CATALOG_IDS)}")
    if p not in CATALOG_FIELDS:
        raise AlgebraError(f"catalog rings support q in {CATALOG_FIELDS}, got {p}")
    key = (base, p)
    if key not in _cached_rings:
        _cached_rings[key] = build_ring(catalog_spec(base, p))
    return _cached_rings[key]


def catalog_listing() -> list[dict]:
    return [{"id": rid, "fields": list(CATALOG_FIELDS),
             "description": _DESCRIPTIONS[rid]} for rid in CATALOG_IDS]


def load_ring(ref: str, p: int = 5) -> AlgebraRep:
    """A path to a RingSpec JSON document, or else a catalog id."""
    if os.path.isfile(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            return build_ring(RingSpec.from_dict(json.load(fh)))
    return catalog_ring(ref, p)


def module_from_spec(algebra: AlgebraRep, spec) -> ModuleRep:
    """Shorthand strings, JSON documents or file paths describing a module.

    Strings: 'k', 'ring', 'free:r', 'syzygy:n:<spec>'.  Documents: a dict
    with either 'actions' (list of square matrices, validated) or
    'presentation' (a matrix of coefficient vectors whose cokernel is
    taken).  A path to a JSON file holding such a document also works; a
    file shadows a shorthand of the same name, a directory does not.
    """
    if isinstance(spec, str):
        if os.path.isfile(spec):
            with open(spec, "r", encoding="utf-8") as fh:
                return module_from_spec(algebra, json.load(fh))
        if spec in ("k", "simple"):
            return simple_module(algebra)
        if spec in ("ring", "lambda"):
            return free_module(algebra, 1)
        if spec.startswith("free:"):
            return free_module(algebra, int(spec.split(":", 1)[1]))
        if spec.startswith("syzygy:"):
            _, n, rest = spec.split(":", 2)
            inner = module_from_spec(algebra, rest)
            n = int(n)
            return inner if n == 0 else resolution_of(inner).syzygy_module(n)
        if spec.startswith("transpose:"):
            return transpose_module(module_from_spec(algebra, spec.split(":", 1)[1]))
        raise ModuleError(f"unknown module shorthand {spec!r}")
    if isinstance(spec, dict):
        if "actions" in spec:
            return ModuleRep(algebra, json_ints(spec["actions"], "module actions"),
                             dim=spec.get("dim"), validate=True)
        if "presentation" in spec:
            lam = LambdaMatrix(algebra, json_ints(spec["presentation"],
                                                  "presentation entries"))
            return cokernel_of_lambda_matrix(lam)[0]
        raise ModuleError("module document needs 'actions' or 'presentation'")
    raise ModuleError(f"cannot interpret module spec {spec!r}")


def sample_modules(algebra: AlgebraRep, *, count: int, max_dim: int,
                   seed: int) -> list[tuple[str, ModuleRep]]:
    """Deterministic sample set: canonical modules plus seeded random ones.

    Random modules are cyclic quotients by random radical elements and
    submodules generated by random vectors of a small free module, so
    they are valid by construction.
    """
    rng = np.random.default_rng(seed)
    out: list[tuple[str, ModuleRep]] = []

    def add(name: str, mod: ModuleRep):
        if 0 < mod.dim <= max_dim and len(out) < count:
            out.append((name, mod))

    k = simple_module(algebra)
    add("k", k)
    add("ring", free_module(algebra, 1))
    res = resolution_of(k)
    for n in (1, 2):
        if len(out) >= count:
            break
        add(f"syzygy:{n}:k", res.syzygy_module(n))
    add("k+ring", direct_sum([k, free_module(algebra, 1)]))
    attempt = 0
    while len(out) < count and attempt < 20 * count:
        attempt += 1
        kind = int(rng.integers(0, 2))
        if kind == 0 and algebra.dim > 1:
            vec = rng.integers(0, algebra.p, size=algebra.dim, dtype=np.int64)
            vec[0] = 0
            if not vec.any():
                continue
            lam = LambdaMatrix(algebra, vec.reshape(1, 1, algebra.dim))
            mod = cokernel_of_lambda_matrix(lam)[0]
            add(f"cyclic#{attempt}", mod)
        else:
            free = free_module(algebra, 2)
            cols = rng.integers(0, algebra.p, size=(free.dim, 2), dtype=np.int64)
            sub = span_submodule(free, cols)[0]
            add(f"span#{attempt}", sub)
    return out
