"""Acceptance battery: exact desk-scale reproductions and oracle suites.

Each criterion is a function returning (ok, detail).  They are run both
by the CLI (`redhom suite acceptance`) and by the pytest acceptance
module, which prints one pass/fail line per criterion.  All tolerances
are exact (integer equality and boolean flags); every criterion also
carries the wall-clock limit it must meet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .catalog import catalog_ring, sample_modules
from .complexes import (
    bass_numbers,
    ext_dims,
    ext_dims_via_dual_complex,
    minimal_free_resolution,
    ring_module,
)
from .modules import (
    LambdaMatrix,
    cokernel_of_lambda_matrix,
    free_module,
    hom_dim,
    is_isomorphic,
    simple_module,
    split_free_summands,
    transpose_module,
)
from .reducing import (
    SearchLimits,
    bass_growth,
    search_reducing,
    upper_reduction_vs_complexity,
    verify_witness,
)
from .torsionfree import gdim_report, window_roundtrip


@dataclass
class CriterionResult:
    name: str
    ok: bool
    seconds: float
    limit: float
    detail: str

    def to_jsonable(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "seconds": round(self.seconds, 3), "limit": self.limit,
                "detail": self.detail}


def criterion_1_paper_example():
    """red-pd witness for k over GF(5)[x,y]/(x^2,xy,y^2): depth 1, (0,2,1), middle free."""
    alg = catalog_ring("R1", 5)
    k = simple_module(alg)
    limits = SearchLimits(max_steps=2, n_max=1, ab_max=2, cap=200_000, seed=0)
    result = search_reducing(k, "red", "pd", limits)
    if not result.found:
        return False, "no witness found"
    step = result.witness.steps[0] if result.witness.steps else None
    checks = {
        "depth": result.witness.depth == 1,
        "shape": step is not None and (step.n, step.a, step.b) == (0, 2, 1),
        "middle_free": step is not None and
        is_isomorphic(step.middle, free_module(alg, 1)).kind == "yes",
        "reverified": verify_witness(k, result),
    }
    detail = (f"depth={result.witness.depth}, "
              f"(n,a,b)=({step.n},{step.a},{step.b}), middle dim {step.middle.dim}")
    return all(checks.values()), detail + f", checks={checks}"


def criterion_2_negative_certificate():
    """ured-pd of k over GF(2)-R1: exhaustive no-witness at one step, n <= 3."""
    alg = catalog_ring("R1", 2)
    k = simple_module(alg)
    limits = SearchLimits(max_steps=1, n_max=3, cap=200_000, seed=0)
    result = search_reducing(k, "ured", "pd", limits)
    ok = (not result.found) and result.exhaustive
    return ok, (f"found={result.found}, exhaustive={result.exhaustive}, "
                f"tested={result.tested} extension classes, "
                f"pruned={result.pruned} (n, a, b) triples")


def criterion_3_betti():
    """Exact Betti numbers of k over R1 (2^i), R2 (all 1), R3 (i+1)."""
    expected = [
        ("R1", [2**i for i in range(9)]),
        ("R2", [1] * 9),
        ("R3", list(range(1, 10))),
    ]
    details = []
    ok = True
    for ring_id, want in expected:
        alg = catalog_ring(ring_id, 5)
        _, betti = minimal_free_resolution(simple_module(alg), 8)
        good = betti == want
        ok = ok and good
        details.append(f"{ring_id}: {betti}{'' if good else ' != ' + str(want)}")
    return ok, "; ".join(details)


def criterion_4_complexity_equalities():
    """cx estimates and ured witnesses over the complete intersections R2, R3."""
    alg2 = catalog_ring("R2", 5)
    k2 = simple_module(alg2)
    rep2 = upper_reduction_vs_complexity(
        k2, SearchLimits(max_steps=1, n_max=1), bound=12)
    ok2 = (rep2["cx_estimate"]["verdict"] == "poly(1)"
           and rep2["search"]["found"]
           and rep2["search"]["witness"]["depth"] == 1
           and rep2["consistent"]
           and all(i["ok"] for i in rep2["betti_inequalities"]))

    alg3 = catalog_ring("R3", 5)
    k3 = simple_module(alg3)
    rep3 = upper_reduction_vs_complexity(
        k3, SearchLimits(max_steps=2, n_max=3, cap=200_000), bound=12)
    ok3 = (rep3["cx_estimate"]["verdict"] == "poly(2)"
           and rep3["search"]["found"]
           and rep3["search"]["witness"]["depth"] <= 2
           and rep3["consistent"]
           and all(i["ok"] for i in rep3["betti_inequalities"]))
    detail = (f"R2: cx={rep2['cx_estimate']['verdict']}, "
              f"depth={rep2['search']['witness']['depth'] if rep2['search']['found'] else None}; "
              f"R3: cx={rep3['cx_estimate']['verdict']}, "
              f"depth={rep3['search']['witness']['depth'] if rep3['search']['found'] else None}")
    return ok2 and ok3, detail


def criterion_5_window_roundtrip():
    """classify-build-verify agreement on seeded samples, all m, n <= 3."""
    plans = [("R1", 5, 5), ("R2", 12, 6), ("R3", 8, 5), ("R4", 4, 5)]
    cases = 0
    failures = []
    total_modules = 0
    for ring_id, max_dim, count in plans:
        alg = catalog_ring(ring_id, 5)
        samples = sample_modules(alg, count=count, max_dim=max_dim, seed=20240)
        total_modules += len(samples)
        for name, mod in samples:
            _, outcomes = window_roundtrip(mod, 3, 3)
            cases += len(outcomes)
            failures += [(ring_id, name, m, n, outcome)
                         for (m, n), outcome in outcomes.items() if outcome is not None]
    ok = total_modules >= 20 and not failures
    return ok, (f"{total_modules} modules, {cases} (m,n) cases, "
                f"{len(failures)} disagreements"
                + (f"; first: {failures[0]}" if failures else ""))


def criterion_6_transpose_duality():
    """split(tr tr M) isomorphic to split(M), exhaustively, over GF(2) rings."""
    checked = 0
    skipped = 0
    failures = []
    for ring_id in ("R1", "R2", "R3", "R4", "R5"):
        alg = catalog_ring(ring_id, 2)
        for name, mod in sample_modules(alg, count=5, max_dim=8, seed=606):
            core = split_free_summands(mod).core
            ttcore = split_free_summands(transpose_module(transpose_module(mod))).core
            if 2**hom_dim(ttcore, core) > 2_000_000:
                skipped += 1
                continue
            verdict = is_isomorphic(ttcore, core, exhaust_cap=2_000_000)
            checked += 1
            if verdict.kind != "yes":
                failures.append((ring_id, name, verdict.kind, verdict.certificate))
    ok = checked >= 20 and not failures
    return ok, (f"{checked} exhaustive-regime pairs verified, {skipped} outside the "
                f"regime skipped, {len(failures)} failures"
                + (f"; first: {failures[0]}" if failures else ""))


def _gorenstein_samples(alg):
    k = simple_module(alg)
    yield "k", k
    yield "ring", free_module(alg, 1)
    socle_vec = np.zeros((1, 1, alg.dim), dtype=np.int64)
    socle_vec[0, 0, alg.dim - 1] = 1
    yield "ring/socle", cokernel_of_lambda_matrix(LambdaMatrix(alg, socle_vec))[0]
    if alg.num_gens:
        x_vec = alg.gens[0].reshape(1, 1, alg.dim)
        yield "ring/(x)", cokernel_of_lambda_matrix(LambdaMatrix(alg, x_vec))[0]


def criterion_7_gorenstein_suite():
    """Ext vanishing, gdim 0 and zero reducing dimensions over Gorenstein rings."""
    failures = []
    sampled = 0
    for ring_id in ("R2", "R3", "R4"):
        for q in (2, 5):
            alg = catalog_ring(ring_id, q)
            for name, mod in _gorenstein_samples(alg):
                if mod.dim == 0:
                    continue
                sampled += 1
                dims = ext_dims(mod, ring_module(alg), 6).dims
                if any(dims[1:]):
                    failures.append((ring_id, q, name, "ext", dims))
                    continue
                rep = gdim_report(mod, 3)
                if not rep.verdict.startswith("gdim = 0"):
                    failures.append((ring_id, q, name, "gdim", rep.verdict))
                    continue
                for mode in ("red", "ured"):
                    res = search_reducing(mod, mode, "gdim", SearchLimits(tr_bound=3))
                    if not (res.found and res.witness.depth == 0):
                        failures.append((ring_id, q, name, mode, "depth != 0"))
    alg1 = catalog_ring("R1", 5)
    k1 = simple_module(alg1)
    dims1 = ext_dims(k1, ring_module(alg1), 6).dims
    if not all(d >= 1 for d in dims1[1:]):
        failures.append(("R1", 5, "k", "ext should not vanish", dims1))
    ok = not failures and sampled >= 18
    return ok, (f"{sampled} Gorenstein samples at bound 6; R1 counterexample dims "
                f"{list(dims1)}; {len(failures)} failures"
                + (f"; first: {failures[0]}" if failures else ""))


def criterion_8_bass_plexity():
    """Bass numbers: socle dim 2 with exponential growth over R1; trivial over R2."""
    alg1 = catalog_ring("R1", 5)
    mu1 = bass_numbers(ring_module(alg1), 8)
    est1 = bass_growth(ring_module(alg1), 8)
    alg2 = catalog_ring("R2", 5)
    mu2 = bass_numbers(ring_module(alg2), 8)
    est2 = bass_growth(ring_module(alg2), 8)
    ok = (mu1[0] == 2 and est1.verdict == "exponential"
          and mu2 == [1] + [0] * 8 and est2.verdict == "poly(0)")
    return ok, (f"mu(R1)={mu1} -> {est1.verdict}; mu(R2)={mu2} -> {est2.verdict}")


def criterion_9_ext_oracle_equivalence():
    """Resolution-dual Ext dims equal homology of the generically dualized complex."""
    plans = [("R1", 4), ("R2", 4), ("R3", 4), ("R4", 2)]
    compared = 0
    failures = []
    for ring_id, bound in plans:
        alg = catalog_ring(ring_id, 5)
        mods = [("k", simple_module(alg)), ("ring", free_module(alg, 1))]
        mods += [(n, m) for n, m in sample_modules(alg, count=4, max_dim=6, seed=909)
                 if n not in ("k", "ring")]
        for name, mod in mods:
            direct = ext_dims(mod, ring_module(alg), bound).dims
            via_dual = tuple(ext_dims_via_dual_complex(mod, bound))
            compared += 1
            if direct != via_dual:
                failures.append((ring_id, name, direct, via_dual))
    ok = compared >= 12 and not failures
    return ok, f"{compared} module/bound pairs compared, {len(failures)} mismatches"


CRITERIA = [
    ("1 paper-example reduction witness", criterion_1_paper_example, 5.0),
    ("2 exhaustive negative certificate", criterion_2_negative_certificate, 60.0),
    ("3 Betti exactness", criterion_3_betti, 5.0),
    ("4 complexity equalities (CI case)", criterion_4_complexity_equalities, 30.0),
    ("5 window sequence round-trip", criterion_5_window_roundtrip, 60.0),
    ("6 transpose duality", criterion_6_transpose_duality, 30.0),
    ("7 Gorenstein suite", criterion_7_gorenstein_suite, 30.0),
    ("8 Bass numbers / plexity", criterion_8_bass_plexity, 10.0),
    ("9 Ext oracle equivalence", criterion_9_ext_oracle_equivalence, 20.0),
]


def run_criterion(name: str, fn, limit: float) -> CriterionResult:
    start = time.time()
    try:
        ok, detail = fn()
    except Exception as err:  # a crash is a failure, not an abort
        elapsed = time.time() - start
        return CriterionResult(name, False, elapsed, limit,
                               f"exception: {type(err).__name__}: {err}")
    elapsed = time.time() - start
    if elapsed > limit:
        ok = False
        detail += f" [exceeded time limit {limit}s]"
    return CriterionResult(name, ok, elapsed, limit, detail)


def run_all(verbose_stream=None) -> list[CriterionResult]:
    outcomes = []
    for name, fn, limit in CRITERIA:
        outcome = run_criterion(name, fn, limit)
        outcomes.append(outcome)
        if verbose_stream is not None:
            status = "PASS" if outcome.ok else "FAIL"
            print(f"{status} criterion {outcome.name}: {outcome.detail} "
                  f"({outcome.seconds:.2f}s / limit {outcome.limit:.0f}s)",
                  file=verbose_stream)
    return outcomes
