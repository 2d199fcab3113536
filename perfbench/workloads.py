"""The three closed-loop workloads: their inputs, jobs and verdict checks.

A workload's ``setup(seed)`` builds its rings and generates its inputs
from the seed, then returns the fixed job list of one pass.  A job is
one (module, task) pair: a callable returning ``(ok, detail)``, where
``ok`` says whether its verdict passed a check that holds for every
seed.  Jobs reach ``redhom`` through module attributes at call time, so
the tracing wrappers installed after setup see every call.

Seed s maps to the acceptance sample seeds shifted by s, so s = 0 is
the acceptance battery's own inputs and any other s is a held-out set.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from redhom import catalog, cli, complexes, modules, reducing, torsionfree

ACCEPTANCE_SEEDS = {"windows": 20240, "transpose": 606, "oracle": 909}


def sample_seed(kind: str, seed: int) -> int:
    return ACCEPTANCE_SEEDS[kind] + seed


def _limits(seed: int, **kw) -> reducing.SearchLimits:
    return reducing.SearchLimits(seed=seed, **kw)


# -- certify ---------------------------------------------------------------

def _negative_certificate(mod, mode, limits):
    def job():
        res = reducing.search_reducing(mod, mode, "pd", limits)
        return (not res.found) and res.exhaustive, \
            f"found={res.found} exhaustive={res.exhaustive} tested={res.tested}"
    return job


def setup_certify(seed: int):
    """Exhaustive single-level pd scans that must end without a witness.

    Every scan takes the last-level path of criterion 2: one rank test
    per extension class, no middle module built.  Criterion 2 itself
    (65,552 classes, 35-45 s on a 2-vCPU VM) is one job too long to repeat within a
    run, so the largest scan here is red-pd of k over R3q2 (4,360
    classes).
    """
    r1q2 = catalog.catalog_ring("R1q2")
    k3 = modules.simple_module(catalog.catalog_ring("R3q2"))
    k5 = modules.simple_module(catalog.catalog_ring("R1q5"))
    tk2 = catalog.module_from_spec(r1q2, "transpose:k")
    return [
        ("red-pd k R3q2 n<=1 ab<=2", _negative_certificate(
            k3, "red", _limits(seed, max_steps=1, n_max=1, ab_max=2, cap=200_000))),
        ("ured-pd k R1q5 n<=2", _negative_certificate(
            k5, "ured", _limits(seed, max_steps=1, n_max=2, cap=200_000))),
        ("ured-pd transpose:k R1q2 n<=1", _negative_certificate(
            tk2, "ured", _limits(seed, max_steps=1, n_max=1, cap=200_000))),
    ]


# -- search ----------------------------------------------------------------

def _shapes(witness) -> list[tuple[int, int, int]]:
    return [(s.n, s.a, s.b) for s in witness.steps]


def _witness_search(mod, mode, target, limits, depth, shapes):
    """A search whose witness must have the reference depth and (n, a, b) shapes.

    The witness is re-derived with verify_witness, as the CLI does
    before it emits one.  ``depth is None`` expects no witness.
    """
    def job():
        res = reducing.search_reducing(mod, mode, target, limits)
        if depth is None:
            return not res.found, f"found={res.found} tested={res.tested}"
        if not res.found:
            return False, f"no witness, tested={res.tested}"
        got = _shapes(res.witness)
        ok = (res.witness.depth == depth and got == shapes
              and reducing.verify_witness(mod, res))
        return ok, f"depth={res.witness.depth} shapes={got} tested={res.tested}"
    return job


def _cli_paper_example(seed: int):
    """Criterion 1 through the CLI: limit parsing, re-verification, JSON report."""
    argv = ["--seed", str(seed), "reduce", "--mode", "red", "--target", "pd",
            "--ring", "R1q5", "--module", "k", "--max-steps", "2",
            "--n-max", "1", "--ab-max", "2", "--cap", "200000"]

    def job():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_run(argv)
        if code != 0:
            return False, f"exit {code}: {err.getvalue().strip()}"
        report = json.loads(out.getvalue())
        search = report["results"]["search"]
        witness = search["witness"] or {}
        steps = [(s["n"], s["a"], s["b"]) for s in witness.get("steps", [])]
        ok = (search["found"] and witness["depth"] == 1 and steps == [(0, 2, 1)]
              and report["results"]["witness_reverified"])
        return ok, f"found={search['found']} steps={steps}"
    return job


def _gorenstein_samples(alg):
    """Criterion 7's samples: k, the ring, ring/socle and ring/(x)."""
    k = modules.simple_module(alg)
    yield "k", k
    yield "ring", modules.free_module(alg, 1)
    for name, pos in (("ring/socle", alg.dim - 1), ("ring/(x)", 1)):
        vec = np.zeros((1, 1, alg.dim), dtype=np.int64)
        vec[0, 0, pos] = 1
        mod = modules.cokernel_of_lambda_matrix(modules.LambdaMatrix(alg, vec))[0]
        if mod.dim:
            yield name, mod


def gorenstein_rings():
    return [catalog.catalog_ring(r, q) for r in ("R2", "R3", "R4") for q in (2, 5)]


def setup_search(seed: int):
    """Multi-level breadth-first searches, stopping at the first witness.

    The R3q2 searches run at n <= 0: at n <= 1 they take 8 s and 2 s on a 2-vCPU VM,
    too long to repeat within a run.  red-pd still builds 1,143 middles.
    """
    k = {rid: modules.simple_module(catalog.catalog_ring(rid))
         for rid in ("R1q5", "R3q2", "R2q5", "R3q5")}
    jobs = [
        ("cli red-pd k R1q5", _cli_paper_example(seed)),
        ("red-pd k R3q2 steps<=2 n<=0", _witness_search(
            k["R3q2"], "red", "pd", _limits(seed, max_steps=2, n_max=0, ab_max=2),
            2, [(0, 1, 1), (0, 1, 1)])),
        ("ured-pd k R3q2 steps<=2 n<=0", _witness_search(
            k["R3q2"], "ured", "pd", _limits(seed, max_steps=2, n_max=0),
            2, [(0, 1, 1), (0, 1, 1)])),
        ("ured-pd k R2q5", _witness_search(
            k["R2q5"], "ured", "pd", _limits(seed, max_steps=1, n_max=1),
            1, [(0, 1, 1)])),
        ("ured-pd k R3q5", _witness_search(
            k["R3q5"], "ured", "pd", _limits(seed, max_steps=2, n_max=3, cap=200_000),
            2, [(0, 1, 1), (0, 1, 1)])),
    ]
    for alg in gorenstein_rings():
        for name, mod in _gorenstein_samples(alg):
            for mode in ("red", "ured"):
                jobs.append((f"{mode}-gdim {name} {alg.spec.name}", _witness_search(
                    mod, mode, "gdim", _limits(seed, tr_bound=3), 0, [])))
    # k over R1 has infinite upper reducing pd and G-dimension (exponential
    # Betti and Bass growth), so no witness may ever be reported here.
    for target in ("pd", "gdim"):
        jobs.append((f"ured-{target} k R1q5 steps<=2", _witness_search(
            k["R1q5"], "ured", target, _limits(seed, max_steps=2, n_max=0),
            None, None)))
    return jobs


# -- tables ----------------------------------------------------------------

def _series(rec, n):
    """First n coefficients of 1 / (1 - rec[0] t - rec[1] t^2 - ...)."""
    out = [1]
    for i in range(1, n):
        out.append(sum(c * out[i - 1 - j] for j, c in enumerate(rec) if i - 1 - j >= 0))
    return out


# Poincare series of k: over R1 (m^2 = 0, embedding dimension 2) it is
# 1 / (1 - 2t); over the short Gorenstein ring R4 (embedding dimension 3)
# it is 1 / (1 - 3t + t^2).
BETTI_K = {"R1q5": _series([2], 11), "R4q5": _series([3, -1], 7)}
# The Bass series of R1 is (2 - t) / (1 - 2t): mu^0 = 2 (the socle) and
# mu^i = 3 * 2^(i-1) for i >= 1.
BASS_R1 = [2] + [3 * 2 ** (i - 1) for i in range(1, 9)]
BASS_R2 = [1] + [0] * 8


def _resolve_job(mod, steps, want):
    def job():
        _, betti = complexes.minimal_free_resolution(mod, steps)
        return betti == want, f"betti={betti}"
    return job


def _oracle_job(mod, bound):
    def job():
        alg = mod.algebra
        direct = complexes.ext_dims(mod, complexes.ring_module(alg), bound).dims
        via_dual = tuple(complexes.ext_dims_via_dual_complex(mod, bound))
        return direct == via_dual, f"direct={direct} dual={via_dual}"
    return job


WINDOW_BOUND = 2


def _window_jobs(label, mod):
    """One classify job, then one build-verify job per (m, n) with m, n <= 2."""
    state = {}

    def classify():
        state["cls"] = torsionfree.torsionfree_classify(mod, WINDOW_BOUND)
        cls = state["cls"]
        return True, f"m_max={cls.m_max} n_max={cls.n_max}"

    def case(m, n):
        def job():
            cls = state.get("cls")
            if cls is None:
                return False, "classification missing"
            try:
                build = torsionfree.build_window_sequence(mod, m, n)
            except torsionfree.TorsionfreeError as err:
                return not cls.member(m, n), f"refused: {err}"
            if not cls.member(m, n):
                return False, "build not refused"
            verdict = torsionfree.verify_window_sequence(build.complex, m, n, "(4)")
            return verdict.ok, "; ".join(verdict.reasons)
        return job

    jobs = [(f"classify {label}", classify)]
    jobs += [(f"window {label} m={m} n={n}", case(m, n))
             for m in range(WINDOW_BOUND + 1) for n in range(WINDOW_BOUND + 1)]
    return jobs


def _gorenstein_job(mod):
    def job():
        dims = complexes.ext_dims(mod, complexes.ring_module(mod.algebra), 5).dims
        rep = torsionfree.gdim_report(mod, 3)
        ok = not any(dims[1:]) and rep.verdict.startswith("gdim = 0")
        return ok, f"ext={dims} {rep.verdict}"
    return job


def _counterexample_job(k):
    def job():
        dims = complexes.ext_dims(k, complexes.ring_module(k.algebra), 5).dims
        return all(d >= 1 for d in dims[1:]), f"ext={dims}"
    return job


def _bass_job(alg, want):
    def job():
        mu = complexes.bass_numbers(complexes.ring_module(alg), 8)
        return mu == want, f"mu={mu}"
    return job


def _duality_job(mod, cap=2_000_000):
    """split(tr tr M) is isomorphic to split(M), checked where Hom is enumerable."""
    def job():
        core = modules.split_free_summands(mod).core
        tt = modules.transpose_module(modules.transpose_module(mod))
        ttcore = modules.split_free_summands(tt).core
        hom_dim = modules.hom_space(ttcore, core).dim
        if mod.algebra.p ** hom_dim > cap:
            return True, f"hom dim {hom_dim} outside the exhaustive regime"
        verdict = modules.is_isomorphic(ttcore, core, exhaust_cap=cap)
        return verdict.kind == "yes", f"iso={verdict.kind}"
    return job


def setup_tables(seed: int):
    """Resolutions, Ext tables, windows and Bass numbers over seeded samples.

    Sized so that a pass takes a few seconds: the Ext oracle runs to
    bound 3 over R1 and 1 over R4 (bounds 4 and 2 take 3.2 s and 4.3 s
    for one syzygy module each on a 2-vCPU VM), Gorenstein Ext to 5 rather than 6
    (1.4 s for k), windows for m, n <= 2, and k over R4q5 is resolved
    to step 6 rather than 7.
    """
    jobs = []
    for rid, steps in (("R1q5", 10), ("R4q5", 6)):
        k = modules.simple_module(catalog.catalog_ring(rid))
        jobs.append((f"resolve k {rid} to {steps}", _resolve_job(k, steps, BETTI_K[rid])))

    for rid, bound in (("R1", 3), ("R2", 4), ("R3", 4), ("R4", 1)):
        alg = catalog.catalog_ring(rid, 5)
        mods = [("k", modules.simple_module(alg)), ("ring", modules.free_module(alg, 1))]
        mods += [(n, m) for n, m in catalog.sample_modules(
            alg, count=4, max_dim=6, seed=sample_seed("oracle", seed))
            if n not in ("k", "ring")]
        jobs += [(f"ext oracle {name} {rid}q5", _oracle_job(mod, bound))
                 for name, mod in mods]

    for rid, max_dim, count in (("R1", 5, 5), ("R2", 12, 6), ("R3", 8, 5), ("R4", 4, 5)):
        alg = catalog.catalog_ring(rid, 5)
        for name, mod in catalog.sample_modules(
                alg, count=count, max_dim=max_dim, seed=sample_seed("windows", seed)):
            jobs += _window_jobs(f"{name} {rid}q5", mod)

    for alg in gorenstein_rings():
        jobs += [(f"gorenstein {name} {alg.spec.name}", _gorenstein_job(mod))
                 for name, mod in _gorenstein_samples(alg)]
    r1q5 = catalog.catalog_ring("R1q5")
    jobs.append(("ext k R1q5 nonvanishing", _counterexample_job(modules.simple_module(r1q5))))

    jobs.append(("bass R1q5", _bass_job(r1q5, BASS_R1)))
    jobs.append(("bass R2q5", _bass_job(catalog.catalog_ring("R2q5"), BASS_R2)))

    for rid in ("R1", "R2", "R3", "R4", "R5"):
        alg = catalog.catalog_ring(rid, 2)
        jobs += [(f"transpose duality {name} {rid}q2", _duality_job(mod))
                 for name, mod in catalog.sample_modules(
                     alg, count=5, max_dim=8, seed=sample_seed("transpose", seed))]
    return jobs


WORKLOADS = {"certify": setup_certify, "search": setup_search, "tables": setup_tables}
