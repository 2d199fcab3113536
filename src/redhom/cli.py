"""Command-line surface: catalog, computations, searches and JSON reports.

Every invocation prints one JSON report to stdout (machine-readable,
reproducible: the report echoes the command, the seed and all limits)
and a short human summary to stderr.  Exit codes: 0 success, 2 invalid
input (unknown ring or module, malformed spec, refused precondition),
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import __version__, gf
from .algebra import AlgebraError, RingSpec, build_ring, json_ints, socle_and_classify
from .catalog import catalog_listing, load_ring, module_from_spec
from .complexes import (
    FreeComplex,
    ModuleComplex,
    check_exactness,
    ext_dims,
    minimal_free_resolution,
    ring_module,
)
from .modules import (
    LambdaMatrix,
    ModuleError,
    ModuleMap,
    ModuleRep,
)
from .reducing import (
    SearchLimits,
    bass_growth,
    betti_growth,
    ext_length_growth,
    search_reducing,
    upper_reduction_vs_complexity,
    upper_reduction_vs_gorenstein_complexity,
    verify_witness,
)
from .torsionfree import (
    TorsionfreeError,
    build_window_sequence,
    gdim_report,
    torsionfree_classify,
    verify_window_sequence,
)


class InputError(ValueError):
    """User-level problem: maps to exit code 2."""


_LIMIT_DEFAULTS = asdict(SearchLimits())


def _limits_from_args(args) -> SearchLimits:
    """Effective limits: built-in defaults, then config file, then flags."""
    values = dict(_LIMIT_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError) as err:
            raise InputError(f"cannot read limits config: {err}") from err
        if not isinstance(config, dict):
            raise InputError("limits config must be a JSON object")
        unknown = set(config) - set(values)
        if unknown:
            raise InputError(f"unknown limit keys in config: {sorted(unknown)}")
        not_int = sorted(k for k, v in config.items() if type(v) is not int)
        if not_int:
            raise InputError(f"limits must be integers: {not_int}")
        values.update(config)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    negative = sorted(k for k, v in values.items() if v < 0)
    if negative:
        raise InputError(f"limits must not be negative: {negative}")
    too_small = [k for k in ("ab_max", "cap", "tr_bound") if values[k] < 1]
    if too_small:
        raise InputError(f"limits must be at least 1: {too_small}")
    # kept on args so the report echoes the limits the handler used
    args.search_limits = SearchLimits(**values)
    return args.search_limits


def _check_at_least(args, flag: str, minimum: int) -> None:
    """Refuse a numeric flag below its smallest meaningful value (exit 2)."""
    value = getattr(args, flag)
    if value is not None and value < minimum:
        raise InputError(f"--{flag} must be at least {minimum}, got {value}")


def _load_ring(args):
    try:
        return load_ring(args.ring, getattr(args, "p", 5))
    except (AlgebraError, FileNotFoundError, json.JSONDecodeError, ValueError) as err:
        raise InputError(f"cannot load ring {args.ring!r}: {err}") from err


def _load_module(algebra, spec):
    try:
        return module_from_spec(algebra, spec)
    except (ModuleError, AlgebraError, ValueError) as err:
        raise InputError(f"cannot load module {spec!r}: {err}") from err


# -- subcommand implementations ---------------------------------------------

def cmd_ring(args):
    if args.action == "list":
        return {"catalog": catalog_listing()}, ["catalog rings: " + ", ".join(
            e["id"] for e in catalog_listing())], None
    if args.action == "show":
        alg = _load_ring(args)
        payload = alg.full_jsonable()
        payload["classification"] = socle_and_classify(alg)
        payload["radical_power_dims"] = alg.radical_power_dims()
        return {"ring": payload}, [
            f"{args.ring}: dim {alg.dim}, socle dim {alg.socle_dim}, "
            f"gorenstein={alg.is_gorenstein}"], alg
    if args.action == "validate":
        try:
            with open(args.ring, "r", encoding="utf-8") as fh:
                spec = RingSpec.from_dict(json.load(fh))
            alg = build_ring(spec)
        except FileNotFoundError as err:
            raise InputError(str(err)) from err
        except (AlgebraError, json.JSONDecodeError, ValueError) as err:
            witness = getattr(err, "witness", None)
            raise InputError(
                f"invalid ring spec: {err}"
                + (f" (witness: {witness})" if witness is not None else "")) from err
        return {"valid": True, "ring": alg.to_jsonable()}, [
            f"{args.ring}: valid ({alg.dim}-dimensional)"], alg
    raise InputError(f"unknown ring action {args.action!r}")


def cmd_resolve(args):
    _check_at_least(args, "steps", 0)
    alg = _load_ring(args)
    mod = _load_module(alg, args.module)
    comp, betti = minimal_free_resolution(mod, args.steps)
    defects = check_exactness(comp, range(1, args.steps))
    results = {"module_dim": mod.dim, "betti": betti,
               "complex": comp.to_jsonable(),
               "interior_defects": {str(k): v for k, v in defects.items()}}
    return results, [f"betti numbers: {betti}"], alg


def cmd_ext(args):
    _check_at_least(args, "bound", 0)
    alg = _load_ring(args)
    mod = _load_module(alg, args.module)
    if args.target in (None, "ring", "lambda"):
        target = ring_module(alg)
    else:
        target = _load_module(alg, args.target)
    table = ext_dims(mod, target, args.bound)
    results = {"source_dim": mod.dim, "target_dim": target.dim,
               "ext": table.to_jsonable()}
    return results, [f"ext dims 0..{args.bound}: {list(table.dims)}"], alg


def cmd_classify(args):
    _check_at_least(args, "bound", 1)
    alg = _load_ring(args)
    mod = _load_module(alg, args.module)
    verdict = torsionfree_classify(mod, args.bound)
    gdim = gdim_report(mod, max(args.bound, 2))
    results = {"torsionfree": verdict.to_jsonable(), "gdim": gdim.to_jsonable()}
    lines = [f"m_max={verdict.m_max} n_max={verdict.n_max} (bound {args.bound}); "
             f"{gdim.verdict}"]
    return results, lines, alg


def cmd_seq(args):
    _check_at_least(args, "m", 0)
    _check_at_least(args, "n", 0)
    alg = _load_ring(args)
    if args.action == "build":
        if args.m is None or args.n is None:
            raise InputError("seq build needs --m and --n")
        mod = _load_module(alg, args.module)
        try:
            build = build_window_sequence(mod, args.m, args.n)
        except TorsionfreeError as err:
            raise InputError(f"refused: {err}") from err
        results = {"build": build.to_jsonable()}
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"ring": alg.spec.to_dict() if alg.spec else None,
                           "m": args.m, "n": args.n,
                           "sequence": build.complex.to_jsonable()}, fh, indent=2)
        ranks = [build.complex.ranks[i]
                 for i in range(build.complex.hi, build.complex.lo - 1, -1)]
        return results, [f"window built, ranks {ranks}"], alg
    if args.action == "verify":
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError) as err:
            raise InputError(f"cannot read sequence file: {err}") from err
        if not isinstance(doc, dict) or not isinstance(doc.get("sequence", doc), dict):
            raise InputError("sequence file must hold a JSON object")
        comp = _sequence_from_doc(alg, doc.get("sequence", doc))
        m = args.m if args.m is not None else doc.get("m")
        n = args.n if args.n is not None else doc.get("n")
        if m is None or n is None:
            raise InputError("sequence degrees m, n missing (flags or file)")
        try:
            m, n = json_ints([m, n], "sequence degrees")
        except ValueError as err:
            raise InputError(str(err)) from err
        if m < 0 or n < 0:
            raise InputError(f"sequence degrees must be nonnegative, got m={m}, n={n}")
        if (comp.lo, comp.hi) != (-n, m + 1):
            raise InputError(f"sequence spans [{comp.lo}, {comp.hi}], expected "
                             f"[{-n}, {m + 1}] for m={m}, n={n}")
        verdict = verify_window_sequence(comp, m, n,
                                         "(3)" if args.mode == "3" else "(4)")
        results = {"verify": verdict.to_jsonable()}
        return results, [f"verdict: {'ok' if verdict.ok else 'FAILED'} "
                         f"{'; '.join(verdict.reasons)}"], alg
    raise InputError(f"unknown seq action {args.action!r}")


def _sequence_from_doc(alg, doc) -> ModuleComplex | FreeComplex:
    kind = doc.get("kind")
    if kind not in ("free", "modules"):
        raise InputError(f"unknown sequence kind {kind!r}")
    try:
        if kind == "free":
            ranks = {int(i): json_ints(r, "ranks") for i, r in doc["ranks"].items()}
            diffs = {int(i): LambdaMatrix(alg, json_ints(e, "differential entries"))
                     for i, e in doc["differentials"].items()}
            return FreeComplex(alg, ranks, diffs)
        mods = {int(i): ModuleRep(alg, json_ints(m.get("actions", []), "module actions"),
                                  dim=m.get("dim"), validate=True)
                for i, m in doc["modules"].items()}
        maps = {}
        for i, mat in doc["maps"].items():
            i = int(i)
            maps[i] = ModuleMap(mods[i], mods[i - 1], json_ints(mat, "map entries"))
        return ModuleComplex(mods, maps, check=True)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad {kind} sequence: {err}") from err


def cmd_reduce(args):
    alg = _load_ring(args)
    mod = _load_module(alg, args.module)
    limits = _limits_from_args(args)
    result = search_reducing(mod, args.mode, args.target, limits)
    if result.found and not verify_witness(mod, result):
        raise AssertionError("emitted witness failed re-verification")
    results = {"search": result.to_jsonable(),
               "witness_reverified": bool(result.found)}
    if result.found:
        line = (f"{args.mode}-{args.target} witness of depth "
                f"{result.witness.depth} "
                f"({'exhaustive' if result.exhaustive else 'sampled'})")
    else:
        line = (f"no witness within {limits.max_steps} steps "
                f"(exhaustive={result.exhaustive}); tested {result.tested}, "
                f"pruned {result.pruned}")
    return results, [line], alg


def cmd_growth(args):
    _check_at_least(args, "bound", 0)
    _check_at_least(args, "window", 2)
    alg = _load_ring(args)
    mod = _load_module(alg, args.module)
    if args.kind == "betti":
        est = betti_growth(mod, args.bound, window=args.window)
    elif args.kind == "bass":
        est = bass_growth(mod, args.bound, window=args.window)
    elif args.kind == "ext":
        est = ext_length_growth(mod, args.bound, window=args.window)
    else:
        raise InputError(f"unknown growth kind {args.kind!r}")
    return ({"growth": est.to_jsonable()},
            [f"{args.kind} growth: {est.verdict} (values {list(est.values)})"], alg)


def cmd_check(args):
    _check_at_least(args, "bound", 1 if args.what == "thm3" else 0)
    alg = _load_ring(args)
    mod = _load_module(alg, args.module)
    if args.max_steps is None and not getattr(args, "config", None):
        args.max_steps = 2
    limits = _limits_from_args(args)
    if args.what == "thm4":
        report = upper_reduction_vs_complexity(mod, limits, bound=args.bound)
        line = (f"complexity vs upper reduction (pd): "
                f"consistent={report['consistent']}")
    elif args.what == "prop7":
        report = upper_reduction_vs_gorenstein_complexity(
            mod, limits, bound=min(args.bound, 8), bass_bound=min(args.bound, 8))
        line = (f"gorenstein complexity vs upper reduction (gdim): "
                f"consistent={report['consistent']}")
    elif args.what == "cor20":
        rep = gdim_report(mod, max(args.bound, 2))
        report = {"gdim": rep.to_jsonable(),
                  "sup_formula_instance": {
                      "totally_reflexive": rep.totally_reflexive,
                      "sup_positive": rep.sup_positive,
                      "holds": not rep.totally_reflexive or rep.sup_positive == 0}}
        line = f"gdim sup-formula instance: {rep.verdict}"
    elif args.what == "thm3":
        cls = torsionfree_classify(mod, args.bound)
        roundtrip = []
        ok = True
        for m in range(0, min(args.bound, 3) + 1):
            for n in range(0, min(args.bound, 3) + 1):
                if not cls.member(m, n):
                    continue
                build = build_window_sequence(mod, m, n)
                verdict = verify_window_sequence(build.complex, m, n, "(4)")
                roundtrip.append({"m": m, "n": n, "ok": verdict.ok})
                ok = ok and verdict.ok
        report = {"classification": cls.to_jsonable(), "roundtrip": roundtrip,
                  "all_ok": ok}
        line = f"window round-trip over certified (m,n): all_ok={ok}"
    else:
        raise InputError(f"unknown check {args.what!r}")
    return {"check": args.what, "report": report}, [line], alg


def cmd_suite(args):
    if args.what != "acceptance":
        raise InputError(f"unknown suite {args.what!r}")
    from .acceptance import run_all
    outcomes = run_all(verbose_stream=sys.stderr)
    results = {"criteria": [o.to_jsonable() for o in outcomes],
               "passed": all(o.ok for o in outcomes)}
    lines = [f"{'PASS' if o.ok else 'FAIL'} {o.name} ({o.seconds:.2f}s)"
             for o in outcomes]
    lines.append("acceptance: " +
                 ("all criteria passed" if results["passed"] else "FAILURES"))
    return results, lines, None


# -- parser -------------------------------------------------------------------

def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    """The search-limit flags (one per SearchLimits field but seed) and --config."""
    for flag in ("max-steps", "n-max", "ab-max", "cap", "tr-bound", "samples"):
        parser.add_argument(f"--{flag}", type=int, default=None)
    parser.add_argument("--config", help="JSON file with default search limits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redhom",
        description="Exact homological algebra over finite-dimensional "
                    "local GF(p)-algebras")
    parser.add_argument("--p", type=int, default=5,
                        help="field size for catalog rings (2 or 5)")
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="catalog listing, inspection, validation")
    ring.add_argument("action", choices=["list", "show", "validate"])
    ring.add_argument("ring", nargs="?", default="R1",
                      help="catalog id or RingSpec JSON path")

    resolve = sub.add_parser("resolve", help="minimal free resolution and Betti numbers")
    resolve.add_argument("--ring", required=True)
    resolve.add_argument("--module", required=True)
    resolve.add_argument("--steps", type=int, default=6)

    ext = sub.add_parser("ext", help="Ext dimensions against the ring or a module")
    ext.add_argument("--ring", required=True)
    ext.add_argument("--module", required=True)
    ext.add_argument("--target", default=None)
    ext.add_argument("--bound", type=int, default=6)

    classify = sub.add_parser("classify", help="torsionfree classification and gdim")
    classify.add_argument("--ring", required=True)
    classify.add_argument("--module", required=True)
    classify.add_argument("--bound", type=int, default=4)

    seq = sub.add_parser("seq", help="build/verify bi-exact window sequences")
    seq.add_argument("action", choices=["build", "verify"])
    seq.add_argument("--ring", required=True)
    seq.add_argument("--module", help="module spec (build)")
    seq.add_argument("--file", help="sequence JSON file (verify)")
    seq.add_argument("--m", type=int, default=None)
    seq.add_argument("--n", type=int, default=None)
    seq.add_argument("--mode", choices=["3", "4"], default="4")
    seq.add_argument("--out", help="write the built sequence to this file")

    reduce_p = sub.add_parser("reduce", help="search reducing/upper-reducing witnesses")
    reduce_p.add_argument("--ring", required=True)
    reduce_p.add_argument("--module", required=True)
    reduce_p.add_argument("--mode", choices=["red", "ured"], required=True)
    reduce_p.add_argument("--target", choices=["pd", "gdim"], required=True)
    _add_limit_flags(reduce_p)

    growth = sub.add_parser("growth", help="growth estimates (cx/px/gcx style)")
    growth.add_argument("--ring", required=True)
    growth.add_argument("--module", required=True)
    growth.add_argument("--kind", choices=["betti", "bass", "ext"], required=True)
    growth.add_argument("--bound", type=int, default=12)
    growth.add_argument("--window", type=int, default=6)

    check = sub.add_parser("check", help="bundled cross-checks")
    check.add_argument("what", choices=["thm4", "prop7", "cor20", "thm3"])
    check.add_argument("--ring", required=True)
    check.add_argument("--module", required=True)
    check.add_argument("--bound", type=int, default=12)
    _add_limit_flags(check)

    suite = sub.add_parser("suite", help="bundled suites")
    suite.add_argument("what", choices=["acceptance"])
    return parser


_HANDLERS = {
    "ring": cmd_ring,
    "resolve": cmd_resolve,
    "ext": cmd_ext,
    "classify": cmd_classify,
    "seq": cmd_seq,
    "reduce": cmd_reduce,
    "growth": cmd_growth,
    "check": cmd_check,
    "suite": cmd_suite,
}


def cli_run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    report = {
        "tool": {"name": "redhom", "version": __version__},
        "command": list(argv),
        "seed": getattr(args, "seed", None) if getattr(args, "seed", None) is not None else 0,
    }
    try:
        results, lines, alg = _HANDLERS[args.command](args)
    except (InputError, gf.LinearFormBudgetError) as err:
        report["error"] = str(err)
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (AssertionError, ModuleError, AlgebraError) as err:
        report["error"] = f"internal invariant failure: {err}"
        report["diagnostic"] = {"type": type(err).__name__,
                                "witness": getattr(err, "witness", None)}
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    if alg is not None and alg.spec is not None:
        report["ring"] = alg.spec.to_dict()
    limit_keys = ("steps", "bound", "window", "m", "n", "mode", "target",
                  "max_steps", "n_max", "ab_max", "cap", "tr_bound", "samples")
    limits = {k: getattr(args, k) for k in limit_keys
              if getattr(args, k, None) is not None}
    if hasattr(args, "search_limits"):
        limits.update(args.search_limits.to_jsonable())
    report["limits"] = limits
    report["results"] = results
    report["timing"] = {"seconds": round(time.time() - started, 6)}
    print(json.dumps(report, indent=2, sort_keys=True))
    for line in lines:
        print(line, file=sys.stderr)
    ok = results.get("passed", True)
    if args.command == "suite" and not ok:
        return 3
    return 0


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
