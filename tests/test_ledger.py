"""The verdict ledger: checked-in digests of outputs that must not move.

Each entry of ledger.json is the SHA-256 of the canonical JSON (sorted
keys, compact separators, a CLI report's "timing" removed) of one group
of outputs: one CLI report, or for one catalog ring the covers, splits,
pushforwards, windows or isomorphism verdicts of its sample modules,
maps as nested lists.  Every value is an exact integer or a string, so
a digest depends on the outputs alone.

An output that changes on purpose changes its entry.  Regenerate with

    PYTHONPATH=src python tests/test_ledger.py --write

and name the moved entries, and why they moved, in CHANGES.md.
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from redhom import catalog, cli
from redhom.modules import is_isomorphic, projective_cover_and_syzygy, split_free_summands
from redhom.torsionfree import (
    TorsionfreeError,
    build_window_sequence,
    pushforward,
    verify_window_sequence,
)

from module_helpers import split_target

LEDGER = Path(__file__).with_name("ledger.json")

CLI_REPORTS = {
    "resolve k R1q5": ["resolve", "--ring", "R1q5", "--module", "k", "--steps", "5"],
    "ext k k R2q5": ["ext", "--ring", "R2q5", "--module", "k", "--target", "k",
                     "--bound", "4"],
    "classify transpose:k R1q2": ["classify", "--ring", "R1q2", "--module", "transpose:k",
                                  "--bound", "3"],
    "seq build k R3q5 m=1 n=0": ["seq", "build", "--ring", "R3q5", "--module", "k",
                                 "--m", "1", "--n", "0"],
    "seq build k R2q5 m=1 n=2": ["seq", "build", "--ring", "R2q5", "--module", "k",
                                 "--m", "1", "--n", "2"],
    "reduce red pd k R1q5": ["reduce", "--ring", "R1q5", "--module", "k", "--mode", "red",
                             "--target", "pd", "--max-steps", "2", "--n-max", "1",
                             "--ab-max", "2"],
    "reduce ured gdim k R3q2": ["reduce", "--ring", "R3q2", "--module", "k", "--mode",
                                "ured", "--target", "gdim"],
    "check thm3 k R2q5": ["check", "thm3", "--ring", "R2q5", "--module", "k", "--bound", "2"],
    "check thm4 k R2q5": ["check", "thm4", "--ring", "R2q5", "--module", "k", "--bound", "4"],
    "check cor20 k R1q2": ["check", "cor20", "--ring", "R1q2", "--module", "k", "--bound", "4"],
    "check prop7 k R2q5": ["check", "prop7", "--ring", "R2q5", "--module", "k", "--bound", "4"],
    "growth betti k R4q5": ["growth", "--ring", "R4q5", "--module", "k", "--kind", "betti",
                            "--bound", "5", "--window", "3"],
}

# (ring, max_dim, count) of the tables benchmark's window samples, at both fields
SAMPLE_RINGS = [(f"{rid}q{q}", max_dim, count) for q in (2, 5)
                for rid, max_dim, count in (("R1", 5, 5), ("R2", 12, 6), ("R3", 8, 5),
                                            ("R4", 4, 5))]
SAMPLE_SEED = 20240
WINDOW_BOUND = 2


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cli_report(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.cli_run(argv)
    report = json.loads(out.getvalue())
    report.pop("timing", None)
    return {"exit": code, "report": report}


def samples(ring_id: str, max_dim: int, count: int):
    alg = catalog.load_ring(ring_id)
    return catalog.sample_modules(alg, count=count, max_dim=max_dim, seed=SAMPLE_SEED)


def covers(mods):
    out = []
    for name, mod in mods:
        data = projective_cover_and_syzygy(mod)
        out.append([name, data.cover.tolist(), data.inclusion.tolist(), list(data.pivots),
                    data.syzygy.to_jsonable(), data.free.free_rank])
    return out


def splits(mods):
    out = []
    for name, mod in mods:
        split = split_free_summands(mod)
        out.append([name, split.core.to_jsonable(), split.free_rank, split.iso.tolist(),
                    split_target(split).to_jsonable()])
    return out


def pushforwards(mods):
    out = []
    for name, mod in mods:
        for n in range(1, WINDOW_BOUND + 1):
            pf = pushforward(mod, n)
            out.append([name, n, pf.to_jsonable(), pf.complex.to_jsonable(),
                        {str(i): d.to_jsonable() for i, d in pf.tail.items()}])
    return out


def windows(mods):
    out = []
    for name, mod in mods:
        for m in range(WINDOW_BOUND + 1):
            for n in range(WINDOW_BOUND + 1):
                try:
                    build = build_window_sequence(mod, m, n)
                except TorsionfreeError as err:
                    out.append([name, m, n, "refused", err.side, err.index, str(err)])
                    continue
                verdicts = [verify_window_sequence(build.complex, m, n, mode).to_jsonable()
                            for mode in ("(3)", "(4)")]
                out.append([name, m, n, build.to_jsonable(), build.image_module.to_jsonable(),
                            build.image_witness.tolist(), verdicts])
    return out


def isomorphisms(mods):
    """Every pair of samples, and each sample against its split form."""
    pairs = [(a, b) for i, a in enumerate(mods) for b in mods[i:]]
    pairs += [((name, mod), ("split", split_target(split_free_summands(mod))))
              for name, mod in mods]
    out = []
    for (na, a), (nb, b) in pairs:
        verdict = is_isomorphic(a, b)
        out.append([na, nb, verdict.kind, verdict.certificate, verdict.method,
                    None if verdict.witness is None else verdict.witness.tolist()])
    return out


SAMPLE_KINDS = {"covers": covers, "splits": splits, "pushforwards": pushforwards,
                "windows": windows, "isomorphisms": isomorphisms}


def entries() -> dict:
    """Entry name -> a function computing its outputs."""
    out = {f"cli {name}": functools.partial(cli_report, argv)
           for name, argv in CLI_REPORTS.items()}
    for ring_id, max_dim, count in SAMPLE_RINGS:
        for kind, compute in SAMPLE_KINDS.items():
            out[f"{ring_id} {kind}"] = (
                lambda compute=compute, key=(ring_id, max_dim, count): compute(samples(*key)))
    return out


ENTRIES = entries()


def recorded() -> dict:
    return json.loads(LEDGER.read_text())


def test_ledger_names_every_entry():
    assert sorted(recorded()) == sorted(ENTRIES)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_output_matches_ledger(name):
    assert digest(ENTRIES[name]()) == recorded()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ledger.py --write")
    LEDGER.write_text(json.dumps({name: digest(compute()) for name, compute in ENTRIES.items()},
                                 indent=1, sort_keys=True) + "\n")
