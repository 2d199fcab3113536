"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is exact; the stated per-criterion wall-clock limits are
enforced.  Run with `pytest tests/test_acceptance.py -v -s` to see the
pass/fail lines, or `redhom suite acceptance` for the CLI equivalent.
"""

import pytest

from redhom.acceptance import CRITERIA, _gorenstein_samples, run_criterion
from redhom.catalog import catalog_ring
from redhom.modules import is_isomorphic, simple_module


@pytest.mark.parametrize("name,fn,limit", CRITERIA,
                         ids=[name.replace(" ", "-") for name, _, _ in CRITERIA])
def test_acceptance_criterion(name, fn, limit, capsys):
    outcome = run_criterion(name, fn, limit)
    line = (f"{'PASS' if outcome.ok else 'FAIL'} criterion {outcome.name}: "
            f"{outcome.detail} ({outcome.seconds:.2f}s / limit {limit:.0f}s)")
    with capsys.disabled():
        print(line)
    assert outcome.ok, line


def test_gorenstein_samples_over_a_field():
    # the field R5 has no generator, so no ring/(x); over R2 = k[x]/(x^2)
    # ring/(x) is k
    assert [name for name, _ in _gorenstein_samples(catalog_ring("R5", 2))] == \
        ["k", "ring", "ring/socle"]
    r2 = dict(_gorenstein_samples(catalog_ring("R2", 5)))
    assert is_isomorphic(r2["ring/(x)"], simple_module(catalog_ring("R2", 5))).kind == "yes"
