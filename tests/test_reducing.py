import pytest

from redhom import reducing, torsionfree
from redhom.acceptance import _gorenstein_samples
from redhom.algebra import RingSpec, build_monomial_quotient
from redhom.catalog import catalog_ring, module_from_spec
from redhom.modules import ModuleError, direct_sum, free_module, is_isomorphic, simple_module
from redhom.reducing import (
    Ext1Space,
    SearchLimits,
    growth_estimate,
    middle_term,
    pd_is_finite,
    search_reducing,
    syzygy_betti_inequality,
    upper_reduction_vs_complexity,
    upper_reduction_vs_gorenstein_complexity,
    verify_witness,
)
from redhom.torsionfree import is_totally_reflexive_up_to


def two_var_square_zero(p):
    return build_monomial_quotient(RingSpec(
        "monomial_quotient", p, variables=["x", "y"], ideal=["x^2", "xy", "y^2"]))


@pytest.fixture(scope="module")
def R1():
    return two_var_square_zero(5)


@pytest.fixture(scope="module")
def R1q2():
    return two_var_square_zero(2)


@pytest.fixture(scope="module")
def R2():
    return build_monomial_quotient(RingSpec(
        "monomial_quotient", 5, variables=["x"], ideal=["x^2"]))


@pytest.fixture(scope="module")
def R3():
    return build_monomial_quotient(RingSpec(
        "monomial_quotient", 5, variables=["x", "y"], ideal=["x^2", "y^2"]))


def test_ext1_projective_source_is_zero(R1):
    space = Ext1Space(free_module(R1, 1), simple_module(R1), 200_000)
    assert space.dim == 0
    elements = list(space.elements())
    assert len(elements) == 1 and elements[0].is_zero


def test_ext1_dims_match_first_betti(R1, R2):
    # Ext^1(k, k) has dimension beta_1(k) here (the restriction map is zero)
    assert Ext1Space(simple_module(R2), simple_module(R2), 200_000).dim == 1
    assert Ext1Space(simple_module(R1), simple_module(R1), 200_000).dim == 2


def test_middle_term_split(R1):
    k = simple_module(R1)
    space = Ext1Space(k, k, 200_000)
    zero = space.element((0, 0))
    middle, seq = middle_term(zero)
    assert middle.dim == 2
    assert is_isomorphic(middle, direct_sum([k, k])).kind == "yes"


def test_middle_term_generator_gives_ring(R2):
    k = simple_module(R2)
    space = Ext1Space(k, k, 200_000)
    middle, seq = middle_term(space.element((1,)))
    assert middle.dim == 2
    assert is_isomorphic(middle, free_module(R2, 1)).kind == "yes"
    assert pd_is_finite(middle)


def test_paper_extension_exists_over_R1(R1):
    # some class in Ext^1(k, k^2) has the ring as its middle term
    k = simple_module(R1)
    kk = direct_sum([k, k])
    space = Ext1Space(k, kk, 200_000)
    assert space.dim == 4
    hit = None
    for element in space.elements(scalar_orbits=True):
        middle, _ = middle_term(element)
        if pd_is_finite(middle):
            hit = (element, middle)
            break
    assert hit is not None
    assert is_isomorphic(hit[1], free_module(R1, 1)).kind == "yes"


def test_search_reproduces_paper_example(R1):
    # reducing projective dimension of k over GF(5)[x,y]/(x^2,xy,y^2) is 1,
    # realized by 0 -> k^2 -> Lambda -> k -> 0
    k = simple_module(R1)
    limits = SearchLimits(max_steps=2, n_max=1, ab_max=2, cap=200_000, seed=0)
    result = search_reducing(k, "red", "pd", limits)
    assert result.found
    assert result.witness.depth == 1
    step = result.witness.steps[0]
    assert (step.n, step.a, step.b) == (0, 2, 1)
    assert is_isomorphic(step.middle, free_module(R1, 1)).kind == "yes"
    assert verify_witness(k, result)


def test_search_ured_k_over_R2(R2):
    k = simple_module(R2)
    result = search_reducing(k, "ured", "pd",
                             SearchLimits(max_steps=1, n_max=1))
    assert result.found and result.witness.depth == 1
    step = result.witness.steps[0]
    assert (step.a, step.b) == (1, 1)
    assert is_isomorphic(step.middle, free_module(R2, 1)).kind == "yes"


def test_search_negative_exhaustive_gf2(R1q2):
    k = simple_module(R1q2)
    result = search_reducing(k, "ured", "pd",
                             SearchLimits(max_steps=1, n_max=1))
    assert not result.found
    assert result.exhaustive
    # both triples are excluded by the Tor-rank criterion: (0,1,1) by
    # dimension, (1,1,1) because delta would need rank 2 but has at most 1
    assert result.pruned == 2 and result.tested == 0


def test_search_expands_fingerprint_twins_that_are_not_isomorphic(R1):
    # several level-1 middles share a fingerprint without being isomorphic;
    # each must be expanded, so the negative result stays exhaustive
    k = simple_module(R1)
    result = search_reducing(k, "ured", "pd",
                             SearchLimits(max_steps=2, n_max=0))
    assert not result.found
    assert result.exhaustive


def _count_builds(monkeypatch):
    """Count middles built and frontier modules expanded by search_reducing."""
    counts = {"middles": 0, "expanded": -1}     # the start module is no frontier module
    build, fingerprint = reducing.middle_term, reducing._fingerprint

    def counted_build(element):
        counts["middles"] += 1
        return build(element)

    def counted_fingerprint(mod):
        counts["expanded"] += 1
        return fingerprint(mod)

    monkeypatch.setattr(reducing, "middle_term", counted_build)
    monkeypatch.setattr(reducing, "_fingerprint", counted_fingerprint)
    return counts


def test_pd_search_builds_only_expanded_middles(monkeypatch):
    # the level-1 classes of red-pd of k over R3q2 go onto the frontier
    # unbuilt: only the expanded ones and the witness get a middle
    k = simple_module(catalog_ring("R3", 2))
    counts = _count_builds(monkeypatch)
    result = search_reducing(k, "red", "pd",
                             SearchLimits(max_steps=2, n_max=0, ab_max=2))
    assert result.found and result.witness.depth == 2
    assert counts["middles"] <= counts["expanded"] + 1
    assert counts["middles"] == 3
    assert (result.tested, result.pruned, result.exhaustive) == (294, 4, True)


def test_lazy_pd_search_keeps_the_witness(monkeypatch):
    # the witness, counts and exhaustiveness of eager middle building,
    # reached while building 3 middles instead of 979
    k = simple_module(catalog_ring("R3", 5))
    counts = _count_builds(monkeypatch)
    result = search_reducing(k, "ured", "pd", SearchLimits(max_steps=2, n_max=3))
    assert counts["middles"] <= counts["expanded"] + 1
    assert [(s.n, s.a, s.b, s.coeffs, s.middle.dim) for s in result.witness.steps] == \
        [(0, 1, 1, (0, 1), 2), (0, 1, 1, (0, 1), 4)]
    assert (result.tested, result.pruned, result.exhaustive) == (980, 4, True)
    assert result.witness.terminal_verdict == "free of rank 1"
    assert verify_witness(k, result)


def test_exact_gdim_search_builds_only_expanded_middles(monkeypatch):
    # over R1 totally reflexive means free, so a gdim search takes the
    # Tor-rank path: 7 middles where building every class made 120
    k = simple_module(catalog_ring("R1", 5))
    counts = _count_builds(monkeypatch)
    result = search_reducing(k, "ured", "gdim", SearchLimits(max_steps=2, n_max=0))
    assert counts["middles"] <= counts["expanded"] + 1
    assert counts["middles"] == 7
    assert (result.found, result.tested, result.pruned, result.exhaustive) == \
        (False, 7, 7, True)


def test_exact_gdim_search_keeps_counts_of_building_every_middle():
    # ured-gdim of syz k = k^2 over R1q2: building and resolving every
    # middle tested 25,565 classes and pruned none (about 49 s then);
    # terminal means free here, so last-level triples are priced and
    # pruned as in the pd search
    syz = module_from_spec(catalog_ring("R1", 2), "syzygy:1:k")
    result = search_reducing(syz, "ured", "gdim",
                             SearchLimits(max_steps=2, n_max=0, tr_bound=2))
    assert (result.found, result.tested, result.pruned, result.exhaustive) == \
        (False, 256, 16, True)


@pytest.mark.parametrize("ring_id", ["R1q2", "R1q5"])
@pytest.mark.parametrize("spec", ["k", "syzygy:1:k"])
def test_square_zero_gdim_search_is_the_pd_search(ring_id, spec):
    # over R1 totally reflexive means free, so a gdim search enumerates,
    # prunes and finds exactly what the pd search does
    mod = module_from_spec(catalog_ring(ring_id[:2], int(ring_id[3:])), spec)

    def summary(result):
        steps = [(s.n, s.a, s.b, s.coeffs) for s in result.witness.steps] \
            if result.found else None
        return (result.found, result.tested, result.pruned, result.exhaustive, steps)

    for max_steps, n_max in ((1, 1), (2, 0)):
        for mode, ab_max in (("red", 2), ("ured", 1)):
            limits = SearchLimits(max_steps=max_steps, n_max=n_max, ab_max=ab_max,
                                  tr_bound=2)
            pd = search_reducing(mod, mode, "pd", limits)
            gdim = search_reducing(mod, mode, "gdim", limits)
            assert summary(gdim) == summary(pd), (mode, max_steps, n_max)


def test_pruned_triples_build_no_direct_sum(monkeypatch):
    # a pruned triple is priced from the Betti numbers of k alone
    sums = []
    build = reducing.direct_sum

    def counted_sum(mods, algebra=None):
        sums.append(len(mods))
        return build(mods, algebra)

    monkeypatch.setattr(reducing, "direct_sum", counted_sum)
    k = simple_module(catalog_ring("R1", 2))
    result = search_reducing(k, "ured", "pd", SearchLimits(max_steps=1, n_max=1))
    assert (result.found, result.tested, result.pruned) == (False, 0, 2)
    assert sums == []


def test_bounded_gdim_search_builds_and_tests_every_middle(monkeypatch):
    # GF(2)[x,y]/(x^2, xy, y^3) is neither Gorenstein nor of m^2 = 0, so
    # gdim searches there build each middle and run the bounded test
    alg = build_monomial_quotient(RingSpec(
        "monomial_quotient", 2, variables=["x", "y"], ideal=["x^2", "xy", "y^3"]))
    assert alg.socle_dim == 2 and alg.table[1:, 1:].any()
    assert not reducing.totally_reflexive_means_free(alg)
    k = simple_module(alg)
    counts = _count_builds(monkeypatch)
    result = search_reducing(k, "ured", "gdim",
                             SearchLimits(max_steps=1, n_max=1, tr_bound=2))
    assert (result.found, result.tested, result.exhaustive) == (False, 20, True)
    assert counts["middles"] == 20
    result = search_reducing(k, "red", "gdim",
                             SearchLimits(max_steps=1, n_max=0, ab_max=2, tr_bound=2))
    assert (result.found, result.tested, result.exhaustive) == (False, 292, True)
    # frontier middles are built once, never rebuilt when expanded
    counts["middles"] = 0
    result = search_reducing(k, "ured", "gdim",
                             SearchLimits(max_steps=2, n_max=0, tr_bound=2))
    assert (result.found, result.tested, result.exhaustive) == (False, 268, True)
    assert counts["middles"] == 268


def test_gdim_refuses_vacuous_tr_bound(R1):
    k = simple_module(R1)
    with pytest.raises(ValueError, match="tr_bound"):
        search_reducing(k, "ured", "gdim", SearchLimits(tr_bound=0))
    result = search_reducing(k, "red", "gdim", SearchLimits(n_max=0, ab_max=2))
    result.limits = SearchLimits(tr_bound=0)
    with pytest.raises(ValueError, match="tr_bound"):
        verify_witness(k, result)


def test_totally_reflexive_means_free_only_on_square_zero_non_gorenstein():
    for rid in ("R1", "R2", "R3", "R4", "R5"):
        assert reducing.totally_reflexive_means_free(catalog_ring(rid, 5)) == \
            (rid == "R1")


def test_gdim_terminal_is_decided_without_ext(monkeypatch, R1):
    # over Gorenstein rings and over R1 (not Gorenstein, m^2 = 0) total
    # reflexivity is decided by theorem: no resolution is computed for
    # the terminal test of a gdim search or of its re-check
    def refuse(mod):
        raise AssertionError("total reflexivity resolved a module")

    k = simple_module(R1)
    assert is_totally_reflexive_up_to(k, 0) and not pd_is_finite(k)
    monkeypatch.setattr(torsionfree, "resolution_of", refuse)
    monkeypatch.setattr(torsionfree, "transpose_resolution", refuse)
    for rid in ("R2", "R3", "R4", "R5"):
        for p in (2, 5):
            alg = catalog_ring(rid, p)
            # the field R5 has no x, so only k and the ring are sampled
            samples = [m for _, m in _gorenstein_samples(alg)] if alg.dim > 1 \
                else [simple_module(alg), free_module(alg, 2)]
            for mod in filter(lambda m: m.dim, samples):
                for mode in ("red", "ured"):
                    result = search_reducing(mod, mode, "gdim",
                                             SearchLimits(tr_bound=3))
                    assert result.found and result.witness.depth == 0
                    assert verify_witness(mod, result)
    result = search_reducing(k, "red", "gdim",
                             SearchLimits(max_steps=2, n_max=1, ab_max=2,
                                          tr_bound=3))
    assert result.found and result.witness.depth == 1
    assert verify_witness(k, result)


def test_search_depth_zero_for_free(R1):
    F = free_module(R1, 2)
    result = search_reducing(F, "red", "pd", SearchLimits())
    assert result.found and result.witness.depth == 0
    g = search_reducing(F, "ured", "gdim", SearchLimits(tr_bound=2))
    assert g.found and g.witness.depth == 0


def test_search_gdim_zero_over_gorenstein(R2, R3):
    for alg in (R2, R3):
        k = simple_module(alg)
        result = search_reducing(k, "red", "gdim", SearchLimits(tr_bound=3))
        assert result.found and result.witness.depth == 0


def test_search_gdim_one_over_non_gorenstein(R1):
    # over the non-Gorenstein R1 the residue field has reducing G-dimension
    # exactly 1: depth zero is impossible, and the free middle of the
    # projective-dimension witness is in particular totally reflexive;
    # the Tor-rank path keeps the count and witness of building every middle
    k = simple_module(R1)
    result = search_reducing(k, "red", "gdim",
                             SearchLimits(max_steps=2, n_max=1, ab_max=2,
                                          tr_bound=3))
    assert result.found and result.tested == 177
    assert [(s.n, s.a, s.b, s.coeffs) for s in result.witness.steps] == \
        [(0, 2, 1, (0, 1, 1, 0))]
    assert result.witness.terminal_verdict == "totally reflexive up to bound 3"
    assert verify_witness(k, result)


def test_search_monotone_in_limits(R1):
    k = simple_module(R1)
    small = search_reducing(k, "red", "pd",
                            SearchLimits(max_steps=1, n_max=1, ab_max=2))
    big = search_reducing(k, "red", "pd",
                          SearchLimits(max_steps=2, n_max=1, ab_max=2))
    assert small.found and big.found
    assert big.witness.depth <= small.witness.depth


def test_search_deterministic(R1):
    k = simple_module(R1)
    limits = SearchLimits(max_steps=2, n_max=1, ab_max=2, seed=11)
    r1 = search_reducing(k, "red", "pd", limits)
    r2 = search_reducing(k, "red", "pd", limits)
    assert r1.witness.steps[0].coeffs == r2.witness.steps[0].coeffs


def test_growth_estimates():
    doubling = growth_estimate([2**i for i in range(9)], "betti")
    assert doubling.verdict == "exponential" and doubling.exponential_flag
    linear = growth_estimate(list(range(1, 10)), "betti")
    assert linear.verdict == "poly(2)"
    constant = growth_estimate([1] * 9, "betti")
    assert constant.verdict == "poly(1)"
    finite = growth_estimate([1, 2, 0, 0, 0, 0, 0, 0], "betti")
    assert finite.verdict == "poly(0)" and finite.is_zero
    short = growth_estimate([1, 2, 3], "betti")
    assert short.verdict == "inconclusive"


@pytest.mark.parametrize("window", [1, 0, -2])
def test_growth_estimate_refuses_windows_without_a_ratio(window):
    # one value has no consecutive ratio, so no tail can be called exponential
    with pytest.raises(ModuleError, match="at least 2"):
        growth_estimate([1] * 9, "betti", window=window)


def test_upper_reduction_vs_complexity_R2(R2):
    k = simple_module(R2)
    report = upper_reduction_vs_complexity(k, SearchLimits(max_steps=1, n_max=1))
    assert report["cx_estimate"]["verdict"] == "poly(1)"
    assert report["search"]["found"] and report["search"]["witness"]["depth"] == 1
    assert report["consistent"]
    assert all(c["ok"] for ineq in report["betti_inequalities"] for c in ineq["checks"])


def test_upper_reduction_vs_complexity_free(R2):
    F = free_module(R2, 1)
    report = upper_reduction_vs_complexity(F, SearchLimits())
    assert report["cx_estimate"]["verdict"] == "poly(0)"
    assert report["search"]["witness"]["depth"] == 0


def test_betti_inequality_standalone(R3):
    k = simple_module(R3)
    result = search_reducing(k, "ured", "pd",
                             SearchLimits(max_steps=2, n_max=2, cap=100_000))
    assert result.found
    current = k
    for step in result.witness.steps:
        ineq = syzygy_betti_inequality(current, step.middle, step.n, 10)
        assert ineq["ok"]
        current = step.middle


def test_gorenstein_side_checks(R2, R1q2):
    k2 = simple_module(R2)
    rep = upper_reduction_vs_gorenstein_complexity(
        k2, SearchLimits(max_steps=1, n_max=1, tr_bound=3))
    assert rep["gcx_estimate"]["verdict"] == "poly(0)"
    assert rep["search"]["witness"]["depth"] == 0
    assert rep["ring_plexity"]["verdict"] == "poly(0)"
    assert rep["consistent"]

    k1 = simple_module(R1q2)
    rep1 = upper_reduction_vs_gorenstein_complexity(
        k1, SearchLimits(max_steps=1, n_max=1, tr_bound=2), bound=8, bass_bound=8)
    assert rep1["gcx_estimate"]["verdict"] == "exponential"
    assert not rep1["search"]["found"]
    assert rep1["search"]["exhaustive"]
    assert rep1["consistent"]


def test_witness_json_roundtrip_fields(R1):
    k = simple_module(R1)
    result = search_reducing(k, "red", "pd",
                             SearchLimits(max_steps=2, n_max=1, ab_max=2))
    payload = result.to_jsonable()
    assert payload["found"] and payload["witness"]["depth"] == 1
    assert payload["limits"]["ab_max"] == 2
    step = payload["witness"]["steps"][0]
    assert step["n"] == 0 and step["a"] == 2 and step["b"] == 1
