import numpy as np
import pytest

from redhom import gf
from redhom.algebra import (
    RingSpec,
    build_from_structure_constants,
    build_monomial_quotient,
    build_ring,
)
from redhom.catalog import catalog_ring, catalog_spec, sample_modules
from redhom.complexes import ext_dims, resolution_of, ring_module
from redhom.modules import (
    ModuleMap,
    ModuleRep,
    direct_sum,
    free_module,
    is_isomorphic,
    simple_module,
    transpose_module,
)
from redhom.torsionfree import (
    TorsionfreeError,
    build_window_sequence,
    gdim_report,
    is_totally_reflexive_up_to,
    pushforward,
    torsionfree_classify,
    verify_window_sequence,
)


@pytest.fixture(scope="module")
def R1():
    return build_monomial_quotient(RingSpec(
        "monomial_quotient", 5, variables=["x", "y"], ideal=["x^2", "xy", "y^2"]))


@pytest.fixture(scope="module")
def R2():
    return build_monomial_quotient(RingSpec(
        "monomial_quotient", 5, variables=["x"], ideal=["x^2"]))


@pytest.fixture(scope="module")
def R4():
    return build_from_structure_constants(RingSpec(
        "structure_constants", 5, labels=["1", "x", "y", "z", "w"],
        products={"x,x": "w", "y,y": "w", "z,z": "w"}, gens=["x", "y", "z"]))


def test_classify_free(R1):
    verdict = torsionfree_classify(free_module(R1, 2), 4)
    assert verdict.m_max == 4 and verdict.n_max == 4
    assert verdict.totally_reflexive_up_to_bound


def test_classify_k_over_gorenstein(R2):
    verdict = torsionfree_classify(simple_module(R2), 6)
    assert verdict.m_max == 6 and verdict.n_max == 6
    assert verdict.totally_reflexive_up_to_bound
    assert is_totally_reflexive_up_to(simple_module(R2), 6)


def test_classify_k_over_R1(R1):
    verdict = torsionfree_classify(simple_module(R1), 4)
    assert verdict.m_max == 0
    assert not verdict.totally_reflexive_up_to_bound
    assert not is_totally_reflexive_up_to(simple_module(R1), 2)


def test_membership_is_downward_closed(R1, R2, R4):
    for alg in (R1, R2, R4):
        k = simple_module(alg)
        v = torsionfree_classify(k, 3)
        for m in range(4):
            for n in range(4):
                assert v.member(m, n) == (m <= v.m_max and n <= v.n_max)


def test_pushforward_k_over_R2(R2):
    k = simple_module(R2)
    pf = pushforward(k, 2)
    assert [pf.complex.modules[-j].free_rank for j in (1, 2)] == [1, 1]
    assert pf.ext_transpose == (0, 0)
    assert pf.exact_while == 2
    assert set(pf.primal_defects.values()) == {0}
    assert set(pf.dual_defects.values()) == {0}
    # embedding k -> Lambda lands in the socle
    assert pf.complex.maps[0].rank() == 1


def test_pushforward_free_identity_splice(R1):
    F = free_module(R1, 1)
    pf = pushforward(F, 2)
    assert pf.core_rank == 1
    assert pf.complex.modules[-1].free_rank == 1
    assert pf.complex.modules[-2].free_rank == 0
    assert pf.exact_while == 2
    assert pf.complex.maps[0].rank() == 3


def test_pushforward_flags_non_torsionfree(R1):
    # k over R1 embeds into the socle, so it is 1-torsionfree; the
    # obstruction shows at the second step
    k = simple_module(R1)
    pf = pushforward(k, 2, dual_check=False)
    assert pf.ext_transpose[0] == 0
    assert pf.ext_transpose[1] > 0
    assert pf.primal_defects[0] == 0
    assert pf.primal_defects[-1] == pf.ext_transpose[1]
    assert pf.exact_while == 1


def _count_kernels(monkeypatch):
    # every kernel elimination: column bases (gf.kernel), row bases
    # (gf.kernel_rows) and, above the cutover, row bases by support
    # components (gf.component_kernel_rows)
    calls = []
    for name in ("kernel", "kernel_rows", "component_kernel_rows"):
        def counted(*args, _original=getattr(gf, name)):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(gf, name, counted)
    return calls


def test_pushforward_resolves_the_transpose_once(monkeypatch):
    # tr(core) and its comparison map are cached on the core, so a
    # second pushforward derives no kernel
    k = simple_module(catalog_ring("R3", 5))
    first = pushforward(k, 3, dual_check=False)
    calls = _count_kernels(monkeypatch)
    second = pushforward(k, 3, dual_check=False)
    assert calls == []
    assert second.to_jsonable() == first.to_jsonable()
    assert all((second.complex.maps[i].mat == first.complex.maps[i].mat).all()
               for i in first.complex.maps)


def test_pushforward_defect_matches_ext_exactly(R1, R2, R4):
    for alg in (R1, R2, R4):
        for mod in (simple_module(alg), free_module(alg, 1),
                    direct_sum([simple_module(alg), free_module(alg, 1)])):
            pf = pushforward(mod, 3, dual_check=False)
            for j in range(1, 4):
                assert pf.primal_defects[-(j - 1)] == pf.ext_transpose[j - 1]


@pytest.mark.parametrize("ring_id,max_dim,count",
                         [("R1", 5, 5), ("R2", 12, 6), ("R3", 8, 5), ("R4", 4, 5)])
def test_pushforward_ext_matches_classify_on_window_samples(ring_id, max_dim, count):
    # transpose_module, resolved on its own, is the oracle for the one
    # seeded resolution of tr(core) that classify and pushforward share;
    # k+ring (in every set but R4's) has a free summand
    alg = catalog_ring(ring_id, 5)
    samples = sample_modules(alg, count=count, max_dim=max_dim, seed=20240)
    for mod in [m for _, m in samples] + [free_module(alg, 2)]:
        for n in (1, 2):
            expected = ext_dims(transpose_module(mod), ring_module(alg), n).dims
            assert torsionfree_classify(mod, n).ext_transpose == expected
            assert pushforward(mod, n, dual_check=False).ext_transpose == expected[1:]


def test_pushforward_after_classify_derives_no_kernel(monkeypatch):
    # a fresh ring, so no earlier test has resolved its k
    k = simple_module(build_ring(catalog_spec("R3", 5)))
    torsionfree_classify(k, 3)
    calls = _count_kernels(monkeypatch)
    pushforward(k, 3, dual_check=False)
    assert calls == []


def test_classify_after_pushforward_resolves_only_the_module(monkeypatch):
    # the transpose side is already resolved: every kernel is k's own
    k = simple_module(build_ring(catalog_spec("R3", 2)))
    pushforward(k, 3, dual_check=False)
    calls = _count_kernels(monkeypatch)
    torsionfree_classify(k, 3)
    assert len(calls) == 3


def test_build_window_k_over_R2(R2):
    k = simple_module(R2)
    build = build_window_sequence(k, 1, 1)
    comp = build.complex
    assert [comp.ranks[i] for i in (2, 1, 0, -1)] == [1, 1, 1, 1]
    x = np.zeros((1, 1, 2), dtype=np.int64)
    x[0, 0, 1] = 1
    for i in (2, 1, 0):
        assert (comp.diffs[i].entries == x).all()
    assert build.image_module.dim == 1
    assert is_isomorphic(build.image_module, k).kind == "yes"
    verdict = verify_window_sequence(comp, 1, 1, "(4)")
    assert verdict.ok
    assert verdict.image_classification.member(1, 1)


def test_build_window_totally_reflexive_bound(R2):
    # the infinite case specializes to the certification bound
    k = simple_module(R2)
    build = build_window_sequence(k, 3, 3)
    assert verify_window_sequence(build.complex, 3, 3, "(3)").ok


def test_build_window_free_module(R1):
    F = free_module(R1, 1)
    build = build_window_sequence(F, 2, 2)
    ranks = [build.complex.ranks[i] for i in range(3, -3, -1)]
    assert ranks == [0, 0, 0, 1, 1, 0]
    assert verify_window_sequence(build.complex, 2, 2, "(4)").ok


def test_build_window_with_free_summand(R2):
    M = direct_sum([simple_module(R2), free_module(R2, 1)])
    build = build_window_sequence(M, 1, 1)
    ranks = [build.complex.ranks[i] for i in (2, 1, 0, -1)]
    assert ranks == [1, 1, 2, 2]
    assert verify_window_sequence(build.complex, 1, 1, "(4)").ok
    assert is_isomorphic(build.image_module, M).kind == "yes"


def test_build_window_n_zero(R1):
    k = simple_module(R1)
    build = build_window_sequence(k, 0, 0)
    assert build.complex.lo == 0 and build.complex.hi == 1
    assert build.image_module.dim == 1
    assert build.image_witness.rank() == 1
    assert verify_window_sequence(build.complex, 0, 0, "(4)").ok


def test_build_refused_with_failing_index(R1):
    k = simple_module(R1)
    with pytest.raises(TorsionfreeError) as err:
        build_window_sequence(k, 1, 0)
    assert err.value.side == "self" and err.value.index == 1
    # k is 1-torsionfree over R1 (socle embedding) but not 2-torsionfree
    assert verify_window_sequence(build_window_sequence(k, 0, 1).complex,
                                  0, 1, "(4)").ok
    with pytest.raises(TorsionfreeError) as err2:
        build_window_sequence(k, 0, 2)
    assert err2.value.side == "transpose" and err2.value.index == 2


def test_verify_rejects_non_exact(R2):
    k = simple_module(R2)
    zero = ModuleMap(k, k, np.zeros((1, 1), dtype=np.int64))
    from redhom.complexes import ModuleComplex
    comp = ModuleComplex({1: k, 0: k, -1: k},
                         {1: zero, 0: zero}, check=True)
    verdict = verify_window_sequence(comp, 0, 1, "(4)")
    assert not verdict.ok
    assert "exact" in verdict.reasons[0]


def test_verify_rejects_exact_with_nonexact_dual(R1):
    # the resolution window of k over R1 is exact but its dual is not
    k = simple_module(R1)
    from redhom.complexes import resolution_of
    res = resolution_of(k)
    comp = res.free_complex(2)
    verdict = verify_window_sequence(comp, 1, 0, "(4)")
    assert not verdict.ok
    assert any("dual" in r for r in verdict.reasons)
    assert all(v == 0 for v in verdict.primal_defects.values())
    assert any(v > 0 for v in verdict.dual_defects.values())


def test_verify_mode3_checks_all_terms(R2):
    k = simple_module(R2)
    build = build_window_sequence(k, 1, 1)
    v3 = verify_window_sequence(build.complex, 1, 1, "(3)")
    assert v3.ok and v3.membership_failures == []


def test_gdim_reports(R1, R2):
    k2 = simple_module(R2)
    rep = gdim_report(k2, 4)
    assert rep.verdict.startswith("gdim = 0")
    assert rep.sup_positive == 0 and rep.totally_reflexive
    F = free_module(R1, 1)
    assert gdim_report(F, 3).verdict.startswith("gdim = 0")
    k1 = simple_module(R1)
    rep1 = gdim_report(k1, 4)
    assert rep1.verdict == "infinite-up-to-bound"
    assert all(d > 0 for d in rep1.ext_self[1:])
    assert rep1.sup_positive == 4


def test_gdim_zero_module(R1):
    from redhom.modules import zero_module
    rep = gdim_report(zero_module(R1), 3)
    assert rep.verdict.startswith("gdim = 0")


def test_roundtrip_classify_build_verify(R1, R2, R4):
    # the two directions of the window characterization agree
    for alg in (R1, R2, R4):
        k = simple_module(alg)
        mods = [k, free_module(alg, 1), direct_sum([k, k])]
        for mod in mods:
            cls = torsionfree_classify(mod, 2)
            for m in range(0, 3):
                for n in range(0, 3):
                    if cls.member(m, n):
                        build = build_window_sequence(mod, m, n)
                        verdict = verify_window_sequence(build.complex, m, n, "(4)")
                        assert verdict.ok, (alg.spec.name, mod.dim, m, n, verdict.reasons)
                    else:
                        with pytest.raises(TorsionfreeError):
                            build_window_sequence(mod, m, n)


def _fresh_image(comp, n):
    """The middle image built directly, never looked up among earlier images."""
    from redhom.modules import quotient_module, submodule_from_rows
    rows, piv = gf.row_basis(comp.linear(1 if n == 0 else 0).T, comp.algebra.p)
    if n == 0:
        return quotient_module(comp.term(0), rows, piv)[0]
    return submodule_from_rows(comp.term(-1), rows, piv)[0]


def test_verifier_keeps_one_module_per_distinct_window_image(monkeypatch):
    # a fresh ring, so no other test has looked up images on it; over
    # R3q5 the second syzygy of k has two distinct images in 9 windows
    from redhom import torsionfree
    alg = build_ring(catalog_spec("R3", 5))
    mod = resolution_of(simple_module(alg)).syzygy_module(2)
    windows = [(m, n, build_window_sequence(mod, m, n).complex)
               for m in range(3) for n in range(3)]
    cached = [verify_window_sequence(comp, m, n, "(4)").to_jsonable()
              for m, n, comp in windows]
    images = alg._cache["window_images"]
    keys = set()
    for m, n, comp in windows:
        image = _fresh_image(comp, n)
        key = (image.dim,) + tuple(image.action_arr(j).tobytes()
                                   for j in range(alg.num_gens))
        keys.add(key)
        assert images[key] is not image
        assert torsionfree._image_of_middle(comp, n) is images[key]
    assert len(images) == len(keys) == 2
    monkeypatch.setattr(torsionfree, "_image_of_middle", _fresh_image)
    fresh = [verify_window_sequence(comp, m, n, "(4)").to_jsonable()
             for m, n, comp in windows]
    assert cached == fresh
    assert all(v["ok"] for v in cached)
