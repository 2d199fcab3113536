import gc
import weakref

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
from redhom.complexes import ext_dims, ext_dims_via_dual_complex, resolution_of, ring_module
from redhom.modules import (
    ModuleRep,
    cover_section,
    direct_sum,
    free_module,
    hom_dim,
    is_isomorphic,
    projective_cover_and_syzygy,
    simple_module,
    split_free_summands,
    transpose_module,
)
from redhom.torsionfree import (
    TorsionfreeError,
    _first_map,
    _image_of_middle,
    _window_image,
    build_window_sequence,
    gdim_report,
    is_totally_reflexive_up_to,
    pushforward,
    torsionfree_classify,
    transpose_resolution,
    verify_window_sequence,
)

from module_helpers import (
    SAMPLE_RINGS,
    WINDOW_BOUND,
    bounded_total_reflexivity,
    cokernel_comparison_reference,
    lambda_from_linear,
    ledger_samples,
    pushforward_top_reference,
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
    assert bounded_total_reflexivity(simple_module(R2), 6)


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
    assert set(pf.complex.dual().exactness_defects([0, 1]).values()) == {0}
    # embedding k -> Lambda lands in the socle
    assert pf.complex.rank(0) == 1


def test_pushforward_free_identity_splice(R1):
    F = free_module(R1, 1)
    pf = pushforward(F, 2)
    assert pf.core_rank == 1
    assert pf.complex.modules[-1].free_rank == 1
    assert pf.complex.modules[-2].free_rank == 0
    assert pf.exact_while == 2
    assert pf.complex.rank(0) == 3


def test_pushforward_flags_non_torsionfree(R1):
    # k over R1 embeds into the socle, so it is 1-torsionfree; the
    # obstruction shows at the second step
    k = simple_module(R1)
    pf = pushforward(k, 2)
    assert pf.ext_transpose[0] == 0
    assert pf.ext_transpose[1] > 0
    assert pf.primal_defects[0] == 0
    assert pf.primal_defects[-1] == pf.ext_transpose[1]
    assert pf.exact_while == 1


@pytest.mark.parametrize("rid", [f"R{i}q{q}" for i in range(1, 6) for q in (2, 5)])
def test_windows_read_the_cover_as_the_solved_comparison(rid):
    # coker(d_1), its iso with M and the pushforward's first map are read
    # off the cover's syzygy rows and linear section; eliminating d_1's
    # dense form and solving is the reference, entry for entry.  The dual
    # of every pushforward is exact.
    for _, mod in sample_modules(catalog_ring(rid), count=6, max_dim=8, seed=20240):
        coker, _, iso = cokernel_comparison_reference(mod)
        got, got_iso = _window_image(mod, 0)     # None stands for mod itself
        assert (mod if got is None else got) is coker and np.array_equal(got_iso, iso)
        top = pushforward_top_reference(mod)
        for n in (1, 2, 3):
            pf = pushforward(mod, n)
            assert np.array_equal(pf.complex.maps[0], top)
            assert set(pf.complex.dual().exactness_defects(range(n)).values()) == {0}


def test_cached_maps_are_read_only():
    # a cached value is shared by every caller, so the maps it keeps are
    # read-only: the cover and its inclusion, the cover section, the split
    # iso and the iso M -> coker(d_1); the samples include k + Lambda
    for rid in ("R1q5", "R2q5", "R3q2"):
        for _, mod in sample_modules(catalog_ring(rid), count=6, max_dim=8, seed=20240):
            data = projective_cover_and_syzygy(mod)
            maps = [data.cover, data.inclusion, *cover_section(mod),
                    split_free_summands(mod).iso, _window_image(mod, 0)[1]]
            assert not any(f.flags.writeable for f in maps)


@pytest.mark.parametrize("rid,max_dim,count", [("R1", 5, 5), ("R2", 12, 6), ("R3", 8, 5),
                                               ("R4", 4, 5)])
def test_n0_window_dual_needs_no_augmentation(rid, max_dim, count):
    # Hom(-, Lambda) is left exact, so the dual of an n = 0 window has
    # defect dim Hom(coker d_1, Lambda) at P_0*, which the defect routine
    # therefore does not compare; checked on the tables benchmark's window
    # samples, for the free window and for it as a module complex, whose
    # dual is built from Hom bases
    alg = catalog_ring(rid, 5)
    checked = 0
    for _, mod in sample_modules(alg, count=count, max_dim=max_dim, seed=20240):
        for m in range(3):
            try:
                build = build_window_sequence(mod, m, 0)
            except TorsionfreeError:
                continue
            for comp in (build.complex, build.complex.to_module_complex()):
                image = _image_of_middle(comp, 0)
                assert image is build.image_module
                assert comp.dual().exactness_defects([0])[0] == \
                    hom_dim(image, ring_module(alg))
            checked += 1
    assert checked >= count


@pytest.mark.parametrize("rid", ["R1q5", "R3q5"])
def test_a_module_dies_with_its_last_reference(rid):
    # no cached value refers back to the module it is cached on, so with
    # the collector off a module is freed as soon as no one holds it, after
    # each of these (the windows as the tables benchmark runs them)
    def windows(mod):
        torsionfree_classify(mod, 2)
        for m in range(3):
            for n in range(3):
                try:
                    build = build_window_sequence(mod, m, n)
                except TorsionfreeError:
                    continue
                assert verify_window_sequence(build.complex, m, n, "(4)").ok

    alg = build_ring(catalog_spec(rid[:2], int(rid[3:])))
    k = simple_module(alg)
    syz = resolution_of(k).syzygy_module(1)
    uses = [split_free_summands, lambda mod: resolution_of(mod).extend(3),
            lambda mod: torsionfree_classify(mod, 3),
            lambda mod: ext_dims_via_dual_complex(mod, 2), windows]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for use in uses:
            mod = direct_sum([k, syz])
            ref = weakref.ref(mod)
            use(mod)
            del mod
            assert ref() is None, use
    finally:
        if enabled:
            gc.enable()


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
    # tr(core) and the core's cover section are cached on the core, so
    # a second pushforward derives no kernel
    k = simple_module(catalog_ring("R3", 5))
    first = pushforward(k, 3)
    calls = _count_kernels(monkeypatch)
    second = pushforward(k, 3)
    assert calls == []
    assert second.to_jsonable() == first.to_jsonable()
    assert all((second.complex.maps[i] == first.complex.maps[i]).all()
               for i in first.complex.maps)


def test_pushforward_defect_matches_ext_exactly(R1, R2, R4):
    for alg in (R1, R2, R4):
        for mod in (simple_module(alg), free_module(alg, 1),
                    direct_sum([simple_module(alg), free_module(alg, 1)])):
            pf = pushforward(mod, 3)
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
            assert pushforward(mod, n).ext_transpose == expected[1:]


def test_pushforward_after_classify_derives_no_kernel(monkeypatch):
    # a fresh ring, so no earlier test has resolved its k
    k = simple_module(build_ring(catalog_spec("R3", 5)))
    torsionfree_classify(k, 3)
    calls = _count_kernels(monkeypatch)
    pushforward(k, 3)
    assert calls == []


def test_classify_after_pushforward_resolves_only_the_module(monkeypatch):
    # the transpose side is already resolved: every kernel is k's own
    k = simple_module(build_ring(catalog_spec("R3", 2)))
    pushforward(k, 3)
    calls = _count_kernels(monkeypatch)
    torsionfree_classify(k, 3)
    assert len(calls) == 3


def test_first_differential_is_the_first_map_at_the_generators():
    # d_0 of every window with n >= 1 is the first map on the cover's
    # generators; the reference recovers it from the whole product
    # first_map . pi.  Without a free summand first_map . pi is
    # d_2(res_t)^T (see _first_map), so d_0 is that differential too.
    # Over the ledger's samples, 74 such windows have a free summand.  d_0
    # is kept on the module, so all its windows share one object.
    built = {True: 0, False: 0}
    for ring in SAMPLE_RINGS:
        for _, mod in ledger_samples(*ring):
            alg, top = mod.algebra, _first_map(mod)
            cover = projective_cover_and_syzygy(mod).cover
            ref = lambda_from_linear(alg, gf.mat_mul(top, cover, alg.p),
                                     top.shape[0] // alg.dim, cover.shape[1] // alg.dim)
            free = split_free_summands(mod).free_rank > 0
            shared = []
            for m in range(WINDOW_BOUND + 1):
                for n in range(1, WINDOW_BOUND + 1):
                    try:
                        d0 = build_window_sequence(mod, m, n).complex.diffs[0]
                    except TorsionfreeError:
                        continue
                    assert np.array_equal(d0.entries, ref.entries)
                    if not free:
                        d2t = transpose_resolution(mod).diff(2).transpose()
                        assert np.array_equal(d0.entries, d2t.entries)
                    built[free] += 1
                    shared.append(d0)
            assert all(d0 is shared[0] for d0 in shared)
    assert built == {True: 74, False: 138}


def test_first_map_is_checked_linear(monkeypatch):
    # a first map that is not Lambda-linear is refused where it is made,
    # once per module: here the section's rows are swapped, so it is no
    # section of the cover of syz k over a fresh R3
    syz = resolution_of(simple_module(build_ring(catalog_spec("R3", 5)))).syzygy_module(1)

    def swapped(core):
        cols, inverse = cover_section(core)
        return cols, inverse[::-1]

    monkeypatch.setattr("redhom.torsionfree.cover_section", swapped)
    with pytest.raises(AssertionError, match="Lambda-linear"):
        _first_map(syz)


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
    assert gf.rank(build.image_witness, R1.p) == 1
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
    zero = np.zeros((1, 1), dtype=np.int64)
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
    """The middle image built directly, not through torsionfree._image_of_middle."""
    from redhom.modules import quotient_module, submodule_from_rows
    rows, piv = gf.row_basis(comp.linear(1 if n == 0 else 0).T, comp.algebra.p)
    if n == 0:
        return quotient_module(comp.term(0), rows, piv)[0]
    return submodule_from_rows(comp.term(-1), rows, piv)[0]


def _window_verdicts(alg):
    """The 9 windows (m, n <= 2) of syz^2 k over alg and their mode (4) verdicts."""
    mod = resolution_of(simple_module(alg)).syzygy_module(2)
    windows = [(m, n, build_window_sequence(mod, m, n).complex)
               for m in range(3) for n in range(3)]
    return windows, [verify_window_sequence(comp, m, n, "(4)").to_jsonable()
                     for m, n, comp in windows]


def test_verifier_keeps_one_module_per_distinct_window_image():
    # over R3q5 the second syzygy of k has two distinct images in 9
    # windows: one interned module each, which _image_of_middle returns.
    # The verdicts equal those on a second ring, which shares no module
    # and no cache with the first
    from redhom import modules, torsionfree
    alg = build_ring(catalog_spec("R3", 5))
    windows, got = _window_verdicts(alg)
    images, contents = {}, set()
    for m, n, comp in windows:
        image = _fresh_image(comp, n)
        key = (image.dim, modules._digest(image._actions))
        assert alg.modules[key] is image
        assert torsionfree._image_of_middle(comp, n) is image
        images[id(image)] = image
        contents.add((image.dim,) + tuple(image.action_arr(j).tobytes()
                                          for j in range(alg.num_gens)))
    assert len(images) == len(contents) == 2
    assert got == _window_verdicts(build_ring(catalog_spec("R3", 5)))[1]
    assert all(v["ok"] for v in got)
