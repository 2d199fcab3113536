from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redhom import gf, modules
from redhom.algebra import (
    RingSpec,
    build_from_structure_constants,
    build_monomial_quotient,
    build_ring,
)
from redhom.catalog import catalog_ring, catalog_spec, sample_modules
from redhom.complexes import (
    FreeComplex,
    ModuleComplex,
    apply_dual,
    bass_numbers,
    check_exactness,
    ext_dims,
    ext_dims_via_dual_complex,
    minimal_free_resolution,
    resolution_of,
    ring_module,
)
from redhom.modules import (
    LambdaMatrix,
    ModuleError,
    ModuleMap,
    ModuleRep,
    direct_sum,
    free_module,
    minimal_presentation,
    projective_cover_and_syzygy,
    simple_module,
    span_submodule,
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
def R3():
    return build_monomial_quotient(RingSpec(
        "monomial_quotient", 5, variables=["x", "y"], ideal=["x^2", "y^2"]))


@pytest.fixture(scope="module")
def R4():
    return build_from_structure_constants(RingSpec(
        "structure_constants", 5, labels=["1", "x", "y", "z", "w"],
        products={"x,x": "w", "y,y": "w", "z,z": "w"}, gens=["x", "y", "z"]))


def test_betti_k_doubles_over_R1(R1):
    _, betti = minimal_free_resolution(simple_module(R1), 8)
    assert betti == [2**i for i in range(9)]


def test_betti_k_constant_over_R2(R2):
    _, betti = minimal_free_resolution(simple_module(R2), 6)
    assert betti == [1] * 7


def test_betti_k_linear_over_R3(R3):
    _, betti = minimal_free_resolution(simple_module(R3), 8)
    assert betti == list(range(1, 10))


def test_betti_of_free(R1):
    _, betti = minimal_free_resolution(free_module(R1, 1), 4)
    assert betti == [1, 0, 0, 0, 0]


def test_betti_fibonacci_over_R4(R4):
    _, betti = minimal_free_resolution(simple_module(R4), 5)
    # socle-degree-2 Gorenstein with 3 generators: b_{i+1} = 3 b_i - b_{i-1}
    assert betti == [1, 3, 8, 21, 55, 144]


def test_resolution_is_exact_and_minimal(R3):
    comp, _ = minimal_free_resolution(simple_module(R3), 5)
    defects = check_exactness(comp, range(1, 5))
    assert set(defects.values()) == {0}
    for i in range(1, 6):
        assert comp.diffs[i].in_radical()


def test_betti_independent_of_basis(R1):
    k = simple_module(R1)
    _, b1 = minimal_free_resolution(k, 5)
    # permute the basis of a 2-dim module with zero actions: same numbers
    m = ModuleRep(R1, [np.zeros((2, 2), dtype=np.int64)] * 2)
    perm = ModuleRep(R1, [np.zeros((2, 2), dtype=np.int64)] * 2)
    _, bm = minimal_free_resolution(m, 5)
    _, bp = minimal_free_resolution(perm, 5)
    assert bm == bp == [2 * x for x in b1[:6]]


@pytest.mark.parametrize("rid", ["R1q5", "R3q2", "R4q5"])
def test_resolution_starts_from_the_module_presentation(rid):
    # one cover kernel, one d_1 and one first syzygy per module
    for _, mod in sample_modules(catalog_ring(rid), count=5, max_dim=6, seed=3):
        res = resolution_of(mod)
        assert res.syzygy_module(1) is projective_cover_and_syzygy(mod).syzygy
        assert np.array_equal(res.diff(1).entries,
                              minimal_presentation(mod).relations.entries)


def test_resolution_refuses_negative_indices(R1):
    res = resolution_of(simple_module(R1)).extend(3)
    for i in (0, -1):
        with pytest.raises(ModuleError, match="at least 1"):
            res.diff(i)
    with pytest.raises(ModuleError, match="nonnegative"):
        res.syzygy_module(-1)


def test_resolution_refuses_linear_forms_over_budget(monkeypatch):
    # over R1 beta_i = 2^i and dim 3, so lin(d_3) takes 8 * 12 * 24 bytes;
    # with that as the budget d_3 is formed and d_4 (four times as large)
    # is refused before its kernel or its dual's rank is computed
    ring = build_monomial_quotient(RingSpec(
        "monomial_quotient", 5, variables=["x", "y"], ideal=["x^2", "xy", "y^2"]))
    monkeypatch.setattr(modules, "LINEAR_FORM_BUDGET_BYTES", 8 * 12 * 24)
    res = resolution_of(simple_module(ring))
    assert res.betti_numbers(4) == [1, 2, 4, 8, 16]
    res.dual_rank(3)
    for step in (lambda: res.extend(5), lambda: res.dual_rank(4)):
        with pytest.raises(modules.LinearFormBudgetError,
                           match=r"step 4: .* Betti numbers so far \[1, 2, 4, 8, 16\]"):
            step()


def test_betti_numbers_refuses_negative_index(R1):
    # a negative index must not slice from the end, fresh or extended
    res = resolution_of(simple_module(R1))
    for upto in (-1, -3):
        with pytest.raises(ModuleError, match="nonnegative"):
            res.betti_numbers(upto)
    res.extend(5)
    with pytest.raises(ModuleError, match="nonnegative"):
        res.betti_numbers(-1)
    assert res.betti_numbers(0) == [1]
    assert res.betti_numbers(2) == [1, 2, 4]


def test_ext_free_source(R1):
    F = free_module(R1, 1)
    table = ext_dims(F, ring_module(R1), 4)
    assert table.dims == (3, 0, 0, 0, 0)


def test_ext_k_over_gorenstein_vanishes(R2):
    table = ext_dims(simple_module(R2), ring_module(R2), 5)
    assert table.dims == (1, 0, 0, 0, 0, 0)


def test_ext_k_over_R1_nonzero(R1):
    table = ext_dims(simple_module(R1), ring_module(R1), 4)
    assert table.dims[0] == 2  # Hom(k, Lambda) = socle
    assert all(d >= 1 for d in table.dims[1:])
    res = resolution_of(simple_module(R1))
    assert [res.ext_ring_dim(i) for i in range(5)] == list(table.dims)


def test_dual_complex_shares_the_cached_transposes(R1):
    res = resolution_of(simple_module(R1))
    dual = res.free_complex(3).dual()
    for i in range(1, 4):
        assert dual.diffs[-(i - 1)] is res.diff(i).transpose()
        assert dual.diffs[-(i - 1)].transpose() is res.diff(i)


def test_ext_general_target_matches_ring_path(R2, R3):
    for alg in (R2, R3):
        k = simple_module(alg)
        fresh_free = free_module(alg, 1)  # not the cached ring module: block path
        a = ext_dims(k, fresh_free, 4).dims
        b = ext_dims(k, ring_module(alg), 4).dims
        assert a == b


def test_bass_numbers(R1, R2):
    assert bass_numbers(ring_module(R2), 5) == [1, 0, 0, 0, 0, 0]
    mu = bass_numbers(ring_module(R1), 4)
    assert mu[0] == 2
    assert all(m > 0 for m in mu)
    field = build_monomial_quotient(RingSpec("monomial_quotient", 5, variables=[], ideal=[]))
    assert bass_numbers(ring_module(field), 3) == [1, 0, 0, 0]


def test_two_path_ext_oracle(R1, R2, R3, R4):
    for alg in (R1, R2, R3, R4):
        for mod in (simple_module(alg), free_module(alg, 1)):
            direct = ext_dims(mod, ring_module(alg), 3).dims
            via_dual = tuple(ext_dims_via_dual_complex(mod, 3))
            assert direct == via_dual


def socle_sequence(R2):
    """0 -> k -> Lambda -> k -> 0 over GF(5)[x]/(x^2)."""
    k = simple_module(R2)
    F = free_module(R2, 1)
    inc = ModuleMap(k, F, np.array([[0], [1]], dtype=np.int64))
    proj = ModuleMap(F, k, np.array([[1, 0]], dtype=np.int64))
    return ModuleComplex({2: k, 1: F, 0: k}, {2: inc, 1: proj})


def test_exactness_of_socle_sequence(R2):
    comp = socle_sequence(R2)
    assert check_exactness(comp, [2, 1, 0]) == {2: 0, 1: 0, 0: 0}


def test_non_exact_zero_maps(R2):
    k = simple_module(R2)
    zero = ModuleMap(k, k, np.zeros((1, 1), dtype=np.int64))
    comp = ModuleComplex({1: k, 0: k}, {1: zero})
    assert check_exactness(comp, [1, 0]) == {1: 1, 0: 1}


def test_dual_of_multiplication_complex(R2):
    x_entry = np.zeros((1, 1, 2), dtype=np.int64)
    x_entry[0, 0, 1] = 1
    lam = LambdaMatrix(R2, x_entry)
    comp = FreeComplex(R2, {1: 1, 0: 1}, {1: lam})
    dual = comp.dual()
    assert dual.lo == -1 and dual.hi == 0
    assert (dual.diffs[0].entries == lam.entries).all()
    mc = comp.to_module_complex()
    dual_mc = apply_dual(mc)
    assert dual_mc.modules[0].dim == 2 and dual_mc.modules[-1].dim == 2
    assert dual_mc.maps[0].rank() == 1


def test_dual_of_socle_sequence_is_exact(R2):
    dual = apply_dual(socle_sequence(R2))
    assert [dual.modules[i].dim for i in (0, -1, -2)] == [1, 2, 1]
    assert check_exactness(dual, [0, -1, -2]) == {0: 0, -1: 0, -2: 0}


def test_dual_of_zero_complex(R2):
    from redhom.modules import zero_module
    z = zero_module(R2)
    comp = ModuleComplex({0: z}, {})
    dual = apply_dual(comp)
    assert dual.modules[0].dim == 0


def test_gorenstein_catalog_ext_vanishing(R2, R3, R4):
    # bound 6 for the small rings; bound 4 over R4 where Betti numbers
    # grow fast (the acceptance suite runs the full bound-6 battery)
    for alg, bound in ((R2, 6), (R3, 6), (R4, 4)):
        k = simple_module(alg)
        F = free_module(alg, 1)
        m = span_submodule(F, np.eye(alg.dim, dtype=np.int64)[:, 1:])[0]
        for mod in (k, m, direct_sum([k, F])):
            dims = ext_dims(mod, ring_module(alg), bound).dims
            assert all(d == 0 for d in dims[1:]), (alg, mod.dim, dims)


def test_dd_zero_enforced(R2):
    x_entry = np.zeros((1, 1, 2), dtype=np.int64)
    x_entry[0, 0, 1] = 1
    one = np.zeros((1, 1, 2), dtype=np.int64)
    one[0, 0, 0] = 1
    with pytest.raises(Exception):
        FreeComplex(R2, {2: 1, 1: 1, 0: 1}, {2: LambdaMatrix(R2, one),
                                             1: LambdaMatrix(R2, one)})


@st.composite
def scaled_resolution_windows(draw):
    """A resolution window (or its dual) with each differential scaled.

    Multiplying every differential by a ring element keeps d.d = 0, the
    ring being commutative; a non-unit scalar usually breaks exactness.
    """
    alg = catalog_ring(draw(st.sampled_from(["R1q2", "R2q5", "R3q2", "R4q2"])))
    mods = [m for _, m in sample_modules(alg, count=5, max_dim=4, seed=1)]
    comp = resolution_of(draw(st.sampled_from(mods))).free_complex(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        comp = comp.dual()
    diffs = {}
    for i, d in comp.diffs.items():
        c = draw(st.lists(st.integers(0, alg.p - 1), min_size=alg.dim, max_size=alg.dim))
        scaled = gf.mat_mul(d.entries.reshape(-1, alg.dim), alg.L_of(np.array(c)).T, alg.p)
        diffs[i] = LambdaMatrix(alg, scaled.reshape(d.entries.shape))
    return FreeComplex(alg, comp.ranks, diffs)


@settings(max_examples=60, deadline=None)
@given(scaled_resolution_windows())
def test_free_and_module_complexes_have_equal_defects(comp):
    positions = list(range(comp.lo - 1, comp.hi + 2))
    defects = comp.exactness_defects(positions)
    assert comp.to_module_complex().exactness_defects(positions) == defects
    p = comp.algebra.p
    for i in positions:
        space = comp.ranks.get(i, 0) * comp.algebra.dim
        kerdim = gf.kernel(comp.diffs[i].to_linear(), p)[0].shape[1] \
            if i in comp.diffs else space
        image = gf.rank(comp.diffs[i + 1].to_linear(), p) if i + 1 in comp.diffs else 0
        assert defects[i] == kerdim - image


@pytest.mark.parametrize("rid,bound", [("R1", 8), ("R2", 8), ("R3", 8), ("R4", 6), ("R5", 8)])
def test_components_equal_dense_path_on_every_resolution_step(rid, bound):
    # with the cutover at 0, every kernel and rank of every resolution step
    # and every dualized step goes through the support's components; each
    # equals the dense path's, bit for bit.  Fresh rings keep results other
    # tests cached out of it.  R4 stops at 6: the form of d_8 of k is over
    # the budget, and the dense reference for d_7 alone takes seconds
    for q in (2, 5):
        alg = build_ring(catalog_spec(rid, q))
        mods = [simple_module(alg)] + [m for name, m in sample_modules(
            alg, count=4, max_dim=5, seed=808) if name != "k"]
        diffs = []
        with mock.patch.object(gf, "BLOCK_CELLS", 0):
            for mod in mods:
                res = resolution_of(mod)
                for i in range(1, bound + 1):
                    res.dual_rank(i)
                    diffs += [(lam, lam.kernel_rows(), lam.linear_rank())
                              for lam in (res.diff(i), res.diff(i).transpose())]
        assert len(diffs) == 2 * bound * len(mods)
        for lam, (rows, lead), got_rank in diffs:
            lin = lam.to_linear()
            want_rows, want_lead = gf.kernel_rows(lin, q)
            assert lead == want_lead
            assert rows.dtype == np.int64 and rows.shape == want_rows.shape
            assert (rows == want_rows).all()
            assert got_rank == gf.rank(lin, q)


def test_deep_resolution_builds_no_large_linear_form():
    # k over R1q5 to step 10 and its dual ranks: no differential or
    # transpose above the cutover holds a linear form
    alg = build_ring(catalog_spec("R1", 5))
    res = resolution_of(simple_module(alg))
    assert res.betti_numbers(10)[-1] == 1024
    for i in range(1, 10):
        res.dual_rank(i)
    checked = 0
    for d in res.diffs:
        for lam in (d, d.transpose()):
            if lam.rows * lam.cols * alg.dim ** 2 > gf.BLOCK_CELLS:
                assert LambdaMatrix.to_linear.__qualname__ not in lam._cache
                checked += 1
    assert checked == 8
