import numpy as np
import pytest

from redhom.algebra import RingSpec, build_from_structure_constants, build_monomial_quotient
from redhom.complexes import (
    FreeComplex,
    ModuleComplex,
    apply_dual,
    bass_numbers,
    check_exactness,
    ext_dims,
    ext_dims_via_dual_complex,
    ext_ring_dim,
    minimal_free_resolution,
    resolution_of,
    ring_module,
)
from redhom.modules import (
    LambdaMatrix,
    ModuleMap,
    ModuleRep,
    direct_sum,
    free_module,
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
    assert ext_ring_dim(simple_module(R1), 1) == table.dims[1]


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
