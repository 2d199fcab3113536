"""Cross-cutting invariants exercised on seeded random module samples."""

import numpy as np
import pytest

from redhom.algebra import RingSpec, build_monomial_quotient
from redhom.catalog import catalog_ring, sample_modules
from redhom.complexes import minimal_free_resolution, resolution_of
from redhom.gf import rank, solve
from redhom.modules import (
    ModuleRep,
    direct_sum,
    free_module,
    is_isomorphic,
    projective_cover_and_syzygy,
    simple_module,
    split_free_summands,
    transpose_module,
)
from redhom.reducing import (
    connecting_rank,
    ext1_elements,
    free_middle_rank,
    middle_term,
    pd_is_finite,
)
from redhom.torsionfree import is_totally_reflexive_up_to


@pytest.fixture(scope="module")
def R1():
    return catalog_ring("R1", 5)


@pytest.fixture(scope="module")
def R1q2():
    return catalog_ring("R1", 2)


@pytest.fixture(scope="module")
def R3q2():
    return catalog_ring("R3", 2)


@pytest.fixture(scope="module")
def R3():
    return catalog_ring("R3", 5)


def test_syzygy_additive_on_random_samples(R1, R3):
    for alg in (R1, R3):
        mods = [m for _, m in sample_modules(alg, count=4, max_dim=6, seed=42)]
        for a in mods[:2]:
            for b in mods[2:]:
                both = projective_cover_and_syzygy(direct_sum([a, b])).syzygy
                separate = direct_sum([projective_cover_and_syzygy(a).syzygy,
                                       projective_cover_and_syzygy(b).syzygy])
                verdict = is_isomorphic(both, separate, samples=256)
                assert verdict.kind == "yes", (a.dim, b.dim, verdict.certificate)


def _basis_changed(mod, rng):
    """The module with its actions conjugated by a random invertible matrix."""
    alg, d = mod.algebra, mod.dim
    while True:
        g = rng.integers(0, alg.p, size=(d, d), dtype=np.int64)
        if rank(g, alg.p) == d:
            break
    ginv = solve(g, np.eye(d, dtype=np.int64), alg.p)
    return ModuleRep(alg, [(g @ mod.action_arr(j) @ ginv) % alg.p
                           for j in range(alg.num_gens)])


def test_betti_invariant_under_basis_change(R1, R3):
    rng = np.random.default_rng(5)
    for alg in (R1, R3):
        for _, mod in sample_modules(alg, count=3, max_dim=6, seed=7):
            twisted = _basis_changed(mod, rng)
            _, b1 = minimal_free_resolution(mod, 4)
            _, b2 = minimal_free_resolution(twisted, 4)
            assert b1 == b2


def test_stable_double_transpose_on_samples(R1, R3):
    for alg in (R1, R3):
        for name, mod in sample_modules(alg, count=5, max_dim=6, seed=3):
            core = split_free_summands(mod).core
            tt = split_free_summands(transpose_module(transpose_module(mod))).core
            verdict = is_isomorphic(tt, core, samples=256)
            assert verdict.kind == "yes", (name, verdict.certificate)


def test_dimension_filter_soundness_gf2(R1q2, R3q2):
    # triples pruned by the Tor-rank criterion can never contain a free
    # middle: verified here by exhausting them over GF(2).  On R1 the
    # (0,1,1) and (2,1,1) middles have dims 2 and 5, not divisible by 3;
    # the (1,1,1) triples over R1 (16 classes) and R3 (8 classes) pass
    # the dimension test but need a connecting map of rank 2 from a
    # 1-dimensional k / mk
    k1, k3 = simple_module(R1q2), simple_module(R3q2)
    cases = [(k1, 0, 4), (k1, 2, 256), (k1, 1, 16), (k3, 1, 8)]
    for left, n, classes in cases:
        assert free_middle_rank(left, n, 1, 1) is None
        right = resolution_of(left).syzygy_module(n)
        space = ext1_elements(right, left, cap=300_000)
        assert space.exhaustive and 2 ** space.dim == classes
        for element in space.elements():
            middle, _ = middle_term(element)
            assert not pd_is_finite(middle)


def _mu(mod):
    return mod.dim - mod.radical_rows()[0].shape[0]


def _pair_free_middle_rank(left, right):
    """The mu-formula of free_middle_rank for an arbitrary pair A, C."""
    ring_dim = left.algebra.dim
    total = left.dim + right.dim
    if total % ring_dim:
        return None
    needed = _mu(left) + _mu(right) - total // ring_dim
    mu_syz = _mu(projective_cover_and_syzygy(right).syzygy)
    return needed if 0 <= needed <= min(_mu(left), mu_syz) else None


def test_free_middle_rank_is_betti_arithmetic():
    # the Betti-number price of a step equals the mu-formula on the
    # direct sums X^a and (syz^n X)^b that it no longer builds
    priced = 0
    for ring_id, p in (("R1", 2), ("R1", 5), ("R2", 5), ("R3", 2), ("R4", 2)):
        alg = catalog_ring(ring_id, p)
        mods = [simple_module(alg)]
        mods += [m for _, m in sample_modules(alg, count=4, max_dim=5, seed=8)]
        for x in mods:
            for n in range(3):
                syz = resolution_of(x).syzygy_module(n)
                for a in (1, 2):
                    for b in (1, 2):
                        expected = _pair_free_middle_rank(direct_sum([x] * a),
                                                          direct_sum([syz] * b))
                        assert free_middle_rank(x, n, a, b) == expected, \
                            (ring_id, p, x.dim, n, a, b)
                        priced += expected is not None
    assert priced > 60


def test_connecting_rank_oracle_exhaustive():
    # mu(N) = mu(A) + mu(C) - rank delta on every class of small Ext^1
    # spaces, and the Tor-rank freeness verdict matches the built middle;
    # basis-changed copies put the radicals off the coordinate axes
    rng = np.random.default_rng(8)
    checked = free_seen = 0
    for ring_id, p in (("R1", 2), ("R1", 5), ("R2", 5), ("R3", 2), ("R4", 2)):
        alg = catalog_ring(ring_id, p)
        k = simple_module(alg)
        mods = [k, resolution_of(k).syzygy_module(1), free_module(alg, 1)]
        mods += [m for _, m in sample_modules(alg, count=4, max_dim=5, seed=8)]
        mods += [_basis_changed(m, rng) for m in mods[1:]]
        for left in mods:
            for right in mods:
                space = ext1_elements(right, left, cap=64)
                if not space.exhaustive:
                    continue
                needed = _pair_free_middle_rank(left, right)
                for element in space.elements():
                    middle, _ = middle_term(element)
                    delta_rank = connecting_rank(element)
                    assert _mu(middle) == _mu(left) + _mu(right) - delta_rank
                    free = needed is not None and delta_rank == needed
                    assert free == pd_is_finite(middle)
                    checked += 1
                    free_seen += free
    assert checked > 3000 and free_seen > 400


def test_scalar_orbit_middles_isomorphic(R1):
    k = simple_module(R1)
    space = ext1_elements(k, k)
    rng = np.random.default_rng(0)
    for _ in range(4):
        coeffs = tuple(int(c) for c in rng.integers(0, 5, size=space.dim))
        if not any(coeffs):
            continue
        base, _ = middle_term(space.element(coeffs))
        for unit in (2, 3, 4):
            scaled, _ = middle_term(space.element(
                tuple((unit * c) % 5 for c in coeffs)))
            assert is_isomorphic(base, scaled).kind == "yes"


def test_split_element_gives_direct_sum_on_samples(R1, R3):
    for alg in (R1, R3):
        mods = [m for _, m in sample_modules(alg, count=3, max_dim=4, seed=99)]
        for a in mods:
            for c in mods:
                space = ext1_elements(c, a, cap=10_000)
                zero = space.element((0,) * space.dim)
                middle, _ = middle_term(zero)
                verdict = is_isomorphic(middle, direct_sum([a, c]), samples=256)
                assert verdict.kind == "yes"


def test_ext1_dimension_against_resolution_path(R1, R3):
    # the hom-space quotient defining the extension enumeration must agree
    # with the delta-rank computation of Ext^1 on the resolution side
    from redhom.complexes import ext_dims
    for alg in (R1, R3):
        mods = [m for _, m in sample_modules(alg, count=4, max_dim=5, seed=17)]
        for c in mods:
            for a in mods:
                space = ext1_elements(c, a, cap=10)
                table = ext_dims(c, a, 1)
                assert space.dim == table.dims[1], (c.dim, a.dim)


def test_window_verify_free_and_module_paths_agree(R3):
    from redhom.torsionfree import build_window_sequence, verify_window_sequence
    k = simple_module(R3)
    for m, n in ((0, 1), (1, 1), (2, 0)):
        build = build_window_sequence(k, m, n)
        free_verdict = verify_window_sequence(build.complex, m, n, "(4)")
        module_verdict = verify_window_sequence(
            build.complex.to_module_complex(), m, n, "(4)")
        assert free_verdict.ok == module_verdict.ok == True
        assert free_verdict.primal_defects == module_verdict.primal_defects
        assert free_verdict.dual_defects == module_verdict.dual_defects
    # the resolution window of k over R1 at (1, 0): exact, dual not exact
    window = resolution_of(simple_module(catalog_ring("R1", 5))).free_complex(2)
    verdicts = [verify_window_sequence(comp, 1, 0, "(4)")
                for comp in (window, window.to_module_complex())]
    for verdict in verdicts:
        assert not verdict.ok
        assert verdict.dual_defects == {-1: 3}
    assert verdicts[0].primal_defects == verdicts[1].primal_defects


def test_ring_rejects_composite_modulus():
    # check_modulus guards every ring, so no array ever carries a composite modulus
    with pytest.raises(ValueError, match="not prime"):
        build_monomial_quotient(RingSpec(
            "monomial_quotient", 6, variables=["x"], ideal=["x^2"]))


def test_transpose_of_free_is_zero_on_catalog(R1, R3):
    for alg in (R1, R3):
        for r in (0, 1, 2):
            assert transpose_module(free_module(alg, r)).dim == 0


def test_gorenstein_line_family():
    # is_gorenstein holds along k[x]/(x^e) and the engine's Ext agrees
    for e in range(2, 7):
        alg = build_monomial_quotient(RingSpec(
            "monomial_quotient", 5, variables=["x"], ideal=[f"x^{e}"]))
        assert alg.is_gorenstein
        from redhom.complexes import ext_dims, ring_module
        dims = ext_dims(simple_module(alg), ring_module(alg), 4).dims
        assert dims == (1, 0, 0, 0, 0)


def _gdim_oracle_modules(alg):
    """Samples, their first syzygies, direct sums, and the level-1 middles
    of a ured gdim search from k (n <= 1) and from syz k (n = 0)."""
    mods = [m for _, m in sample_modules(alg, count=4, max_dim=4, seed=3)]
    mods += [projective_cover_and_syzygy(m).syzygy for m in mods]
    mods += [direct_sum([a, b]) for a, b in zip(mods[:4], mods[1:5])]
    k = simple_module(alg)
    syz_k = projective_cover_and_syzygy(k).syzygy
    for left, right in ((k, k), (k, syz_k), (syz_k, syz_k)):
        space = ext1_elements(right, left, cap=64)
        mods += [middle_term(e)[0] for e in space.elements(
            scalar_orbits=space.exhaustive, samples=4)]
    return [m for m in mods if m.dim]


@pytest.mark.parametrize("p", [2, 5])
def test_totally_reflexive_is_free_over_square_zero_non_gorenstein(p):
    # the exact rule a gdim search uses over R1, against the bounded test
    mods = _gdim_oracle_modules(catalog_ring("R1", p))
    free = [pd_is_finite(m) for m in mods]
    assert any(free) and not all(free)
    for t in (1, 2, 3):
        assert [is_totally_reflexive_up_to(m, t) for m in mods] == free


@pytest.mark.parametrize("ring_id", ["R2", "R3", "R4"])
@pytest.mark.parametrize("p", [2, 5])
def test_every_module_totally_reflexive_over_artinian_gorenstein(ring_id, p):
    for m in _gdim_oracle_modules(catalog_ring(ring_id, p)):
        assert is_totally_reflexive_up_to(m, 3)
