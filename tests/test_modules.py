import gc
import itertools
import weakref
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
from redhom.catalog import catalog_ring, catalog_spec, module_from_spec, sample_modules
from redhom.complexes import ModuleComplex, ext_dims, resolution_of, ring_module
from redhom.reducing import SearchLimits, search_reducing
from redhom.torsionfree import torsionfree_classify
from redhom.modules import (
    LambdaMatrix,
    ModuleError,
    ModuleRep,
    cokernel_of_lambda_matrix,
    direct_sum,
    free_module,
    has_free_summand,
    hom_dim,
    hom_module,
    hom_space,
    is_isomorphic,
    lambda_from_linear,
    minimal_presentation,
    projective_cover_and_syzygy,
    quotient_module,
    simple_module,
    span_submodule,
    split_free_summands,
    submodule_from_rows,
    transpose_module,
    zero_module,
)

from module_helpers import (
    commuting_system,
    dual_module,
    is_module_map,
    map_from_coords,
    ring_by_actions,
    split_target,
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


def brute_hom_dim(M, N):
    """Oracle: count module maps by enumerating all matrices (tiny sizes only)."""
    p = M.algebra.p
    count = 0
    for entries in itertools.product(range(p), repeat=N.dim * M.dim):
        f = np.array(entries, dtype=np.int64).reshape(N.dim, M.dim)
        ok = all(((f @ M.action_arr(j)) % p == (N.action_arr(j) @ f) % p).all()
                 for j in range(M.algebra.num_gens))
        if ok:
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def test_free_module_regular_representation(R1):
    F = free_module(R1, 1)
    assert F.dim == 3
    # action of x = column of the multiplication table
    x = np.eye(3, dtype=np.int64)[1]
    assert (F.action_arr(0) == R1.L_of(x)).all()
    assert free_module(R1, 0).dim == 0


def test_free_module_nilpotent_square(R2):
    F = free_module(R2, 2)
    assert F.dim == 4
    a = F.action_arr(0)
    assert ((a @ a) % 5 == 0).all()
    assert a.any()


def test_cover_and_syzygy_of_k(R1, R2):
    k1 = simple_module(R1)
    data = projective_cover_and_syzygy(k1)
    assert data.cover.shape == (1, 3)
    assert data.syzygy.dim == 2
    assert all(not data.syzygy.action_arr(j).any() for j in range(2))
    k2 = simple_module(R2)
    assert projective_cover_and_syzygy(k2).syzygy.dim == 1


def test_cover_of_free_is_iso(R1):
    F = free_module(R1, 1)
    data = projective_cover_and_syzygy(F)
    assert data.syzygy.dim == 0
    assert gf.rank(data.cover, 5) == 3


def test_cokernel_examples(R1, R2):
    x = np.zeros((1, 1, 2), dtype=np.int64)
    x[0, 0, 1] = 1
    cok, proj = cokernel_of_lambda_matrix(LambdaMatrix(R2, x))
    assert cok.dim == 1
    ident = np.zeros((1, 1, 2), dtype=np.int64)
    ident[0, 0, 0] = 1
    zero, _ = cokernel_of_lambda_matrix(LambdaMatrix(R2, ident))
    assert zero.dim == 0
    row = np.zeros((1, 2, 3), dtype=np.int64)
    row[0, 0, 1] = 1  # x
    row[0, 1, 2] = 1  # y
    cok1, _ = cokernel_of_lambda_matrix(LambdaMatrix(R1, row))
    assert cok1.dim == 1
    assert not cok1.action_arr(0).any() and not cok1.action_arr(1).any()


def test_hom_free_source_is_target(R1):
    F = free_module(R1, 1)
    k = simple_module(R1)
    assert hom_space(F, k).dim == 1
    assert hom_space(F, F).dim == 3


def test_hom_examples_against_brute_force(R1, R2):
    k2 = simple_module(R2)
    F2 = free_module(R2, 1)
    assert brute_hom_dim(k2, F2) == 1
    assert hom_space(k2, F2).dim == 1
    k1 = simple_module(R1)
    F1 = free_module(R1, 1)
    assert brute_hom_dim(k1, F1) == 2
    assert hom_space(k1, F1).dim == 2


def test_hom_module_ring_action(R2):
    k = simple_module(R2)
    F = free_module(R2, 1)
    H = hom_module(F, F)
    # Hom(Lambda, Lambda) is free of rank one
    assert H.module.dim == 2
    split = split_free_summands(H.module)
    assert split.free_rank == 1 and split.core.dim == 0
    Hk = hom_module(k, F)
    assert Hk.module.dim == 1
    assert not Hk.module.action_arr(0).any()


def test_transpose_examples(R1, R2):
    k2 = simple_module(R2)
    t2 = transpose_module(k2)
    assert t2.dim == 1
    assert is_isomorphic(t2, k2).kind == "yes"
    F = free_module(R2, 2)
    assert transpose_module(F).dim == 0
    k1 = simple_module(R1)
    t1 = transpose_module(k1)
    # oracle: dim coker = 2*3 - rank, with rank counted by brute-force span
    pres = minimal_presentation(k1)
    lin = pres.transpose().to_linear()
    span = {tuple((lin @ np.array(c)) % 5) for c in itertools.product(range(5), repeat=3)}
    rank = 0
    while 5**rank < len(span):
        rank += 1
    assert 5**rank == len(span)
    assert t1.dim == 6 - rank
    assert t1.dim == 5


def test_transpose_of_transpose_stable(R1, R2, R3, R4):
    for alg in (R1, R2, R3, R4):
        k = simple_module(alg)
        tt = transpose_module(transpose_module(k))
        core = split_free_summands(tt).core
        assert is_isomorphic(core, k).kind == "yes"


def test_split_free_summands(R2):
    k = simple_module(R2)
    F = free_module(R2, 1)
    M = direct_sum([F, k])
    res = split_free_summands(M)
    assert res.free_rank == 1
    assert res.core.dim == 1
    assert is_isomorphic(res.core, k).kind == "yes"
    assert is_module_map(M, split_target(res), res.iso)
    kk = direct_sum([k, k])
    assert split_free_summands(kk).free_rank == 0
    FF = free_module(R2, 2)
    resFF = split_free_summands(FF)
    assert resFF.free_rank == 2 and resFF.core.dim == 0


@pytest.mark.parametrize("rid", ["R1", "R2", "R3", "R4", "R5"])
@pytest.mark.parametrize("q", [2, 5])
def test_has_free_summand_matches_hom_criterion(rid, q):
    # the d_1^T test against its definition: some M -> Lambda hits a unit
    alg = catalog_ring(rid, q)
    ring = free_module(alg, 1)
    mods = [mod for _, mod in sample_modules(alg, count=4, max_dim=6, seed=31)]
    mods += [direct_sum([mod, ring]) for mod in mods[:3]]
    mods += [free_module(alg, 2), zero_module(alg)]
    seen = set()
    for mod in mods:
        hom = hom_space(mod, ring).basis
        want = bool(hom[:, 0].any()) if hom.size else False
        assert has_free_summand(mod) == want
        assert (split_free_summands(mod).free_rank > 0) == want
        seen.add(want)
    assert seen == {True, False}


def test_split_without_free_summand_builds_no_hom_space(R2, monkeypatch):
    calls = []
    hom = modules.hom_space

    def counted(*args):
        calls.append(args)
        return hom(*args)

    monkeypatch.setattr(modules, "hom_space", counted)
    k = simple_module(R2)
    kk = direct_sum([k, k])
    split = split_free_summands(kk)
    assert split.free_rank == 0 and split.core is kk
    assert calls == []
    # with a free summand the rounds still read Hom(M, Lambda)
    assert split_free_summands(direct_sum([k, free_module(R2, 1)])).free_rank == 1
    assert calls


def test_is_isomorphic_verdicts(R2):
    k = simple_module(R2)
    F = free_module(R2, 1)
    yes = is_isomorphic(k, k)
    assert yes.kind == "yes" and np.array_equal(yes.witness, np.eye(1, dtype=np.int64))
    no = is_isomorphic(k, F)
    assert no.kind == "no" and "dimension" in no.certificate
    # same dims, different radical series
    kk = direct_sum([k, k])
    no2 = is_isomorphic(kk, F)
    assert no2.kind == "no"


def test_is_isomorphic_unknown_comes_only_from_sampling(R1):
    k = simple_module(R1)
    big = direct_sum([k] * 4)
    # Hom(k^4, k^4) has dim 16, 5^16 over the cap: falls back to sampling,
    # which easily finds an isomorphism here.
    got = is_isomorphic(big, direct_sum([k] * 4), exhaust_cap=1000)
    assert got.kind == "yes" and got.method == "random"


def test_is_isomorphic_caches_end_dimensions(monkeypatch, R2):
    # a repeated test computes only Hom(M, N); dim End is kept on each module
    k = simple_module(R2)
    m = direct_sum([k, free_module(R2, 1)])
    n = direct_sum([k, free_module(R2, 1)])
    first = is_isomorphic(m, n)
    calls = []
    hom = modules.hom_space

    def recorded(source, target):
        calls.append((source, target))
        return hom(source, target)

    monkeypatch.setattr(modules, "hom_space", recorded)
    again = is_isomorphic(m, n)
    assert calls == [(m, n)]
    assert (again.kind, again.method, again.certificate) == \
        (first.kind, first.method, first.certificate)
    assert np.array_equal(again.witness, first.witness)


def test_is_isomorphic_repeated_on_a_pair_recomputes_only_the_hom_basis(monkeypatch):
    # the radical series, dim End and the presentation of M (with its
    # kernel of Hom(d_1, N)) are kept on the modules, so of every
    # elimination entry point a repeated test runs only the canonical
    # basis of Hom(M, N) (one row_basis of its 3 maps of 3 x 3, through
    # _rref_rows) and the rank scan of its 2^3 candidates (batch_pivots)
    A = catalog_ring("R3q2")
    m = projective_cover_and_syzygy(simple_module(A)).syzygy
    n = transpose_module(transpose_module(m))
    first = is_isomorphic(m, n)
    calls = []
    for name in ("_rref_rows", "echelon_pivots", "batch_pivots", "batch_rref",
                 "component_kernel_rows", "component_rank", "component_pivots"):
        def recorded(*args, _name=name, _fn=getattr(gf, name)):
            calls.append((_name, np.shape(args[0])))
            return _fn(*args)

        monkeypatch.setattr(gf, name, recorded)
    again = is_isomorphic(m, n)
    assert calls == [("_rref_rows", (3, 9)), ("batch_pivots", (8, 3, 3))]
    assert (again.kind, again.method, again.certificate) == \
        (first.kind, first.method, first.certificate)
    assert np.array_equal(again.witness, first.witness)


def test_linear_form_over_budget_is_not_cached(monkeypatch, R1):
    # a refused form is refused again, and built once the budget allows it;
    # so is a rank over a module, whose dense form is not kept
    lam = LambdaMatrix(R1, np.arange(12).reshape(2, 2, 3))
    k = simple_module(R1)
    monkeypatch.setattr(gf, "LINEAR_FORM_BUDGET_BYTES", 8)
    for _ in range(2):
        with pytest.raises(gf.LinearFormBudgetError, match="2 x 2 matrix over the algebra"):
            lam.to_linear()
        with pytest.raises(gf.LinearFormBudgetError, match="over a module of dimension 1"):
            lam.linear_rank(k)
    monkeypatch.undo()
    assert lam.to_linear().shape == (6, 6)
    assert lam.to_linear() is lam.to_linear()
    assert lam.linear_rank(k) == gf.rank(np.arange(4).reshape(2, 2) * 3 % 5, 5)


def test_maps_between_algebras_refused():
    # arrays carry no modulus: a complex's one algebra is what keeps fields
    # from mixing, whether or not the moduli differ
    k2 = simple_module(catalog_ring("R1", 2))
    for other in (catalog_ring("R1", 5), catalog_ring("R2", 2)):
        with pytest.raises(ModuleError, match="different algebras"):
            ModuleComplex({1: k2, 0: simple_module(other)}, {1: np.eye(1, dtype=np.int64)})


def test_direct_sum_and_maps(R2):
    k = simple_module(R2)
    M = direct_sum([k, free_module(R2, 1)], R2)   # k + ring is not all free
    S = direct_sum([k, M])
    assert S.dim == 1 + M.dim
    for j in range(R2.num_gens):
        act = S.action_arr(j)
        assert np.array_equal(act[:1, :1], k.action_arr(j))
        assert np.array_equal(act[1:, 1:], M.action_arr(j))
        assert not act[:1, 1:].any() and not act[1:, :1].any()
    assert direct_sum([M]) is M
    assert direct_sum([k], R2) is k
    assert direct_sum([], R2).dim == 0
    z = direct_sum([zero_module(R2), zero_module(R2)])
    assert z.dim == 0


def test_syzygy_additive(R2, R1):
    for alg in (R2, R1):
        k = simple_module(alg)
        F = free_module(alg, 1)
        M = direct_sum([k, F])
        sM = projective_cover_and_syzygy(M).syzygy
        sk = projective_cover_and_syzygy(k).syzygy
        assert is_isomorphic(sM, sk).kind == "yes"


def test_span_submodule_socle(R1):
    F = free_module(R1, 1)
    x = np.array([[0], [1], [0]], dtype=np.int64)
    sub, incl = span_submodule(F, x)
    assert sub.dim == 1
    assert is_module_map(sub, F, incl)
    one = np.array([[1], [0], [0]], dtype=np.int64)
    sub2, _ = span_submodule(F, one)
    assert sub2.dim == 3


def test_module_validation_catches_bad_actions(R2):
    # x cannot act as the identity because x^2 = 0 in the ring
    with pytest.raises(ModuleError):
        ModuleRep(R2, [np.eye(1, dtype=np.int64)], validate=True)


def test_one_constructor_takes_dim_without_generators(R1):
    field = catalog_ring("R5", 5)
    assert ModuleRep(field, [], dim=3).dim == 3
    assert simple_module(field).dim == 1 and zero_module(field).dim == 0
    assert ModuleRep(R1, [np.zeros((2, 2), dtype=np.int64)] * 2, dim=2).dim == 2
    for algebra, actions, dim in ((field, [], None), (field, [], -1),
                                  (R1, [np.zeros((2, 2), dtype=np.int64)] * 2, 3)):
        with pytest.raises(ModuleError):
            ModuleRep(algebra, actions, dim=dim)


def test_noncommuting_actions_rejected(R1):
    a = np.array([[0, 1], [0, 0]], dtype=np.int64)
    b = np.array([[0, 0], [1, 0]], dtype=np.int64)
    with pytest.raises(ModuleError):
        ModuleRep(R1, [a, b], validate=True)


def test_equal_modules_are_one_object():
    # every construction returns the live module of equal content: k over
    # R1 = k[x, y]/(x, y)^2 as the socle line x*Lambda, as Lambda/m (a
    # quotient and a cokernel) and as a document; k + k by a sum and as a
    # document; the second syzygy of k as a span of its own rows
    alg = build_ring(catalog_spec("R1", 5))
    k, F = simple_module(alg), free_module(alg, 1)
    x = np.array([[0], [1], [0]], dtype=np.int64)
    assert span_submodule(F, x)[0] is k
    rad_rows, rad_piv = F.radical_rows()
    assert quotient_module(F, rad_rows, rad_piv)[0] is k
    entries = np.zeros((1, 2, 3), dtype=np.int64)
    entries[0, 0, 1] = entries[0, 1, 2] = 1
    assert cokernel_of_lambda_matrix(LambdaMatrix(alg, entries))[0] is k
    assert module_from_spec(alg, {"presentation": entries.tolist()}) is k
    assert module_from_spec(alg, {"actions": [[[0]], [[0]]]}) is k
    kk = direct_sum([k, k])
    assert direct_sum([k, k]) is kk
    assert module_from_spec(alg, {"actions": [np.zeros((2, 2), int).tolist()] * 2}) is kk
    res = resolution_of(k)
    syz2 = module_from_spec(alg, "syzygy:2:k")
    cover = projective_cover_and_syzygy(res.syzygy_module(1))
    rows = np.asarray(cover.inclusion.T)
    assert submodule_from_rows(cover.free, rows, cover.pivots)[0] is syz2
    assert free_module(alg, 2) is direct_sum([F, F]) is module_from_spec(alg, "free:2")


def test_unequal_modules_stay_distinct():
    # other actions, another algebra, or Lambda^r given by actions
    alg = build_ring(catalog_spec("R1", 2))
    twin_ring = build_ring(catalog_spec("R1", 2))
    zeros = ModuleRep(alg, [np.zeros((2, 2), dtype=np.int64)] * 2)
    shifted = np.array([[0, 0], [1, 0]], dtype=np.int64)
    other = ModuleRep(alg, [shifted, np.zeros((2, 2), dtype=np.int64)])
    assert zeros is not other and zeros.dim == other.dim
    assert simple_module(alg) is not simple_module(twin_ring)
    assert simple_module(alg).algebra is alg
    assert ModuleRep(twin_ring, [np.zeros((1, 1), dtype=np.int64)] * 2) is simple_module(twin_ring)
    lam = ring_by_actions(alg)
    assert lam is not free_module(alg, 1) and lam.free_rank is None
    assert lam is ring_by_actions(alg)
    assert direct_sum([lam, lam]) is not free_module(alg, 2)


def test_cached_radical_rows_and_socle_are_read_only():
    # a cached value is shared by every later caller, so algebra.cached
    # makes the arrays it stores read-only; these two were once writable,
    # and a write to one changed what the next call returned
    alg = catalog_ring("R1q5")
    _, mod = sample_modules(alg, count=6, max_dim=6, seed=20240)[-1]
    for rows in (mod.radical_rows()[0], alg.socle()[0]):
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[...] = 0


def test_interned_module_is_freed_with_its_last_reference():
    # the table holds modules weakly: a module no one holds is freed, and
    # its entry goes too
    alg = build_ring(catalog_spec("R3", 5))
    mod = ModuleRep(alg, [np.array([[0, 0], [1, 0]], dtype=np.int64),
                          np.array([[0, 0], [2, 0]], dtype=np.int64)], validate=True)
    projective_cover_and_syzygy(mod)
    key = (mod.dim, modules._digest(mod._actions))
    assert alg.modules[key] is mod
    ref, count = weakref.ref(mod), len(alg.modules)
    del mod
    gc.collect()
    assert ref() is None
    assert key not in alg.modules and len(alg.modules) < count


def test_validation_runs_even_when_an_unvalidated_twin_is_alive():
    # x cannot act as the identity because x^2 = 0 in R2; neither can x and
    # y act by matrices that do not commute
    alg = build_ring(catalog_spec("R2", 5))
    bad = ModuleRep(alg, [np.eye(1, dtype=np.int64)])
    with pytest.raises(ModuleError):
        ModuleRep(alg, [np.eye(1, dtype=np.int64)], validate=True)
    assert ModuleRep(alg, [np.eye(1, dtype=np.int64)]) is bad
    R1 = build_ring(catalog_spec("R1", 5))
    a = np.array([[0, 1], [0, 0]], dtype=np.int64)
    b = np.array([[0, 0], [1, 0]], dtype=np.int64)
    ModuleRep(R1, [a, b])
    with pytest.raises(ModuleError, match="do not commute"):
        ModuleRep(R1, [a, b], validate=True)


def test_digest_collisions_keep_unequal_modules_apart(monkeypatch):
    # with every digest equal, a hit is accepted only for equal arrays
    monkeypatch.setattr(modules, "_digest", lambda actions: b"")
    alg = build_ring(catalog_spec("R1", 5))
    shapes = [np.array([[0, 0], [c, 0]], dtype=np.int64) for c in range(3)]
    mods = [ModuleRep(alg, [s, s]) for s in shapes]
    assert len(set(map(id, mods))) == 3
    for s, mod in zip(shapes, mods):
        assert np.array_equal(mod.action_arr(0), s) and np.array_equal(mod.action_arr(1), s)
    assert ModuleRep(alg, [shapes[0], shapes[0]]) is mods[0]


def _oracle(alg):
    """Betti numbers, Ext, classes, Hom bases, isomorphism verdicts and
    1-step searches of alg's sample modules, as plain data."""
    mods = [m for _, m in sample_modules(alg, count=6, max_dim=6, seed=29)]
    out = []
    for m in mods:
        res = resolution_of(m).extend(6)
        out.append((list(res.betti[:7]), list(ext_dims(m, ring_module(alg), 6).dims),
                    torsionfree_classify(m, 2).to_jsonable()))
    for a, b in itertools.product(mods, repeat=2):
        space, iso = hom_space(a, b), is_isomorphic(a, b)
        out.append((space.kernel.tolist(), space.basis.tolist(), iso.kind, iso.certificate,
                    None if iso.witness is None else iso.witness.tolist()))
    for m, (mode, limits) in itertools.product(mods, [
            ("red", SearchLimits(max_steps=1)), ("ured", SearchLimits(max_steps=1, n_max=2, ab_max=2))]):
        result = search_reducing(m, mode, "pd", limits)
        out.append((result.found, result.tested, result.pruned,
                    result.witness.to_jsonable() if result.witness else None))
    return out


@pytest.mark.parametrize("q", [2, 5])
@pytest.mark.parametrize("rid", ["R1", "R2", "R3", "R4", "R5"])
def test_interned_results_equal_a_ring_that_shares_nothing(rid, q, monkeypatch):
    # the catalog ring's modules are shared with every earlier computation
    # on it; the reference ring is fresh and gives every module its own
    # digest, so no two modules built from actions are ever one object
    got = _oracle(catalog_ring(rid, q))
    fresh = itertools.count()
    monkeypatch.setattr(modules, "_digest", lambda actions: next(fresh))
    assert got == _oracle(build_ring(catalog_spec(rid, q)))


def test_lambda_matrix_roundtrip(R1):
    entries = np.zeros((2, 1, 3), dtype=np.int64)
    entries[0, 0, 1] = 1
    entries[1, 0, 2] = 1
    lam = LambdaMatrix(R1, entries)
    lin = lam.to_linear()
    back = lambda_from_linear(R1, lin, 2, 1)
    assert (back.entries == lam.entries).all()
    assert lam.transpose().rows == 1 and lam.transpose().cols == 2
    assert lam.in_radical()


def test_transpose_is_cached_and_involutive(R1):
    lam = LambdaMatrix(R1, np.arange(12).reshape(2, 2, 3))
    dual = lam.transpose()
    assert lam.transpose() is dual and dual.transpose() is lam
    assert (dual.entries == lam.entries.transpose(1, 0, 2) % R1.p).all()


def test_lambda_matrix_keeps_read_only_reduced_cells_of_its_input(R1):
    p = R1.p
    want = np.arange(12).reshape(2, 2, 3) % p
    # later writes to the caller's array never reach the matrix
    given = np.arange(12).reshape(2, 2, 3)
    lam = LambdaMatrix(R1, given)
    given[:] = 0
    assert (lam.entries == want).all()
    # out-of-range input is reduced mod p; an entry that reduces to zero
    # holds no cell
    loud = want + p * np.array([-3, 0, 7])
    loud[0, 1] = p * np.array([1, -2, 0])
    lam = LambdaMatrix(R1, loud)
    want[0, 1] = 0
    assert (lam.entries == want).all()
    nz = lam.nonzero
    assert (nz.rows.tolist(), nz.cols.tolist()) == ([0, 1, 1], [0, 0, 1])
    # the cells are read-only, and entries is a fresh array on each read
    for a in (nz.rows, nz.cols, nz.vals):
        assert not a.flags.writeable
    assert lam.entries is not lam.entries
    assert not np.shares_memory(lam.entries, nz.vals)
    # a transpose holds its own cells, in its row-major order
    dual = lam.transpose().nonzero
    assert (dual.rows.tolist(), dual.cols.tolist()) == ([0, 0, 1], [0, 1, 1])
    assert (np.asarray(dual) == want.transpose(1, 0, 2)).all()


def test_hom_functoriality_random(R3):
    k = simple_module(R3)
    F = free_module(R3, 1)
    hk = hom_space(k, F)
    hf = hom_space(F, F)
    for space, source, target in ((hk, k, F), (hf, F, F)):
        assert space.basis.shape == (space.dim, target.dim, source.dim)
        assert not space.basis.flags.writeable
        for t, f in enumerate(space.basis):
            assert np.array_equal(f.reshape(-1), space.kernel[:, t])
    for f in hk.basis:
        for g in hf.basis:
            comp = gf.mat_mul(g, f, R3.p)
            assert is_module_map(k, F, comp)
            assert np.array_equal(map_from_coords(hk, hk.coords(comp)), comp)


def test_dual_module_of_k(R1, R2):
    assert dual_module(simple_module(R2)).module.dim == 1
    assert dual_module(simple_module(R1)).module.dim == 2


@pytest.mark.parametrize("q", [2, 5])
@pytest.mark.parametrize("rid", ["R1", "R2", "R3", "R4"])
def test_hom_module_actions_match_kronecker_formula(rid, q):
    alg = catalog_ring(rid, q)
    mods = [mod for _, mod in sample_modules(alg, count=5, max_dim=6, seed=606)]
    for source, target in itertools.product(mods, repeat=2):
        hm = hom_module(source, target)
        space = hm.space
        if space.dim == 0:
            continue
        eye_m = np.eye(source.dim, dtype=np.int64)
        for j in range(alg.num_gens):
            moved = (np.kron(target.action_arr(j), eye_m) @ space.kernel) % q
            assert (hm.module.action_arr(j) == moved[list(space.free_coords)]).all()


def _hom_samples(alg):
    """Fresh sources and targets for Hom: zero, free, k, syzygies, transposes, samples."""
    k = ModuleRep(alg, [np.zeros((1, 1), dtype=np.int64)] * alg.num_gens, dim=1)
    syz = projective_cover_and_syzygy(k).syzygy
    mods = [zero_module(alg), free_module(alg, 1), free_module(alg, 2), k, syz,
            projective_cover_and_syzygy(syz).syzygy, transpose_module(k),
            transpose_module(syz)]
    return mods + [mod for _, mod in sample_modules(alg, count=6, max_dim=6, seed=17)]


@pytest.mark.parametrize("q", [2, 5])
@pytest.mark.parametrize("rid", ["R1", "R2", "R3", "R4", "R5"])
def test_hom_system_matches_kronecker_formula(rid, q):
    # the reference system is the Kronecker formula, and hom_space, which
    # reads Hom(M, N) off the presentation of M, has its kernel, basis and
    # free coordinates: gf.kernel of that system, entry for entry, with the
    # kernel of Hom(d_1, N) on both sides of the cutover (a fresh ring for
    # each, so no module and no kernel is shared between them)
    for cutover in (gf.BLOCK_CELLS, 0):
        alg = build_ring(catalog_spec(rid, q))
        mods = _hom_samples(alg)
        with mock.patch.object(gf, "BLOCK_CELLS", cutover):
            for source, target in itertools.product(mods, repeat=2):
                eye_m = np.eye(source.dim, dtype=np.int64)
                eye_n = np.eye(target.dim, dtype=np.int64)
                blocks = [(np.kron(eye_n, source.action_arr(j).T)
                           - np.kron(target.action_arr(j), eye_m)) % q
                          for j in range(alg.num_gens)]
                system = commuting_system(source, target)
                assert np.array_equal(system, np.vstack(blocks) if blocks else
                                      np.zeros((0, target.dim * source.dim), dtype=np.int64))
                want = np.zeros((target.dim * source.dim, 0), dtype=np.int64), ()
                if source.dim and target.dim:
                    want = gf.kernel(system, q)
                space = hom_space(source, target)
                assert space.kernel.dtype == np.int64 and space.kernel.shape == want[0].shape
                assert (space.kernel == want[0]).all()
                assert space.free_coords == want[1]
                assert (space.basis == want[0].T.reshape(space.basis.shape)).all()
                assert not (space.kernel.flags.writeable or space.basis.flags.writeable)


@pytest.mark.parametrize("q", [2, 5])
@pytest.mark.parametrize("rid", ["R1", "R2", "R3", "R4", "R5"])
def test_hom_dim_is_hom_space_dim_and_ext0(rid, q):
    # mu(M) * dim N - rank Hom(d_1, N) is the dimension of the basis and of
    # Ext^0 read off the resolution
    alg = catalog_ring(rid, q)
    mods = _hom_samples(alg)
    for source, target in itertools.product(mods, repeat=2):
        assert hom_dim(source, target) == hom_space(source, target).dim \
            == resolution_of(source).ext_dim(0, target)


def test_hom_refuses_modules_over_another_algebra():
    k2, k5 = simple_module(catalog_ring("R1", 2)), simple_module(catalog_ring("R1", 5))
    for fn in (hom_space, hom_dim):
        with pytest.raises(ModuleError, match="different algebras"):
            fn(k2, k5)


def _sequential_iso_scan(m, n):
    """Reference for the exhaustive branch: one lincomb and rank per tuple."""
    p = m.algebra.p
    stack = hom_space(m, n).basis
    for coeffs in itertools.product(range(p), repeat=stack.shape[0]):
        cand = gf.lincomb(np.array(coeffs, dtype=np.int64), stack, p)
        if gf.rank(cand, p) == m.dim:
            return "yes", cand
    return "no", None


def _assert_matches_sequential_scan(m, n):
    verdict = is_isomorphic(m, n)
    assert verdict.method == "exhaustive"
    kind, witness = _sequential_iso_scan(m, n)
    assert verdict.kind == kind
    if witness is None:
        assert verdict.witness is None
    else:
        assert (verdict.witness == witness).all()


def _transpose_duality_pairs():
    pairs = []
    for rid in ("R1", "R2", "R3", "R4", "R5"):
        for _, mod in sample_modules(catalog_ring(rid, 2), count=5, max_dim=8, seed=606):
            core = split_free_summands(mod).core
            tt = transpose_module(transpose_module(mod))
            pairs.append((split_free_summands(tt).core, core))
    return pairs


@pytest.mark.parametrize("chunk_entries", [None, 30])
def test_is_isomorphic_equals_sequential_scan_on_transpose_duality(monkeypatch, chunk_entries):
    if chunk_entries is not None:
        # a few candidates per chunk, so witnesses sit past chunk boundaries
        monkeypatch.setattr(modules, "_ISO_CHUNK_ENTRIES", chunk_entries)
    checked = 0
    for ttcore, core in _transpose_duality_pairs():
        if is_isomorphic(ttcore, core).method == "exhaustive":
            _assert_matches_sequential_scan(ttcore, core)
            checked += 1
    assert checked >= 10


def _non_isomorphic_cyclic_pair():
    # two cyclic R4q5 modules with equal invariants and no invertible hom
    mods = dict(sample_modules(catalog_ring("R4", 5), count=5, max_dim=5, seed=606))
    return mods["cyclic#4"], mods["cyclic#8"]


@pytest.mark.parametrize("chunk_entries", [None, 1])
def test_is_isomorphic_exhaustive_no_equals_sequential_scan(monkeypatch, chunk_entries):
    if chunk_entries is not None:
        # one candidate per chunk: the 25 homs span 25 chunks
        monkeypatch.setattr(modules, "_ISO_CHUNK_ENTRIES", chunk_entries)
    m, n = _non_isomorphic_cyclic_pair()
    verdict = is_isomorphic(m, n)
    assert verdict.kind == "no"
    assert verdict.certificate == "no invertible among all 25 homs"
    _assert_matches_sequential_scan(m, n)


def test_is_isomorphic_witness_beyond_first_chunk():
    # Hom(k^4, k^4) has dim 16 over GF(2): 65,536 candidates of 16 entries,
    # and the first invertible one (the anti-diagonal) is candidate 4,680,
    # past the first chunk.
    k = simple_module(catalog_ring("R1", 2))
    big = direct_sum([k] * 4)
    assert modules._ISO_CHUNK_ENTRIES // big.dim ** 2 <= 4680
    _assert_matches_sequential_scan(big, direct_sum([k] * 4))


@pytest.mark.parametrize("rid,q", [("R1", 2), ("R2", 5), ("R3", 2)])
def test_is_isomorphic_witness_follows_product_order(rid, q):
    # k (+) Lambda against a copy in an upper unitriangular basis: several
    # candidates are invertible, and the first in product order is not the
    # first in digit-reversed order
    alg = catalog_ring(rid, q)
    m = direct_sum([simple_module(alg), free_module(alg, 1)])
    g = np.triu(np.ones((m.dim, m.dim), dtype=np.int64))
    ginv = gf.solve(g, np.eye(m.dim, dtype=np.int64), q)
    n = ModuleRep(alg, [(g @ m.action_arr(j) @ ginv) % q for j in range(alg.num_gens)])
    _assert_matches_sequential_scan(m, n)


@pytest.mark.parametrize("shape", [(2, 3), (1, 1), (3, 1), (0, 2), (2, 0)])
def test_transpose_linear_form_by_blocks_equals_product_form(R1, R4, monkeypatch, shape):
    # lin(d^T) is lin(d) with its D x D blocks swapped; whichever side is
    # built first, the other is read off it with no product
    for alg in (R1, R4):
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        entries = rng.integers(0, alg.p, size=shape + (alg.dim,), dtype=np.int64)
        # separate matrices with no transpose partner take the product path
        want = LambdaMatrix(alg, entries).to_linear()
        want_t = LambdaMatrix(alg, entries.transpose(1, 0, 2)).to_linear()
        for dual_first in (False, True):
            lam = LambdaMatrix(alg, entries)
            first, second = (lam.transpose(), lam) if dual_first else (lam, lam.transpose())
            first.to_linear()
            calls = []
            monkeypatch.setattr(gf, "mat_mul", lambda *a: calls.append(a))
            got = second.to_linear()
            monkeypatch.undo()
            assert not calls
            assert not got.flags.writeable and got.dtype == np.int64
            assert (lam.to_linear() == want).all()
            assert (lam.transpose().to_linear() == want_t).all()


def _cancelling_ring(q):
    # x*x = x*y = y*y = w, so L(x - y) is zero on the columns of x and y:
    # the products inside an entry's block cancel
    return build_from_structure_constants(RingSpec(
        "structure_constants", q, labels=["1", "x", "y", "w"],
        products={"x,x": "w", "x,y": "w", "y,y": "w"}, gens=["x", "y"]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("cancel", 2), ("cancel", 5), ("R4", 5)]), st.integers(0, 2**32))
def test_lambda_matrix_components_match_dense_path(ring, seed):
    # a permuted block-diagonal matrix over the algebra with zero rows and
    # columns; entries are random, x - y (cancelling products) or zero.  The
    # component path (cutover 0) gives the dense path's kernel rows, pivots
    # and rank, bit for bit, for the matrix and for its transpose
    rid, q = ring
    alg = _cancelling_ring(q) if rid == "cancel" else catalog_ring(rid, q)
    D = alg.dim
    rng = np.random.default_rng(seed)
    x_minus_y = np.zeros(D, dtype=np.int64)
    x_minus_y[1:3] = 1, q - 1
    shapes = [tuple(rng.integers(1, 4, 2)) for _ in range(rng.integers(0, 6))]
    height = sum(s[0] for s in shapes) + int(rng.integers(0, 3))
    width = sum(s[1] for s in shapes) + int(rng.integers(0, 3))
    entries = np.zeros((height, width, D), dtype=np.int64)
    r = c = 0
    for h, w in shapes:
        block = rng.integers(0, q, (h, w, D))
        kind = rng.integers(0, 3, (h, w))
        block[kind == 1] = x_minus_y
        block[kind == 2] = 0
        entries[r:r + h, c:c + w] = block
        r, c = r + h, c + w
    entries = entries[rng.permutation(height)][:, rng.permutation(width)]
    for lam in (LambdaMatrix(alg, entries), LambdaMatrix(alg, entries.transpose(1, 0, 2))):
        lin = lam.to_linear()
        with mock.patch.object(gf, "BLOCK_CELLS", 0):
            rows, lead = lam.kernel_rows()
            got_rank = lam.linear_rank()
        want_rows, want_lead = gf.kernel_rows(lin, q)
        assert lead == want_lead
        assert rows.dtype == np.int64 and rows.shape == want_rows.shape
        assert (rows == want_rows).all()
        assert got_rank == gf.rank(lin, q)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(rid, q) for rid in ("R1", "R2", "R3", "R4", "R5") for q in (2, 5)]),
       st.integers(0, 5), st.integers(0, 5), st.sampled_from([0.0, 0.3, 1.0]),
       st.integers(0, 2**32))
def test_lambda_matrix_cells_match_the_dense_formulas(ring, height, width, density, seed):
    # unreduced entries with a zero row, a zero column and empty shapes: the
    # cells hold the reduced nonzero entries in row-major order, and every
    # reading of them equals its dense formula, on both sides of the cutover
    alg = catalog_ring(*ring)
    D, p = alg.dim, alg.p
    rng = np.random.default_rng(seed)
    given = rng.integers(-3 * p, 3 * p, (height, width, D))
    given *= rng.random((height, width, 1)) < density
    if height and width:
        given[rng.integers(height)] = 0
        given[:, rng.integers(width)] = 0
    want = given % p
    lin = sum((np.kron(want[:, :, i], alg.left_mult[i]) for i in range(D)),
              np.zeros((height * D, width * D), dtype=np.int64)) % p
    lam = LambdaMatrix(alg, given)
    nz = lam.nonzero
    assert lam.entries.dtype == np.int64 and lam.entries.shape == want.shape
    assert (lam.entries == want).all()
    assert (np.diff(nz.rows * width + nz.cols) > 0).all() and nz.vals.any(axis=1).all()
    assert not any(a.flags.writeable for a in (nz.rows, nz.cols, nz.vals))
    assert (lam.to_linear() == lin).all()
    rows, cols, vals = lam.cells()
    order = np.lexsort((cols, rows))
    assert (np.stack([rows[order], cols[order]]) == np.stack(np.nonzero(lin))).all()
    assert (vals[order] == lin[np.nonzero(lin)]).all()
    assert lam.transpose().transpose() is lam
    assert (lam.transpose().entries == want.transpose(1, 0, 2)).all()
    assert lam.in_radical() == (not want[:, :, 0].any())
    assert lam.to_jsonable() == want.tolist()
    want_rows, want_lead = gf.kernel_rows(lin, p)
    for cutover in (gf.BLOCK_CELLS, 0):
        with mock.patch.object(gf, "BLOCK_CELLS", cutover):
            fresh = LambdaMatrix(alg, given)
            kernel, lead = fresh.kernel_rows()
            rank = fresh.linear_rank()
        assert lead == want_lead and rank == gf.rank(lin, p)
        assert (np.asarray(kernel) == want_rows).all() and kernel.shape == want_rows.shape
        assert not any(a.flags.writeable for a in (kernel.rows, kernel.cols, kernel.vals))


@pytest.mark.parametrize("p,h,samples", [(2, 5, 32), (5, 7, 128), (5, 1, 9),
                                         (3, 32, 4), (46337, 9, 7)])
def test_one_draw_of_all_samples_equals_sequential_draws(p, h, samples):
    # is_isomorphic draws its random candidates at once; the coefficients
    # are the ones drawn one sample at a time from the same seed
    rng = np.random.default_rng(0)
    sequential = [rng.integers(0, p, size=h, dtype=np.int64) for _ in range(samples)]
    batched = np.random.default_rng(0).integers(0, p, size=(samples, h), dtype=np.int64)
    assert (batched == np.array(sequential).reshape(samples, h)).all()


def _sequential_random_scan(m, n, samples, seed):
    """Reference for the random branch: one draw, lincomb and rank per sample."""
    p = m.algebra.p
    basis = hom_space(m, n).basis
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        cand = gf.lincomb(rng.integers(0, p, size=basis.shape[0], dtype=np.int64), basis, p)
        if gf.rank(cand, p) == m.dim:
            return "yes", cand
    return "unknown", None


@pytest.mark.parametrize("chunk_entries", [None, 16])
def test_is_isomorphic_random_equals_sequential_scan(monkeypatch, chunk_entries):
    if chunk_entries is not None:
        # one 4 x 4 candidate per chunk, so witnesses sit past chunk boundaries
        monkeypatch.setattr(modules, "_ISO_CHUNK_ENTRIES", chunk_entries)
    k = simple_module(catalog_ring("R1", 2))
    pairs = [(direct_sum([k] * 4), direct_sum([k] * 4)), _non_isomorphic_cyclic_pair()]
    kinds = set()
    for m, n in pairs:
        for seed in range(4):
            verdict = is_isomorphic(m, n, exhaust_cap=1, samples=24, seed=seed)
            kind, witness = _sequential_random_scan(m, n, 24, seed)
            assert (verdict.kind, verdict.method) == (kind, "random")
            if witness is None:
                assert verdict.witness is None
                assert verdict.certificate.endswith("24 random samples found no isomorphism")
            else:
                assert (verdict.witness == witness).all()
            kinds.add(kind)
    assert kinds == {"yes", "unknown"}
