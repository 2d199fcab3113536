"""Seeded randomized cross-validation against brute-force oracles (p = 2).

Everything here enumerates small spaces exhaustively on one side and
compares with the engine's linear-algebra answer on the other, so a
pass is a genuine independent confirmation, not a smoke test.
"""

import itertools

import numpy as np
import pytest

from redhom.catalog import catalog_ring, sample_modules
from redhom.complexes import ext_dims, resolution_of, ring_module
from redhom.modules import (
    direct_sum,
    free_module,
    hom_space,
    is_isomorphic,
    projective_cover_and_syzygy,
    simple_module,
    transpose_module,
)
from redhom.reducing import SearchLimits, search_reducing
from redhom.torsionfree import (
    TorsionfreeError,
    build_window_sequence,
    torsionfree_classify,
    verify_window_sequence,
)


@pytest.fixture(scope="module")
def rings_q2():
    return [catalog_ring(rid, 2) for rid in ("R1", "R2", "R3")]


def brute_hom_dim(m, n):
    p = m.algebra.p
    count = 0
    for entries in itertools.product(range(p), repeat=n.dim * m.dim):
        f = np.array(entries, dtype=np.int64).reshape(n.dim, m.dim)
        if all(((f @ m.action_arr(j)) % p == (n.action_arr(j) @ f) % p).all()
               for j in range(m.algebra.num_gens)):
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def brute_radical_dim(m):
    p = m.algebra.p
    vectors = set()
    for coeffs in itertools.product(range(p), repeat=m.dim):
        v = np.array(coeffs, dtype=np.int64)
        for j in range(m.algebra.num_gens):
            vectors.add(tuple((m.action_arr(j) @ v) % p))
    # dimension of the span by exhaustive closure
    span = {tuple(np.zeros(m.dim, dtype=np.int64))}
    basis = []
    for vec in sorted(vectors):
        if vec in span:
            continue
        basis.append(np.array(vec, dtype=np.int64))
        span = {tuple((sum(c * b for c, b in zip(cs, basis))) % p)
                for cs in itertools.product(range(p), repeat=len(basis))}
    return len(basis)


def test_hom_dims_match_brute_force(rings_q2):
    for alg in rings_q2:
        mods = [m for _, m in sample_modules(alg, count=4, max_dim=3, seed=1)]
        for a in mods:
            for b in mods:
                if a.dim * b.dim > 9:
                    continue
                assert hom_space(a, b).dim == brute_hom_dim(a, b)


def test_radical_dims_match_brute_force(rings_q2):
    for alg in rings_q2:
        for _, mod in sample_modules(alg, count=5, max_dim=4, seed=2):
            rows, _ = mod.radical_rows()
            assert rows.shape[0] == brute_radical_dim(mod)


def test_cover_rank_is_forced(rings_q2):
    # the minimal number of generators equals dim M - dim mM by Nakayama
    for alg in rings_q2:
        for _, mod in sample_modules(alg, count=5, max_dim=5, seed=3):
            data = projective_cover_and_syzygy(mod)
            rows, _ = mod.radical_rows()
            assert data.cover.mat.shape[1] == (mod.dim - rows.shape[0]) * alg.dim


def test_transpose_kills_free_summands(rings_q2):
    for alg in rings_q2:
        for _, mod in sample_modules(alg, count=4, max_dim=4, seed=4):
            plain = transpose_module(mod)
            padded = transpose_module(direct_sum([mod, free_module(alg, 1)]))
            assert plain.dim == padded.dim
            if plain.dim:
                assert is_isomorphic(plain, padded).kind == "yes"


def test_ext_dims_nonnegative_and_monotone_bounds(rings_q2):
    for alg in rings_q2:
        for _, mod in sample_modules(alg, count=4, max_dim=4, seed=5):
            short = ext_dims(mod, ring_module(alg), 2).dims
            longer = ext_dims(mod, ring_module(alg), 4).dims
            assert longer[:3] == short


def test_red_is_at_most_ured(rings_q2):
    limits = SearchLimits(max_steps=2, n_max=1, ab_max=2, cap=100_000)
    ulimits = SearchLimits(max_steps=2, n_max=1, cap=100_000)
    for alg in rings_q2:
        k = simple_module(alg)
        red = search_reducing(k, "red", "pd", limits)
        ured = search_reducing(k, "ured", "pd", ulimits)
        if red.found and ured.found:
            assert red.witness.depth <= ured.witness.depth


def test_window_roundtrip_q2(rings_q2):
    for alg in rings_q2:
        for name, mod in sample_modules(alg, count=4, max_dim=5, seed=6):
            cls = torsionfree_classify(mod, 2)
            for m in range(3):
                for n in range(3):
                    if cls.member(m, n):
                        build = build_window_sequence(mod, m, n)
                        assert verify_window_sequence(
                            build.complex, m, n, "(4)").ok, (name, m, n)
                    else:
                        with pytest.raises(TorsionfreeError):
                            build_window_sequence(mod, m, n)


def test_syzygies_have_no_free_summands_legacy_property(rings_q2):
    # syzygies of minimal resolutions sit inside the radical, so splitting
    # off a free summand is impossible
    from redhom.modules import split_free_summands
    for alg in rings_q2:
        k = simple_module(alg)
        res = resolution_of(k)
        for i in (1, 2, 3):
            syz = res.syzygy_module(i)
            if syz.dim:
                assert split_free_summands(syz).free_rank == 0
