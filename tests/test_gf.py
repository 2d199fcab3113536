import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redhom import gf
from redhom.catalog import catalog_ring
from redhom.complexes import resolution_of
from redhom.modules import simple_module
from redhom.gf import (
    ShapeMismatchError,
    batch_pivots,
    batch_rank,
    batch_rref,
    check_modulus,
    component_kernel_rows,
    component_pivots,
    component_rank,
    echelon_pivots,
    is_prime,
    kernel,
    kernel_rows,
    mat_mul,
    rank,
    row_basis,
    rref,
    solve,
)


def brute_kernel_dim(a: np.ndarray, p: int) -> int:
    """Independent oracle: count kernel vectors by exhaustive enumeration."""
    cols = a.shape[1]
    count = 0
    for vec in itertools.product(range(p), repeat=cols):
        v = np.array(vec, dtype=np.int64)
        if not (a @ v % p).any():
            count += 1
    # kernel size is p^dim
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2**31 - 1)


def test_check_modulus_rejects():
    with pytest.raises(ValueError):
        check_modulus(1)
    with pytest.raises(ValueError):
        check_modulus(6)
    with pytest.raises(ValueError):
        check_modulus(2**31)
    assert check_modulus(5) == 5


def test_kernel_identity_trivial():
    k, free = kernel(np.eye(2, dtype=np.int64), 5)
    assert k.shape == (2, 0) and free == ()


def test_kernel_zero_map():
    k, free = kernel(np.zeros((2, 3), dtype=np.int64), 5)
    assert (k == np.eye(3, dtype=np.int64)).all() and free == (0, 1, 2)


def test_kernel_row_example_gf5():
    # Oracle: exhaustive enumeration gives kernel dimension 2.
    a = np.array([[1, 2, 3]], dtype=np.int64)
    assert brute_kernel_dim(a, 5) == 2
    k, _ = kernel(a, 5)
    assert k.tolist() == [[3, 2], [1, 0], [0, 1]]
    assert not mat_mul(a, k, 5).any()
    assert rank(k, 5) == 2


def test_solve_identity():
    b = np.array([[3], [1]], dtype=np.int64)
    assert (solve(np.eye(2, dtype=np.int64), b, 5) == b).all()


def test_solve_underdetermined_gf5():
    a = np.array([[1, 1]], dtype=np.int64)
    b = np.array([[3]], dtype=np.int64)
    x = solve(a, b, 5)
    assert x.tolist() == [[3], [0]]
    assert (mat_mul(a, x, 5) == b).all()


def test_solve_no_solution():
    assert solve(np.zeros((1, 1), dtype=np.int64), np.array([[1]]), 5) is None


def test_solve_shape_contract():
    with pytest.raises(ShapeMismatchError):
        solve(np.zeros((2, 2), dtype=np.int64), np.zeros((3, 1), dtype=np.int64), 5)


def test_empty_shapes_behave_as_zero_maps():
    k, _ = kernel(np.zeros((0, 3), dtype=np.int64), 5)
    assert (k == np.eye(3, dtype=np.int64)).all()
    prod = mat_mul(np.zeros((3, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64), 5)
    assert prod.shape == (3, 2) and not prod.any()
    assert kernel(np.zeros((3, 0), dtype=np.int64), 5)[0].shape == (0, 0)
    assert rank(np.zeros((0, 3), dtype=np.int64), 5) == 0


def test_rref_canonical_form():
    red, pivots = rref(np.array([[2, 4, 1], [1, 2, 0]], dtype=np.int64), 5)
    assert pivots == (0, 2)
    assert red.tolist() == [[1, 2, 0], [0, 0, 1]]


def test_large_modulus_matmul_no_overflow():
    p = 2147483629  # largest prime below 2^31
    a = np.full((2, 40), p - 1, dtype=np.int64)
    b = np.full((40, 2), p - 1, dtype=np.int64)
    got = mat_mul(a, b, p)
    expect = (40 * (p - 1) * (p - 1)) % p
    assert (got == expect).all()


small_prime = st.sampled_from([2, 3, 5, 7])


@st.composite
def random_matrix(draw, max_dim=5):
    """(p, a): a random r x c array over GF(p), empty shapes included."""
    p = draw(small_prime)
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                            min_size=r, max_size=r))
    return p, np.array(entries, dtype=np.int64).reshape(r, c)


@settings(max_examples=60, deadline=None)
@given(random_matrix())
def test_rank_nullity(pm):
    p, a = pm
    k, free = kernel(a, p)
    assert rank(a, p) + k.shape[1] == a.shape[1] == k.shape[0]
    assert len(free) == k.shape[1]
    if k.shape[1]:
        assert not mat_mul(a, k, p).any()
        assert rank(k, p) == k.shape[1]


@settings(max_examples=60, deadline=None)
@given(random_matrix(), st.integers(0, 3), st.data())
def test_solve_roundtrip(pm, c, data):
    p, a = pm
    x0 = np.array(
        data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                           min_size=a.shape[1], max_size=a.shape[1])),
        dtype=np.int64).reshape(a.shape[1], c)
    b = mat_mul(a, x0, p)
    x = solve(a, b, p)
    assert x is not None and x.shape == x0.shape
    assert (mat_mul(a, x, p) == b).all()


@settings(max_examples=40, deadline=None)
@given(random_matrix())
def test_determinism(pm):
    p, a = pm
    r1 = rref(a, p)
    r2 = rref(a.copy(), p)
    assert (r1[0] == r2[0]).all() and r1[1] == r2[1]
    assert rank(a, p) == rank(a.copy(), p)
    k1, f1 = kernel(a, p)
    k2, f2 = kernel(a, p)
    assert (k1 == k2).all() and f1 == f2


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 5, 46349]), st.integers(0, 7), st.integers(0, 7), st.data())
def test_echelon_pivots_are_rref_pivots(p, r, c, data):
    # dense draws rarely hit a rank drop, so every matrix is also tried
    # with a random subset of its rows zeroed and duplicated
    a = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=r * c,
                                    max_size=r * c)), dtype=np.int64).reshape(r, c)
    low = np.vstack([a, a])
    low[data.draw(st.lists(st.integers(0, 2 * r - 1), max_size=2 * r)) if r else []] = 0
    for m in (a, low):
        assert echelon_pivots(m, p) == rref(m, p)[1]
        assert rank(m, p) == len(rref(m, p)[1])


@pytest.mark.parametrize("p", [5, 46349])
@pytest.mark.parametrize("big", [2**32, -2**32, 2**32 + 1, -(2**32 + 1)])
def test_unreduced_int64_entries_are_reduced_before_narrowing(p, big):
    # 2^32 wraps to 0 in int32; the entry must be reduced mod p first
    a = np.array([[big]], dtype=np.int64)
    want = big % p
    assert rank(a, p) == (1 if want else 0)
    red, piv = rref(a, p)
    assert red.tolist() == [[1 if want else 0]] and piv == ((0,) if want else ())
    assert echelon_pivots(a, p) == piv
    wide = np.array([[big, 1], [2 * big, 2]], dtype=np.int64)
    assert rank(wide, p) == rank(wide % p, p)
    assert (rref(wide, p)[0] == rref(wide % p, p)[0]).all()


def assert_kernel_rows_match(a: np.ndarray, p: int):
    """kernel_rows equals the two-elimination row basis, bit for bit."""
    rows, pivots = kernel_rows(a, p)
    want_rows, want_pivots = row_basis(kernel(a, p)[0].T, p)
    assert pivots == want_pivots
    assert rows.dtype == np.int64 and rows.shape == want_rows.shape
    assert (rows == want_rows).all()
    assert rows.shape == (a.shape[1] - rank(a, p), a.shape[1])
    if rows.size:
        assert not mat_mul(a, rows.T, p).any()


@settings(max_examples=80, deadline=None)
@given(random_matrix(max_dim=7))
def test_kernel_rows_is_row_basis_of_kernel(pm):
    p, a = pm
    assert_kernel_rows_match(a, p)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 5, 46349]), st.integers(0, 60), st.integers(0, 60),
       st.integers(0, 2**32))
def test_kernel_meets_its_definition(p, r, c, seed):
    # kernel is kernel_rows read backwards, so it is checked here against
    # the definition alone; shapes reach past ROUNDS_MIN_CELLS (3,600 cells),
    # and each matrix is a product through a random inner rank with some
    # columns zeroed, so its free columns are scattered
    rng = np.random.default_rng(seed)
    inner = int(rng.integers(0, min(r, c) + 1))
    a = mat_mul(rng.integers(0, p, (r, inner)), rng.integers(0, p, (inner, c)), p)
    a[:, rng.random(c) < 0.2] = 0
    k, free = kernel(a, p)
    pivots = rref(a, p)[1]
    assert free == tuple(j for j in range(c) if j not in pivots)
    assert k.dtype == np.int64 and k.shape == (c, c - rank(a, p))
    assert (k[list(free)] == np.eye(len(free), dtype=np.int64)).all()
    assert ((0 <= k) & (k < p)).all()
    assert not mat_mul(a, k, p).any()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_rows_edge_shapes(p):
    rng = np.random.default_rng(p)
    cases = [np.zeros(shape, dtype=np.int64)
             for shape in [(0, 4), (4, 0), (0, 0), (3, 5), (5, 3)]]
    cases += [np.eye(4, dtype=np.int64),                        # full rank, square
              np.hstack([np.eye(3, dtype=np.int64),
                         rng.integers(0, p, (3, 4))]),         # full row rank
              np.vstack([np.eye(3, dtype=np.int64),
                         rng.integers(0, p, (2, 3))]),         # full column rank
              np.ones((4, 6), dtype=np.int64)]                 # rank one
    for a in cases:
        assert_kernel_rows_match(a, p)
    assert kernel_rows(np.zeros((2, 3), dtype=np.int64), p)[1] == (0, 1, 2)
    assert kernel_rows(np.eye(4, dtype=np.int64), p)[0].shape == (0, 4)


def _sample_stacks(p: int) -> list[np.ndarray]:
    rng = np.random.default_rng(p % 1000)
    stacks = [rng.integers(0, p, size=shape, dtype=np.int64)
              for shape in [(40, 4, 4), (30, 3, 7), (30, 7, 3), (12, 9, 9)]]
    # low-rank stacks: products through an inner dimension of 0, 1 or 2
    for inner in (0, 1, 2):
        left = rng.integers(0, p, size=(25, 6, inner), dtype=np.int64)
        right = rng.integers(0, p, size=(25, inner, 5), dtype=np.int64)
        stacks.append(np.stack([mat_mul(a, b, p) for a, b in zip(left, right)]))
    # duplicated and zero rows, and the empty shapes
    base = rng.integers(0, p, size=(10, 3, 6), dtype=np.int64)
    stacks.append(np.concatenate([base, base, np.zeros_like(base)], axis=1))
    stacks += [np.zeros(shape, dtype=np.int64)
               for shape in [(5, 0, 4), (5, 4, 0), (0, 3, 3), (0, 0, 0)]]
    return stacks


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2147483647])
def test_batch_rank_matches_rank(p):
    for stack in _sample_stacks(p):
        got = batch_rank(stack, p)
        assert got.shape == (stack.shape[0],)
        assert got.tolist() == [rank(x, p) for x in stack]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 46349, 2147483647])
def test_batch_rref_matches_rref(p):
    # matrix by matrix, and on unreduced entries (a negative copy of each stack)
    for stack in _sample_stacks(p):
        for given in (stack, stack - p * (stack % 3)):
            red, pivots = batch_rref(given, p)
            assert red.dtype == np.int64 and red.shape == stack.shape
            assert pivots.shape == (stack.shape[0], stack.shape[2])
            for x, got, mask in zip(stack, red, pivots):
                want, want_pivots = rref(x, p)
                assert (got == want).all()
                assert tuple(np.flatnonzero(mask).tolist()) == want_pivots


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2147483647])
def test_batch_pivots_match_echelon_pivots(p):
    # matrix by matrix, and on unreduced entries (a negative copy of each stack)
    for stack in _sample_stacks(p):
        for given in (stack, stack - p * (stack % 3)):
            mask = batch_pivots(given, p)
            assert mask.dtype == bool and mask.shape == (stack.shape[0], stack.shape[2])
            for x, row in zip(stack, mask):
                assert tuple(np.flatnonzero(row).tolist()) == echelon_pivots(x, p)


def test_batch_rank_rejects_non_stack():
    with pytest.raises(ShapeMismatchError):
        batch_rank(np.eye(3, dtype=np.int64), 5)
    with pytest.raises(ShapeMismatchError):
        batch_pivots(np.eye(3, dtype=np.int64), 5)
    with pytest.raises(ShapeMismatchError):
        batch_rref(np.eye(3, dtype=np.int64), 5)


def _permuted_blocks(rng, p: int) -> np.ndarray:
    """A block-diagonal matrix with its rows and columns permuted; some
    blocks are zero and a few zero rows and columns are added."""
    blocks = [rng.integers(0, p, tuple(rng.integers(1, 5, 2))) * (rng.random() < 0.8)
              for _ in range(rng.integers(0, 12))]
    height = sum(b.shape[0] for b in blocks) + int(rng.integers(0, 3))
    width = sum(b.shape[1] for b in blocks) + int(rng.integers(0, 3))
    a = np.zeros((height, width), dtype=np.int64)
    r = c = 0
    for b in blocks:
        a[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return a[rng.permutation(height)][:, rng.permutation(width)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 5, 2**31 - 1]), st.integers(0, 2**32))
def test_components_match_dense_on_permuted_blocks(p, seed):
    # the matrix as nonzero cells: kernel rows, pivots and rank equal the
    # dense path's, bit for bit
    a = _permuted_blocks(np.random.default_rng(seed), p)
    width = a.shape[1]
    rows, cols = np.nonzero(a)
    got_rows, got_lead = component_kernel_rows(rows, cols, a[rows, cols], width, p)
    want_rows, want_lead = kernel_rows(a, p)
    assert got_lead == want_lead
    assert got_rows.dtype == np.int64 and got_rows.shape == want_rows.shape
    assert (got_rows == want_rows).all()
    assert component_rank(rows, cols, a[rows, cols], p) == rank(a, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 5, 2**31 - 1]), st.integers(0, 2**32))
def test_component_kernel_cells_densify_to_kernel_rows(p, seed):
    # the kernel comes back as its nonzero cells, read-only and in
    # row-major order, and densified they are kernel_rows' rows
    a = _permuted_blocks(np.random.default_rng(seed), p)
    rows, cols = np.nonzero(a)
    got, lead = component_kernel_rows(rows, cols, a[rows, cols], a.shape[1], p)
    want, want_lead = kernel_rows(a, p)
    assert lead == want_lead and got.shape == want.shape
    assert (np.asarray(got) == want).all()
    assert (np.stack([got.rows, got.cols]) == np.stack(np.nonzero(want))).all()
    assert not any(x.flags.writeable for x in (got.rows, got.cols, got.vals))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 5]), st.integers(0, 2**32))
def test_component_pivots_equal_echelon_pivots(p, seed):
    # the union of the components' pivot columns is the dense matrix's
    # echelon_pivots, also with zero rows and columns or no cell at all
    a = _permuted_blocks(np.random.default_rng(seed), p)
    rows, cols = np.nonzero(a)
    assert component_pivots(rows, cols, a[rows, cols], p) == echelon_pivots(a, p)
    none = np.zeros(0, dtype=np.int64)
    assert component_pivots(none, none, none, p) == ()


def test_component_stacks_are_priced_before_they_are_built(monkeypatch):
    # three 2 x 3 components and one 4 x 4: the largest stack (3 blocks of
    # 6 cells, 144 bytes) is refused at a budget one byte below it, before
    # any stack is eliminated, and passes at exactly its size
    a = np.zeros((10, 13), dtype=np.int64)
    for g in range(3):
        a[2 * g:2 * g + 2, 3 * g:3 * g + 3] = 1
    a[6:, 9:] = np.eye(4, dtype=np.int64)
    a[6:, 9] = 1
    rows, cols = np.nonzero(a)
    monkeypatch.setattr(gf, "LINEAR_FORM_BUDGET_BYTES", 8 * 18 - 1)
    for run in (lambda: component_rank(rows, cols, a[rows, cols], 5),
                lambda: component_kernel_rows(rows, cols, a[rows, cols], 13, 5)):
        with pytest.raises(gf.LinearFormBudgetError, match="3 support components of shape 2 x 3"):
            run()
    monkeypatch.setattr(gf, "LINEAR_FORM_BUDGET_BYTES", 8 * 18)
    assert component_rank(rows, cols, a[rows, cols], 5) == rank(a, 5) == 7


def eliminations(a: np.ndarray, p: int) -> list:
    return [rref(a, p), echelon_pivots(a, p), rank(a, p), kernel(a, p), kernel_rows(a, p)]


def assert_rounds_match_loop(a: np.ndarray, p: int):
    """rref, pivots, rank and both kernels equal the per-column loop's, bit for bit."""
    got = eliminations(a, p)
    with mock.patch.object(gf, "ROUNDS_MIN_CELLS", 2**62):
        want = eliminations(a, p)
    assert got[1:3] == want[1:3]
    for (g, g_piv), (w, w_piv) in zip(got[:1] + got[3:], want[:1] + want[3:]):
        assert g_piv == w_piv
        assert g.dtype == w.dtype == np.int64 and g.shape == w.shape
        assert (g == w).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 5, 46337, 46349, 2**31 - 1]), st.integers(1, 60),
       st.integers(1, 60), st.sampled_from([0.05, 0.3, 1.0]), st.integers(0, 2**32),
       st.booleans())
def test_rounds_match_per_column_loop(p, r, c, density, seed, unreduced):
    # shapes and entries come from the seed, so large matrices stay cheap to
    # draw; each is also tried with zero rows and columns and duplicated rows
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (r, c), dtype=np.int64) * (rng.random((r, c)) < density)
    a[rng.random(r) < 0.2] = 0
    a[:, rng.random(c) < 0.2] = 0
    a = np.vstack([a, a[rng.integers(0, r, r // 2)]])
    if unreduced:
        # unreduced entries, e.g. 2^32 wraps to 0 in int32 unless reduced first
        a += rng.choice([0, 2**32, -2**32], a.shape)
    with mock.patch.object(gf, "ROUNDS_MIN_CELLS", 0):
        assert_rounds_match_loop(a, p)
    assert_rounds_match_loop(a, p)


@pytest.mark.parametrize("rid,top", [("R1q5", 9), ("R4q5", 6)])
def test_rounds_match_loop_on_resolution_differentials(rid, top):
    # the linear forms of d_1..d_top for k, and their transposes; over R4q5
    # the loop reference takes 5 s more for d_7 (720 x 1,885) alone
    res = resolution_of(simple_module(catalog_ring(rid)))
    for i in range(1, top + 1):
        d = res.diff(i)
        for lam in (d, d.transpose()):
            assert_rounds_match_loop(np.array(lam.to_linear()), res.algebra.p)
