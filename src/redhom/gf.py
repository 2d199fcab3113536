"""Exact dense linear algebra over a prime field GF(p).

Every higher layer (algebras, modules, resolutions, searches) reduces to
the primitives here: modular matrix products, reduced row echelon forms,
kernels and linear solves.  All arithmetic stays on integer numpy grids;
there is no floating point and no randomness, so identical inputs give
bit-identical outputs.

Conventions fixed once and used everywhere:

* matrices act on column vectors, kernels are spanned by columns;
* echelon pivoting takes the first nonzero row, free variables are
  enumerated in increasing column order and set to zero in particular
  solutions;
* matrices are plain int64 arrays with entries in [0, p); the modulus
  comes from the algebra and is passed to each function here, and
  `check_modulus` validates it where a ring is built.  There is no
  matrix class (`Matrix` is an empty placeholder, see its docstring).

`kernel` returns a column basis with its free coordinates; `kernel_rows`
returns the canonical rref row basis of the same kernel from a single
elimination of the column-reversed matrix.  Why that is exact: let f'
be a free column of rref(arr[:, ::-1]) and f = n - 1 - f' its original
column.  The kernel vector of f', mapped back, has a 1 at f, zeros at
every other free column, and -red[i, f'] at the pivot column of each
row i; rref puts red[i, f'] = 0 unless that pivot lies left of f' in
the reversed order, i.e. right of f in the original.  Sorted by f,
these vectors are therefore in reduced echelon form with leading
columns f, and since the rref of a row space is unique they are its
canonical basis, entry for entry.
"""

from __future__ import annotations

import numpy as np

MAX_MODULUS = 2**31


class ShapeMismatchError(ValueError):
    """Raised when matrix shapes violate an operation's contract."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_modulus(p: int) -> int:
    if not isinstance(p, (int, np.integer)):
        raise TypeError(f"modulus must be an integer, got {type(p)!r}")
    p = int(p)
    if not 2 <= p < MAX_MODULUS:
        raise ValueError(f"modulus must satisfy 2 <= p < 2^31, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def power_at_most(p: int, e: int, cap: int) -> int | None:
    """p**e when it is at most cap, else None; stops multiplying past the cap."""
    size = 1
    for _ in range(e):
        size *= p
        if size > cap:
            return None
    return size


def _work_dtype(p: int):
    # (p-1)^2 + (p-1) must fit the elimination dtype; int32 is fine up to 46340.
    return np.int32 if p <= 46340 else np.int64


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p with 64-bit accumulation, chunked so sums never overflow."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"cannot multiply {a.shape} by {b.shape}")
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    chunk = max(1, (2**62) // max(1, (p - 1) ** 2))
    if chunk >= inner:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, inner, chunk):
        hi = min(inner, lo + chunk)
        out += (a[:, lo:hi] @ b[lo:hi, :]) % p
    return out % p


def lincomb(coeffs: np.ndarray, stack: np.ndarray, p: int) -> np.ndarray:
    """sum(coeffs[i] * stack[i]) % p over axis 0, as one mat_mul."""
    stack = np.asarray(stack, dtype=np.int64)
    n, shape = stack.shape[0], stack.shape[1:]
    coeffs = np.asarray(coeffs, dtype=np.int64).reshape(1, n) % p
    return mat_mul(coeffs, stack.reshape(n, int(np.prod(shape))), p).reshape(shape)


def rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    a = (np.array(arr, dtype=_work_dtype(p)) % p)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            a[touched] = (a[touched] - np.outer(col[touched], a[r])) % p
        pivots.append(c)
        r += 1
    return a.astype(np.int64), tuple(pivots)


def rank(arr: np.ndarray, p: int) -> int:
    """Rank by forward elimination only (cheaper than a full rref)."""
    a = (np.array(arr, dtype=_work_dtype(p)) % p)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            idx = below + r + 1
            inv = pow(int(a[r, c]), p - 2, p)
            factors = (a[idx, c] * inv) % p
            a[idx, c:] = (a[idx, c:] - factors[:, None] * a[r, c:]) % p
        r += 1
    return r


def batch_rank(stack: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a 3-d stack of matrices, one forward elimination for all.

    One Python step per column.  Each matrix picks its own pivot: the
    first unused row with a nonzero entry in the column.  The other
    unused rows are cleared by the fraction-free update
    row <- pivot * row - entry * pivot_row, an invertible row operation,
    so no inverses are needed.  Entries stay below p < 2^31, so each
    product stays below 2^62 and int64 is exact.
    """
    a = np.array(stack, dtype=np.int64) % p
    if a.ndim != 3:
        raise ShapeMismatchError(f"batch_rank needs a 3-d stack, got shape {a.shape}")
    batch, rows, cols = a.shape
    used = np.zeros((batch, rows), dtype=bool)
    every = np.arange(batch)
    for c in range(cols):
        col = a[:, :, c]
        cand = (col != 0) & ~used
        has = cand.any(axis=1)
        if not has.any():
            continue
        pick = cand.argmax(axis=1)
        pivot_rows = a[every, pick, c:]
        cand[every, pick] = False
        bi, ri = np.nonzero(cand)
        if bi.size:
            a[bi, ri, c:] = (pivot_rows[bi, :1] * a[bi, ri, c:]
                             - col[bi, ri, None] * pivot_rows[bi]) % p
        used[every[has], pick[has]] = True
    return used.sum(axis=1)


def kernel(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Basis of the right kernel as columns, plus the free column indices.

    The column for free variable f has a 1 in row f, zeros in the other
    free rows, so coordinates of any kernel vector v are just v[free].
    """
    arr = np.asarray(arr, dtype=np.int64)
    red, pivots = rref(arr, p)
    cols = arr.shape[1]
    pivot_set = set(pivots)
    free = tuple(c for c in range(cols) if c not in pivot_set)
    k = np.zeros((cols, len(free)), dtype=np.int64)
    k[list(free), np.arange(len(free))] = 1
    k[list(pivots)] = -red[:len(pivots)][:, list(free)] % p
    return k, free


def kernel_rows(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical (rref) row basis of the right kernel, with pivot columns.

    Equal to row_basis(kernel(arr, p)[0].T, p), from one elimination:
    the kernel vectors of arr[:, ::-1], mapped back to the original
    columns, already form the rref (see the module docstring).
    """
    arr = np.asarray(arr, dtype=np.int64)
    cols = arr.shape[1]
    red, pivots = rref(arr[:, ::-1], p)
    pivot_set = set(pivots)
    # free columns of the reversed matrix, descending, so that their
    # original columns (the leading columns of the rows) ascend
    free = [c for c in range(cols - 1, -1, -1) if c not in pivot_set]
    lead = [cols - 1 - c for c in free]
    rows = np.zeros((len(free), cols), dtype=np.int64)
    rows[np.arange(len(free)), lead] = 1
    neg = red[:len(pivots)][:, free].T
    rows[:, [cols - 1 - c for c in pivots]] = np.where(neg, p - neg, 0)
    return rows, tuple(lead)


def solve(arr: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Particular solution of arr @ x = b with free variables zero, or None."""
    arr = np.asarray(arr, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim == 1:
        b = b[:, None]
    if arr.shape[0] != b.shape[0]:
        raise ShapeMismatchError(f"solve: {arr.shape} vs rhs {b.shape}")
    aug = np.hstack([arr, b % p])
    red, pivots = rref(aug, p)
    ncols = arr.shape[1]
    if any(c >= ncols for c in pivots):
        return None
    x = np.zeros((ncols, b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c, :] = red[i, ncols:]
    return x


def row_basis(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical (rref) basis of the row space, with pivot columns."""
    red, pivots = rref(arr, p)
    return red[: len(pivots)], pivots


def reduce_mod_rowspace(rows: np.ndarray, pivots: tuple[int, ...],
                        vecs: np.ndarray, p: int) -> np.ndarray:
    """Reduce column vectors modulo a row space given in rref form.

    After reduction the pivot coordinates vanish, so the result is a
    canonical coset representative supported on the non-pivot rows.
    """
    if len(pivots) == 0:
        return vecs % p
    coeff = vecs[list(pivots), :] % p
    return (vecs - mat_mul(rows.T, coeff, p)) % p


def in_rowspace(rows: np.ndarray, pivots: tuple[int, ...],
                vecs: np.ndarray, p: int) -> bool:
    return not reduce_mod_rowspace(rows, pivots, np.asarray(vecs) % p, p).any()


class Matrix:
    """Placeholder kept only for the benchmark's tracer.

    The package works on plain int64 arrays and the functions above;
    nothing constructs a Matrix.  `perfbench/tracing.py` still wraps
    `Matrix.__init__` for its `gf.Matrix.constructions` counter (0 on
    every workload), so the class goes together with that counter.
    """

    def __init__(self):
        raise TypeError("gf.Matrix is retired: use plain int64 arrays")
