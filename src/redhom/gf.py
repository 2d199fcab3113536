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

`kernel_rows` returns the canonical rref row basis of the kernel from a
single elimination of the column-reversed matrix; `kernel` is read off
it (see its docstring).  Why that is exact: let f' be a free column of
rref(arr[:, ::-1]) and f = n - 1 - f' its original column.  The kernel
vector of f', mapped back, has a 1 at f, zeros at every other free
column, and -red[i, f'] at the pivot column of each row i; rref puts
red[i, f'] = 0 unless that pivot lies left of f' in the reversed order,
i.e. right of f in the original.  Sorted by f, these vectors are
therefore in reduced echelon form with leading columns f, and since the
rref of a row space is unique they are its canonical basis, entry for
entry.

`component_kernel_rows` and `component_rank` take a matrix as its
nonzero cells and never form it densely.  They split its support, the
bipartite graph of rows and columns joined by the cells, into connected
components, and eliminate the components' blocks batched by shape.
`LambdaMatrix` uses them for linear forms of more than BLOCK_CELLS
cells; every other caller, and every test reference, has the dense
`kernel_rows` and `rank`.  Why that is exact: components have disjoint
rows and disjoint columns, so the kernel is the direct sum of the
components' kernels and of one unit vector per column without a cell,
and the rank is the sum of the components' ranks.  The rref basis of a
component's kernel, placed in its columns, is zero on every other
column; so the union of these bases and unit vectors, sorted by leading
column, has distinct leading 1s with zeros above and below each of
them.  That is a reduced echelon form of the kernel, and the rref is
unique, so the rows and pivots are kernel_rows', entry for entry.
Within a component the rows are read off batch_rref of the reversed
block as kernel_rows reads them off rref.

`echelon_pivots` (and `rank`, its length) runs forward elimination
only, yet returns exactly the pivot columns of the rref.  Why: let V be
the row space and V_c the vectors of V that vanish on every column
before c.  If the rows of any echelon form of the matrix lead at
columns l_1 < ... < l_r, then V_c is spanned by the rows with l_i >= c
(a combination using a row that leads before c is nonzero at the
smallest such leading column), so dim V_c counts the l_i >= c.  The
leading columns are therefore the c with dim V_c > dim V_{c+1}, which
depends on V alone; forward elimination and rref use invertible row
operations, so both have row space V and the same pivot columns.

Inputs of more than ROUNDS_MIN_CELLS cells are eliminated in
leading-column rounds rather than one column per step (the per-column
loop stays for small inputs and is the tests' reference).  Every output
is the loop's, bit for bit:

* a round stably sorts the nonzero rows by leading column and, in each
  group sharing one, subtracts from every other row the multiple of the
  group's first row that clears its leading entry.  That first row is
  not changed in the round, so each step is an invertible row
  operation and the row space stays V; a cleared row's leading column
  grows or the row vanishes, so the rounds end, with distinct leading
  columns: an echelon form, whose leading columns are the rref's pivots
  by the argument above (this is all `echelon_pivots` reads);
* `rref` scales each row to a leading 1, then reduces level by level:
  a row is reduced only against rows that are already reduced, i.e.
  have a 1 at their own pivot and 0 at every other pivot.  Subtracting
  c times such a row j zeroes the row's entry at pivot j and no other
  pivot entry changes, so no new pivot entries appear; a row's pivot
  entries lie right of its own pivot, so the pending row with the
  largest pivot is always ready and the levels end;
* the result is a reduced echelon form of V, and the rref of a row
  space is unique, so it equals the loop's entry for entry.
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


# Inputs of at most this many cells are eliminated by the per-column
# loop; above it, in leading-column rounds.  Call by call the rounds
# win from about 100 cells, but the benchmark's `search` pass (hundreds
# of calls of 100 to 1,000 cells) ran 5-10 % slower with the cutover at
# 100 or 300 than at 1,000, while `tables` gained the same.
ROUNDS_MIN_CELLS = 1000
# Rounds and kernel_rows handle a block of rows of about this many
# cells at a time, which bounds their temporaries (and so peak memory).
# A LambdaMatrix's linear form of more cells is not built for its kernel
# and rank, which are eliminated by support components instead.  Timed
# on every such call of the benchmark's search and tables passes (2-vCPU
# VM, numpy 2.4), the components were slower up to 28,875 cells (a rank
# took 0.99 ms against 0.56 ms dense) and faster from 73,728 (0.58 ms
# against 0.99 ms); at 1.2M cells a rank took 5.6 ms against 18.8 ms.
BLOCK_CELLS = 2**16


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


def _reduced(arr: np.ndarray, p: int) -> np.ndarray:
    """A fresh copy of arr reduced mod p, in the elimination dtype.

    The reduction is computed in int64 and only its result is narrowed:
    narrowing an unreduced entry such as 2^32 to int32 first would wrap
    it to 0.  Writing straight into the narrow output allocates no
    int64 temporary.  An input above ROUNDS_MIN_CELLS whose entries are
    already in [0, p) (checked by its min and max) is narrowed by one
    astype instead, which is an order of magnitude cheaper; tiny inputs
    skip that check, whose cost would show on them.
    """
    arr = np.asarray(arr, dtype=np.int64)
    dtype = _work_dtype(p)
    if arr.size > ROUNDS_MIN_CELLS and arr.min() >= 0 and arr.max() < p:
        return arr.astype(dtype)
    return np.remainder(arr, p, out=np.empty(arr.shape, dtype=dtype), casting="unsafe")


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p entrywise in int64: the inverses of nonzero residues.

    Factors stay below p < 2^31, so every product stays below 2^62.
    """
    x = np.asarray(x, dtype=np.int64)
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _rref_loop(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """rref of a reduced work array in place, one column per step.

    Returns the nonzero rows (a view of a) and the pivot columns.
    """
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
    return a[:r], tuple(pivots)


def _pivots_loop(a: np.ndarray, p: int) -> tuple[int, ...]:
    """Pivot columns of a reduced work array by forward elimination, one column per step."""
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
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
        pivots.append(c)
    return tuple(pivots)


def _echelon_rounds(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward elimination of a reduced work array in rounds, in place.

    Afterwards the rows a[live] form an echelon form without its zero
    rows; returns live and their leading columns, which ascend.  Each
    round stably sorts the live rows by leading column; in every group
    sharing a column the first row is the pivot and each other row is
    cleared against it, all groups in one array step.  Rounds stop when
    the leading columns are distinct.  Rows are read and cleared in
    blocks of about BLOCK_CELLS cells, which bounds the temporaries.
    """
    rows, cols = a.shape
    step = max(1, BLOCK_CELLS // max(cols, 1))
    lead = np.zeros(rows, dtype=np.intp)
    for i in range(0, rows, step):
        lead[i:i + step] = (a[i:i + step] != 0).argmax(axis=1)
    # a row is zero exactly when its entry at its leading column is
    live = np.flatnonzero(a[np.arange(rows), lead])
    lead = lead[live]
    while True:
        order = np.argsort(lead, kind="stable")
        live, lead = live[order], lead[order]
        repeat = np.flatnonzero(lead[1:] == lead[:-1]) + 1
        if not repeat.size:
            return live, lead
        # the pivot of a repeated row is the first row of its group
        starts = np.arange(lead.size)
        starts[repeat] = 0
        head = live[np.maximum.accumulate(starts)[repeat]]
        tail = live[repeat]
        c = lead[repeat]
        lo = int(c[0])      # the smallest leading column of this round
        factor = (a[tail, c] * _inverses(a[head, c], p) % p).astype(a.dtype)
        step = max(1, BLOCK_CELLS // (cols - lo))
        for i in range(0, tail.size, step):
            block = slice(i, i + step)
            cleared = a[tail[block], lo:]
            scaled = a[head[block], lo:]
            scaled *= factor[block, None]
            cleared -= scaled
            cleared %= p
            a[tail[block], lo:] = cleared
            lead[repeat[block]] = (cleared != 0).argmax(axis=1) + lo
        keep = np.ones(lead.size, dtype=bool)
        keep[repeat] = a[tail, lead[repeat]] != 0
        live, lead = live[keep], lead[keep]


def _rref_rounds(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """rref of a reduced work array from its echelon form in rounds.

    The pivots are normalised to 1; then every row whose off-diagonal
    pivot entries point only at rows that are already reduced is
    reduced against them with one mat_mul, level by level.
    """
    live, lead = _echelon_rounds(a, p)
    rows = a[live]
    del a       # the work array is not needed past this point; free it
    r = lead.size
    diag = np.arange(r)
    rows *= _inverses(rows[diag, lead], p).astype(rows.dtype)[:, None]
    rows %= p
    coeff = rows[:, lead]
    coeff[diag, diag] = 0
    points = coeff != 0
    clean = ~points.any(axis=1)
    todo = np.flatnonzero(~clean)
    while todo.size:
        ready = ~(points[todo] & ~clean).any(axis=1)
        now, todo = todo[ready], todo[~ready]
        src = np.flatnonzero(points[now].any(axis=0))
        rows[now] = (rows[now] - mat_mul(coeff[np.ix_(now, src)], rows[src], p)) % p
        clean[now] = True
    return rows, tuple(lead.tolist())


def _rref_rows(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The nonzero rows of rref(arr, p) in the work dtype, and the pivots."""
    if np.size(arr) <= ROUNDS_MIN_CELLS:
        return _rref_loop(_reduced(arr, p), p)
    return _rref_rounds(_reduced(arr, p), p)


def rref(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (deterministic)."""
    red, pivots = _rref_rows(arr, p)
    out = np.zeros(np.shape(arr), dtype=np.int64)
    out[:len(pivots)] = red
    return out, pivots


def echelon_pivots(arr: np.ndarray, p: int) -> tuple[int, ...]:
    """Pivot columns of the rref, by forward elimination only.

    Equal to rref(arr, p)[1] (see the module docstring).
    """
    a = _reduced(arr, p)
    if a.size <= ROUNDS_MIN_CELLS:
        return _pivots_loop(a, p)
    return tuple(_echelon_rounds(a, p)[1].tolist())


def rank(arr: np.ndarray, p: int) -> int:
    """Rank by forward elimination only (cheaper than a full rref)."""
    return len(echelon_pivots(arr, p))


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
    It is kernel_rows(arr[:, ::-1]) read backwards, which eliminates
    arr itself once.  Why that is exact: the rows of kernel_rows(B) for
    B = arr[:, ::-1] are the rref basis of ker B, the reversals of the
    vectors of ker arr.  Their leading columns are cols - 1 - f for the
    free columns f of arr (those of rref(B[:, ::-1]) = rref(arr), in
    reversed order), and each row is 1 at its own leading column and 0
    at the others.  Reversing rows and columns therefore gives kernel
    vectors of arr, ordered by ascending f, each 1 at f and 0 at every
    other free column; transposed, that is the unique kernel basis that
    is the identity on the free rows, entry for entry.
    """
    rows, lead = kernel_rows(np.asarray(arr)[:, ::-1], p)
    cols = rows.shape[1]
    return rows[::-1, ::-1].T, tuple(cols - 1 - c for c in reversed(lead))


def kernel_rows(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical (rref) row basis of the right kernel, with pivot columns.

    Equal to row_basis(kernel(arr, p)[0].T, p), from one elimination:
    the kernel vectors of arr[:, ::-1], mapped back to the original
    columns, already form the rref (see the module docstring).
    """
    arr = np.asarray(arr, dtype=np.int64)
    cols = arr.shape[1]
    red, pivots = _rref_rows(arr[:, ::-1], p)
    pivot_set = set(pivots)
    # free columns of the reversed matrix, descending, so that their
    # original columns (the leading columns of the rows) ascend
    free = [c for c in range(cols - 1, -1, -1) if c not in pivot_set]
    lead = [cols - 1 - c for c in free]
    rows = np.zeros((len(free), cols), dtype=np.int64)
    rows[np.arange(len(free)), lead] = 1
    # the pivot columns, scattered a block of rows at a time: one scatter
    # over all rows is strided through the whole output and twice as slow
    at = [cols - 1 - c for c in pivots]
    step = max(1, BLOCK_CELLS // max(1, len(pivots)))
    for i in range(0, len(free), step):
        neg = red[:, free[i:i + step]].T
        rows[i:i + step, at] = np.where(neg, p - neg, 0)
    return rows, tuple(lead)


def batch_rref(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """rref of every matrix of a 3-d stack, one Python step per column.

    Returns the reduced stack (int64, nonzero rows first, as rref's
    output) and a boolean (batch, cols) mask of each matrix's pivot
    columns.  At column c each matrix whose unused rows are not all zero
    there swaps the first such row into place, scales it to a leading 1
    and clears column c in its other rows.  The unused rows vanish left
    of c, so only columns from c on change.  Each result is a reduced
    echelon form of its matrix's row space, so it equals rref(matrix, p).
    """
    a = _reduced(stack, p)
    if a.ndim != 3:
        raise ShapeMismatchError(f"batch_rref needs a 3-d stack, got shape {a.shape}")
    batch, rows, cols = a.shape
    pivots = np.zeros((batch, cols), dtype=bool)
    done = np.zeros(batch, dtype=np.intp)          # pivot rows so far
    unused = np.arange(rows)[None, :] >= done[:, None]
    for c in range(cols):
        cand = (a[:, :, c] != 0) & unused
        has = np.flatnonzero(cand.any(axis=1))
        if not has.size:
            continue
        at = done[has]
        pick = cand[has].argmax(axis=1)
        top = a[has, pick, c:]
        a[has, pick, c:] = a[has, at, c:]
        top = (top * _inverses(top[:, 0], p)[:, None] % p).astype(a.dtype)
        a[has, at, c:] = top
        factor = a[has, :, c]
        factor[np.arange(has.size), at] = 0
        g, i = np.nonzero(factor)
        if g.size:
            a[has[g], i, c:] = (a[has[g], i, c:] - factor[g, i, None] * top[g]) % p
        pivots[has, c] = True
        unused[has, at] = False
        done[has] += 1
    return a.astype(np.int64), pivots


def _component_blocks(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """The connected components of a support, as dense blocks stacked by shape.

    (rows[k], cols[k]) holds vals[k] and every other cell is zero.  Yields
    (stack, block_cols) per shape: stack[g] is a component's block, its
    rows and columns in ascending order, and block_cols[g] its columns.
    Components are found by union-find in array steps on the bipartite
    graph of rows and columns: every round hooks the larger root of each
    edge whose ends differ onto the smaller (so no cycle forms, and every
    component with such an edge hooks or is hooked: their number at
    least halves), then jumps pointers until each node holds its root.
    """
    if not rows.size:
        return
    used_rows, u = np.unique(rows, return_inverse=True)
    used_cols, v = np.unique(cols, return_inverse=True)
    height = used_rows.size
    parent = np.arange(height + used_cols.size)     # rows, then columns
    while True:
        pu, pv = parent[u], parent[v + height]
        differ = pu != pv
        if not differ.any():
            break
        np.minimum.at(parent, np.maximum(pu, pv)[differ], np.minimum(pu, pv)[differ])
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up
    _, comp = np.unique(parent, return_inverse=True)

    def places(label, count):
        """Each item's place among the items of its label (stable), and the label sizes."""
        sizes = np.bincount(label, minlength=count)
        order = np.argsort(label, kind="stable")
        at = np.empty(label.size, dtype=np.intp)
        at[order] = np.arange(label.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return at, sizes

    count = int(comp.max()) + 1
    row_at, heights = places(comp[:height], count)
    col_at, widths = places(comp[height:], count)
    base = int(widths.max()) + 1
    shapes, group = np.unique(heights * base + widths, return_inverse=True)
    slot, members = places(group, shapes.size)
    cell_comp, col_comp = comp[u], comp[height:]
    for g, shape in enumerate(shapes.tolist()):
        h, w = divmod(shape, base)
        cells = np.flatnonzero(group[cell_comp] == g)
        stack = np.zeros((members[g], h, w), dtype=np.int64)
        stack[slot[cell_comp[cells]], row_at[u[cells]], col_at[v[cells]]] = vals[cells]
        mine = np.flatnonzero(group[col_comp] == g)
        block_cols = np.zeros((members[g], w), dtype=np.intp)
        block_cols[slot[col_comp[mine]], col_at[mine]] = used_cols[mine]
        yield stack, block_cols


def component_rank(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, p: int) -> int:
    """rank of the matrix with these nonzero cells: the sum of its components' ranks.

    Each shape's blocks are ranked by one batch_rank.
    """
    return sum(int(batch_rank(stack, p).sum())
               for stack, _ in _component_blocks(rows, cols, vals))


def component_kernel_rows(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                          width: int, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """kernel_rows of the matrix of `width` columns with these nonzero cells.

    Equal to kernel_rows of the dense matrix, bit for bit (see the module
    docstring).  Each shape's blocks are eliminated by one batch_rref of
    the column-reversed blocks; a column with no cell gives a unit row.
    The rows are assembled by one scatter.
    """
    celled = np.zeros(width, dtype=bool)
    celled[cols] = True
    leads = [np.flatnonzero(~celled)]
    at, to, val = [], [], []
    for stack, block_cols in _component_blocks(rows, cols, vals):
        red, pivots = batch_rref(stack[:, :, ::-1], p)
        rev_cols = block_cols[:, ::-1]
        # kernel row of free column f: 1 at f, -red[i, f] at the pivot of row i
        g, f = np.nonzero(~pivots)
        leads.append(rev_cols[g, f])
        pivot = (red != 0).argmax(axis=2)
        g, i, f = np.nonzero(red * ~pivots[:, None, :])
        at.append(rev_cols[g, f])
        to.append(rev_cols[g, pivot[g, i]])
        val.append(p - red[g, i, f])
    lead = np.sort(np.concatenate(leads))
    at = np.concatenate([lead] + at)
    to = np.concatenate([lead] + to)
    val = np.concatenate([np.ones(lead.size, dtype=np.int64)] + val)
    out = np.zeros((lead.size, width), dtype=np.int64)
    out[np.searchsorted(lead, at), to] = val
    return out, tuple(lead.tolist())


def solve(arr: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """Particular solution of arr @ x = b with free variables zero, or None."""
    arr = np.asarray(arr, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim == 1:
        b = b[:, None]
    if arr.shape[0] != b.shape[0]:
        raise ShapeMismatchError(f"solve: {arr.shape} vs rhs {b.shape}")
    red, pivots = _rref_rows(np.hstack([arr, b % p]), p)
    ncols = arr.shape[1]
    if pivots and pivots[-1] >= ncols:
        return None
    x = np.zeros((ncols, b.shape[1]), dtype=np.int64)
    x[list(pivots)] = red[:, ncols:]
    return x


def row_basis(arr: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical (rref) basis of the row space, with pivot columns."""
    red, pivots = _rref_rows(arr, p)
    return red.astype(np.int64), pivots


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
