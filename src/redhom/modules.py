"""Finitely generated modules over a finite-dimensional local algebra.

A module is a finite GF(p)-space together with one commuting nilpotent
action matrix per distinguished ring generator.  Everything downstream
(Hom spaces, projective covers, syzygies, transposes, free-summand
splitting, isomorphism testing) is exact linear algebra on these
matrices.

Free modules use summand-major coordinates: coordinate t*D + i of
Lambda^r is basis element e_i of the t-th summand.  Submodules are
always carried by the unique reduced-echelon row basis of their
subspace, so quotients, syzygies and witnesses are reproducible.

A module map M -> N is its matrix on column vectors, a (dim N, dim M)
int64 array reduced mod p; the name or field that holds it says its
source and target, and a map kept in a cached value is read-only.
Maps built here are Lambda-linear by construction; a map read from
outside is checked where it is read (cli).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import AlgebraRep, cached


class ModuleError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _digest(actions: tuple[np.ndarray, ...]) -> int:
    """CRC-32 of the action matrices' bytes, the intern table's key.

    Deterministic and cheap (zlib is loaded with numpy, where hashlib
    would add about 2 ms to every start); a hit is confirmed by comparing
    the arrays, so a collision costs only a missed share.
    """
    return zlib.crc32(b"".join(a.tobytes() for a in actions))


class ModuleRep:
    """A finitely generated module given by generator action matrices.

    One module per content: constructing a module equal to one that is
    still alive returns that object, so equal modules share one `_cache`
    and their covers, presentations, resolutions, transposes, Hom spaces
    and End dimensions are computed once.  The table is
    `algebra.modules`, a weak-valued dict, so a module no one holds (a
    search's middles) is freed as before.  A free module is keyed by
    ("free", rank); a module given by actions, even one equal to
    Lambda^r, by its dimension and a digest of its action bytes, and a
    digest hit counts only when the arrays are equal, so equality is
    exact (on a digest collision the new module is simply not interned).
    `validate=True` checks the input before the lookup.

    Sharing the cache is sound because a module is immutable: its
    actions are read-only copies, nothing writes to a module after
    construction, and everything derived from it is a function of its
    algebra and actions alone (free modules of the same rank are equal).
    """

    def __new__(cls, algebra: AlgebraRep, actions, *, dim: int | None = None,
                free_rank: int | None = None, validate: bool = False):
        """Actions give the dimension; `dim` is needed only without generators."""
        self = super().__new__(cls)
        self.algebra = algebra
        if free_rank is not None:
            self.dim = free_rank * algebra.dim
            self._actions = None
            key = ("free", free_rank)
        else:
            mats = [np.asarray(a, dtype=np.int64) % algebra.p for a in actions]
            if len(mats) != algebra.num_gens:
                raise ModuleError(
                    f"expected {algebra.num_gens} action matrices, got {len(mats)}")
            dims = {m.shape for m in mats}
            if len(dims) > 1 or any(m.shape[0] != m.shape[1] for m in mats):
                raise ModuleError(f"action matrices must be square of equal size, got {dims}")
            if mats:
                if dim is not None and dim != mats[0].shape[0]:
                    raise ModuleError(f"dim {dim} does not match actions of size "
                                      f"{mats[0].shape[0]}")
                dim = mats[0].shape[0]
            elif dim is None or int(dim) < 0:
                raise ModuleError("a module over an algebra without generators "
                                  f"needs a nonnegative dim, got {dim!r}")
            self.dim = int(dim)
            for m in mats:
                m.flags.writeable = False
            self._actions = tuple(mats)
            key = (self.dim, _digest(self._actions))
        self.free_rank = free_rank
        self._cache: dict = {}
        if validate:
            self.validate()
        twin = algebra.modules.get(key)
        if twin is None:
            algebra.modules[key] = self
            return self
        if free_rank is not None or all(map(np.array_equal, twin._actions, self._actions)):
            return twin
        return self

    # -- actions ----------------------------------------------------------

    def action_arr(self, j: int) -> np.ndarray:
        return self._free_action(j) if self._actions is None else self._actions[j]

    @cached
    def _free_action(self, j: int) -> np.ndarray:
        r, D = self.free_rank, self.algebra.dim
        L = self.algebra.gen_L(j)
        big = np.zeros((r * D, r * D), dtype=np.int64)
        for t in range(r):
            big[t * D:(t + 1) * D, t * D:(t + 1) * D] = L
        return big

    def act(self, j: int, vecs: np.ndarray) -> np.ndarray:
        """Apply generator j to column vectors; block fast path for frees."""
        p = self.algebra.p
        vecs = np.asarray(vecs, dtype=np.int64)
        if self.free_rank is not None:
            r, D = self.free_rank, self.algebra.dim
            s = vecs.shape[1]
            if r == 0 or s == 0:
                return np.zeros((r * D, s), dtype=np.int64)
            v3 = vecs.reshape(r, D, s).transpose(1, 0, 2).reshape(D, r * s)
            out = gf.mat_mul(self.algebra.gen_L(j), v3, p)
            return out.reshape(D, r, s).transpose(1, 0, 2).reshape(r * D, s)
        return gf.mat_mul(self.action_arr(j), vecs, p)

    @cached
    def rho(self) -> np.ndarray:
        """Stack of matrices rho[i] realizing the action of basis element e_i.

        Every basis element of the algebra is a linear combination of
        products of the distinguished generators, so the generator
        actions determine the action of the whole ring: ops[w] is the
        action of the w-th generator word.
        """
        d, A = self.dim, self.algebra
        ops = np.zeros((A.dim, d, d), dtype=np.int64)
        ops[0] = np.eye(d, dtype=np.int64)
        for w, (parent, j) in enumerate(A.words):
            if w:
                ops[w] = gf.mat_mul(ops[parent], self.action_arr(j), A.p)
        return gf.mat_mul(A.word_coords.T, ops.reshape(A.dim, -1), A.p).reshape(A.dim, d, d)

    @cached
    def radical_rows(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Canonical row basis of m*M = sum of generator images."""
        A = self.algebra
        if self.free_rank is not None:
            # m * Lambda^r is spanned by the non-unit coordinates
            r, D = self.free_rank, A.dim
            piv = tuple(t * D + i for t in range(r) for i in range(1, D))
            rows = np.zeros((len(piv), r * D), dtype=np.int64)
            for s, c in enumerate(piv):
                rows[s, c] = 1
            return rows, piv
        if A.num_gens == 0 or self.dim == 0:
            return np.zeros((0, self.dim), dtype=np.int64), ()
        stacked = np.vstack([self.action_arr(j).T for j in range(A.num_gens)])
        return gf.row_basis(stacked, A.p)

    @cached
    def radical_series_dims(self) -> tuple[int, ...]:
        """(dim M, dim mM, dim m^2 M, ...) while nonzero, or (dim M, 0) when
        M != 0 = mM and the algebra has generators: k gives (1, 0), R1 (3, 2)."""
        dims = [self.dim]
        rows = np.eye(self.dim, dtype=np.int64)
        while rows.shape[0]:
            imgs = [self.act(j, rows.T).T for j in range(self.algebra.num_gens)]
            if not imgs:
                break
            rows, _ = gf.row_basis(np.vstack(imgs), self.algebra.p)
            if rows.shape[0]:
                dims.append(rows.shape[0])
        if len(dims) == 1 and self.dim and self.algebra.num_gens:
            dims.append(0)
        return tuple(dims)

    def validate(self) -> None:
        """Check the action matrices define a module over this algebra."""
        A = self.algebra
        n = A.num_gens
        for i in range(n):
            ai = self.action_arr(i)
            if ai.shape != (self.dim, self.dim):
                raise ModuleError(f"action {i} has shape {ai.shape}, expected square {self.dim}")
        for i in range(n):
            for j in range(i + 1, n):
                ai, aj = self.action_arr(i), self.action_arr(j)
                if not (gf.mat_mul(ai, aj, A.p) == gf.mat_mul(aj, ai, A.p)).all():
                    raise ModuleError(
                        f"actions of generators {A.gen_labels[i]} and {A.gen_labels[j]} "
                        "do not commute", witness=(i, j))
        rho = self.rho()
        for j in range(n):
            expected = gf.lincomb(self.algebra.gens[j], rho, A.p)
            if not (expected == self.action_arr(j)).all():
                raise ModuleError(
                    f"action of generator {A.gen_labels[j]} is inconsistent with "
                    "the ring relations", witness=j)
        for i in range(A.dim):
            for j in range(i, A.dim):
                lhs = gf.mat_mul(rho[i], rho[j], A.p)
                rhs = gf.lincomb(A.table[i, j], rho, A.p)
                if not (lhs == rhs).all():
                    raise ModuleError(
                        f"ring relation {A.basis_labels[i]} * {A.basis_labels[j]} fails "
                        "on the module", witness=(i, j))

    def to_jsonable(self) -> dict:
        return {"dim": self.dim,
                "actions": [self.action_arr(j).tolist()
                            for j in range(self.algebra.num_gens)]}

    def __repr__(self):
        tag = f", free_rank={self.free_rank}" if self.free_rank is not None else ""
        return f"ModuleRep(dim={self.dim}{tag})"


# -- basic constructions ---------------------------------------------------

def free_module(algebra: AlgebraRep, rank: int) -> ModuleRep:
    if rank < 0:
        raise ModuleError(f"free rank must be nonnegative, got {rank}")
    return ModuleRep(algebra, None, free_rank=rank)


def zero_module(algebra: AlgebraRep) -> ModuleRep:
    return ModuleRep(algebra, [np.zeros((0, 0), dtype=np.int64)] * algebra.num_gens,
                     dim=0)


@cached
def simple_module(algebra: AlgebraRep) -> ModuleRep:
    """The residue field k as a module (cached, so k and its resolution
    live as long as the algebra)."""
    return ModuleRep(algebra, [np.zeros((1, 1), dtype=np.int64)] * algebra.num_gens, dim=1)


def direct_sum(mods: list[ModuleRep], algebra: AlgebraRep | None = None) -> ModuleRep:
    """Block-diagonal sum; a single summand is returned as it is."""
    if not mods:
        if algebra is None:
            raise ModuleError("empty direct sum needs the algebra")
        return zero_module(algebra)
    A = mods[0].algebra
    for m in mods:
        if m.algebra is not A:
            raise ModuleError("direct sum of modules over different algebras")
    if len(mods) == 1:
        return mods[0]
    if all(m.free_rank is not None for m in mods):
        return free_module(A, sum(m.free_rank for m in mods))
    total = sum(m.dim for m in mods)
    offsets = np.cumsum([0] + [m.dim for m in mods])
    acts = []
    for j in range(A.num_gens):
        big = np.zeros((total, total), dtype=np.int64)
        for m, off in zip(mods, offsets):
            big[off:off + m.dim, off:off + m.dim] = m.action_arr(j)
        acts.append(big)
    return ModuleRep(A, acts, dim=total)


def submodule_from_rows(ambient: ModuleRep, rows: np.ndarray,
                        pivots: tuple[int, ...]):
    """Module on an action-stable subspace given by its rref row basis.

    Returns (module, inclusion), the inclusion module -> ambient being
    rows^T, a view of the rows.  Coordinates of a subspace vector v are
    v[pivots], which is what makes restriction of the actions cheap.
    """
    A = ambient.algebra
    s = rows.shape[0]
    piv = list(pivots)
    acts = []
    for j in range(A.num_gens):
        imgs = ambient.act(j, rows.T)
        acts.append(imgs[piv, :] if s else np.zeros((0, 0), dtype=np.int64))
    return ModuleRep(A, acts, dim=s), rows.T


def span_submodule(ambient: ModuleRep, vectors: np.ndarray):
    """Smallest submodule containing the given column vectors."""
    A = ambient.algebra
    rows, piv = gf.row_basis(np.asarray(vectors, dtype=np.int64).T, A.p)
    while rows.shape[0]:
        imgs = [ambient.act(j, rows.T).T for j in range(A.num_gens)]
        if not imgs:
            break
        bigger, piv2 = gf.row_basis(np.vstack([rows] + imgs), A.p)
        if bigger.shape[0] == rows.shape[0]:
            piv = piv2
            break
        rows, piv = bigger, piv2
    return submodule_from_rows(ambient, rows, piv)


def quotient_module(ambient: ModuleRep, rows: np.ndarray, pivots: tuple[int, ...]):
    """Quotient by an action-stable subspace in rref row form.

    The quotient keeps the non-pivot coordinates, so its basis is the
    image of deterministic standard basis vectors.  Returns
    (module, projection, section): the projection ambient -> module, and
    the section module -> ambient, a linear (not module) splitting used
    to lift representatives.
    """
    A = ambient.algebra
    d = ambient.dim
    pivot_set = set(pivots)
    nonpiv = [c for c in range(d) if c not in pivot_set]
    q = len(nonpiv)
    embed = np.zeros((d, q), dtype=np.int64)
    for t, c in enumerate(nonpiv):
        embed[c, t] = 1
    acts = []
    for j in range(A.num_gens):
        cols = ambient.act(j, embed)
        reduced = gf.reduce_mod_rowspace(rows, pivots, cols, A.p)
        acts.append(reduced[nonpiv, :])
    quot = ModuleRep(A, acts, dim=q)
    proj_full = gf.reduce_mod_rowspace(rows, pivots, np.eye(d, dtype=np.int64), A.p)
    return quot, proj_full[nonpiv, :], embed


# -- covers, syzygies, presentations ---------------------------------------

@dataclass
class CoverData:
    cover: np.ndarray         # Lambda^g -> M, minimal
    syzygy: ModuleRep
    inclusion: np.ndarray     # syzygy -> Lambda^g, columns in rref row form
    pivots: tuple[int, ...]   # pivot columns of those rows
    free: ModuleRep


@cached
def minimal_generator_coords(mod: ModuleRep) -> tuple[int, ...]:
    pivots = set(mod.radical_rows()[1])
    return tuple(c for c in range(mod.dim) if c not in pivots)


def _map_rank(f: np.ndarray, p: int) -> int:
    """Rank of a module map given by its dense matrix, the rank of a
    ModuleComplex map (complexes itself ranks only LambdaMatrix forms)."""
    return gf.rank(f, p)


def check_minimal_kernel(rows: gf.Cells, ring_dim: int) -> None:
    """Refuse kernel rows of a minimal cover or differential out of Lambda^g
    that leave m * Lambda^g, i.e. have a cell at a unit coordinate t * dim Lambda."""
    if (rows.cols % ring_dim == 0).any():
        raise AssertionError("kernel leaves the radical: map is not minimal")


@cached
def projective_cover_and_syzygy(mod: ModuleRep) -> CoverData:
    """Minimal cover and its kernel with the inclusion, all deterministic
    and read-only; neither map refers back to the module."""
    A = mod.algebra
    gens = minimal_generator_coords(mod)
    # column t * dim Lambda + i is e_i times the t-th minimal generator
    phi = mod.rho()[:, :, list(gens)].transpose(1, 2, 0).reshape(mod.dim, len(gens) * A.dim)
    free = free_module(A, len(gens))
    rows, piv = gf.kernel_rows(phi, A.p)
    if phi.shape[1] - rows.shape[0] != mod.dim:     # rank = columns - nullity
        raise AssertionError("projective cover must be surjective")
    check_minimal_kernel(gf.Cells.of(rows), A.dim)
    syz, incl = submodule_from_rows(free, rows, piv)
    return CoverData(phi, syz, incl, piv, free)


class LambdaMatrix:
    """A matrix with entries in the algebra, i.e. a map of free modules.

    Shape (rows, cols) encodes a module map Lambda^cols -> Lambda^rows;
    entry (s, t) is the coefficient vector of the element multiplying
    the t-th source summand into the s-th target summand.

    The matrix is held only as its nonzero entries, `nonzero`: a gf.Cells
    of shape (rows, cols, dim Lambda) whose positions (s, t) run in
    row-major order and whose values lie in [0, p), all read-only.  A
    dense input is reduced mod p and its nonzero entries copied, so the
    caller's array is never shared; a gf.Cells input must already be
    so and is kept as it is.  The linear form, its cells, the transpose
    and the JSON are read off the cells; `entries`, the dense array, is
    built on each read, for callers outside the package.

    The form over a module N (the ring by default) has block (s, t)
    rho_N(entry (s, t)); rho of the ring is left_mult, so that form is
    the map itself.  Hom(d, N) is the form of d^T over N: phi . d sends
    e_t to sum_s entry (s, t) * phi(e_s), so in Hom(Lambda^r, N) = N^r,
    phi -> (phi(e_s))_s, its block (t, s) is rho_N(entry (s, t)).
    Kernel rows and ranks of a form of more than gf.BLOCK_CELLS cells
    are eliminated by the components of its support, equal to the
    dense path's bit for bit (see gf), and the form is built only for a
    caller that needs it densely.  Only what is built is priced
    (gf.check_budget); kernel rows come back as cells.
    """

    __slots__ = ("algebra", "nonzero", "_cache")

    def __init__(self, algebra: AlgebraRep, entries):
        self.algebra = algebra
        given = isinstance(entries, gf.Cells)
        if not given:
            entries = np.asarray(entries, dtype=np.int64)
        if len(entries.shape) != 3 or entries.shape[2] != algebra.dim:
            raise ModuleError(f"lambda matrix entries must be (rows, cols, {algebra.dim})"
                              f", got {entries.shape}")
        self.nonzero = entries if given else gf.Cells.of(entries % algebra.p)
        self._cache = {}

    @property
    def rows(self) -> int:
        return self.nonzero.shape[0]

    @property
    def cols(self) -> int:
        return self.nonzero.shape[1]

    @property
    def entries(self) -> np.ndarray:
        """The dense (rows, cols, dim Lambda) entries, built on each read."""
        return np.asarray(self.nonzero)

    def _form_cells(self, module: ModuleRep | None = None) -> int:
        """r*d x c*d, the number of cells of the form over the module of dim d."""
        r, c, D = self.nonzero.shape
        d = D if module is None else module.dim
        return r * d * c * d

    def _check_budget(self, cells: int, what: str, module: ModuleRep | None) -> None:
        over = "the algebra" if module is None else f"a module of dimension {module.dim}"
        gf.check_budget(cells, f"{what} of a {self.rows} x {self.cols} matrix over {over}")

    def _blocks(self, module: ModuleRep | None = None) -> np.ndarray:
        """rho(entry) for each nonzero entry, (nnz, d, d): block (s, t) of the form."""
        A = self.algebra
        rho = A.left_mult if module is None else module.rho()
        nnz, d = self.nonzero.vals.shape[0], rho.shape[1]
        self._check_budget(nnz * d * d, f"the {nnz} nonzero blocks", module)
        return gf.mat_mul(self.nonzero.vals, rho.reshape(A.dim, d * d), A.p).reshape(nnz, d, d)

    def _form(self, module: ModuleRep | None = None) -> np.ndarray:
        """The dense form over the module, refused over the budget before it is built."""
        r, c, D = self.nonzero.shape
        d = D if module is None else module.dim
        self._check_budget(r * d * c * d, "the linear form", module)
        dual = self._cache.get(LambdaMatrix.transpose.__qualname__) if module is None else None
        partner = None if dual is None else dual._cache.get(LambdaMatrix.to_linear.__qualname__)
        if partner is not None:
            # block (s, t) of the linear form is L(entry (s, t)), so the
            # transpose's form is the partner's with its blocks swapped
            lin = partner.reshape(c, d, r, d).transpose(2, 1, 0, 3)
        else:
            lin = np.zeros((r, d, c, d), dtype=np.int64)
            lin[self.nonzero.rows, :, self.nonzero.cols, :] = self._blocks(module)
        return np.ascontiguousarray(lin.reshape(r * d, c * d))

    @cached
    def to_linear(self) -> np.ndarray:
        """The underlying GF(p)-matrix in summand-major coordinates."""
        return self._form()

    @cached
    def transpose(self) -> "LambdaMatrix":
        """The entry-wise transpose, i.e. the dual map; built once per matrix.

        The transpose's own transpose is this object, so each dualized
        differential keeps one linear form and one rank however often
        it is dualized.
        """
        nz = self.nonzero
        order = np.lexsort((nz.rows, nz.cols))
        dual = LambdaMatrix(self.algebra, gf.Cells(
            nz.cols[order], nz.rows[order], nz.vals[order], (self.cols, self.rows, nz.shape[2])))
        dual._cache[LambdaMatrix.transpose.__qualname__] = self
        return dual

    def cells(self, module: ModuleRep | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero cells (rows, cols, values) of the form over the module.

        One mat_mul of the nonzero entries by rho gives the blocks; only
        a zero entry's block is known to vanish, so the cells are read
        off the blocks.
        """
        blocks = self._blocks(module)
        d = blocks.shape[1]
        k, a, b = np.nonzero(blocks)
        return self.nonzero.rows[k] * d + a, self.nonzero.cols[k] * d + b, blocks[k, a, b]

    @cached
    def kernel_rows(self, module: ModuleRep | None = None) -> tuple[gf.Cells, tuple[int, ...]]:
        """Canonical row basis of the kernel of the form over the module, the
        ring by default, as its cells, with pivots (cached per module)."""
        p = self.algebra.p
        if self._form_cells(module) > gf.BLOCK_CELLS:
            d = self.algebra.dim if module is None else module.dim
            return gf.component_kernel_rows(*self.cells(module), self.cols * d, p)
        rows, lead = gf.kernel_rows(self.to_linear() if module is None else self._form(module), p)
        return gf.Cells.of(rows), lead

    @cached
    def linear_rank(self, module: ModuleRep | None = None) -> int:
        """Rank of the form over the module, the ring by default (cached per module)."""
        p = self.algebra.p
        if self._form_cells(module) > gf.BLOCK_CELLS:
            return gf.component_rank(*self.cells(module), p)
        return gf.rank(self.to_linear() if module is None else self._form(module), p)

    def in_radical(self) -> bool:
        """True when every entry lies in the maximal ideal."""
        return not self.nonzero.vals[:, 0].any()

    def to_jsonable(self) -> list:
        """The dense entries as nested lists, filled from the nonzero ones."""
        r, c, D = self.nonzero.shape
        out = [[[0] * D for _ in range(c)] for _ in range(r)]
        nz = self.nonzero
        for s, t, v in zip(nz.rows.tolist(), nz.cols.tolist(), nz.vals.tolist()):
            out[s][t] = v
        return out

    def __repr__(self):
        return f"LambdaMatrix({self.rows}x{self.cols})"


def lambda_from_linear(algebra: AlgebraRep, mat: np.ndarray,
                       target_rank: int, source_rank: int) -> LambdaMatrix:
    """Recover the algebra-entry matrix of a module map between frees."""
    D = algebra.dim
    mat = np.asarray(mat, dtype=np.int64)
    if mat.shape != (target_rank * D, source_rank * D):
        raise ModuleError(f"linear matrix {mat.shape} does not match ranks "
                          f"({target_rank}, {source_rank})")
    entries = mat.reshape(target_rank, D, source_rank, D)[:, :, :, 0].transpose(0, 2, 1)
    lam = LambdaMatrix(algebra, entries)
    if (lam.to_linear() != mat % algebra.p).any():
        raise AssertionError("matrix is not a module map between free modules")
    return lam


def _radical_pivots(algebra: AlgebraRep, rows: gf.Cells,
                    pivots: tuple[int, ...]) -> tuple[int, ...]:
    """The leading columns of the span of every x_j * row, in the rows' coordinates.

    A cell v at column t*D + e of a row adds v * gen_L(j)[d, e] to column
    t*D + d of x_j * row, and only the pivot columns are read.  Row
    r*n + j of the image matrix is x_j * row r at the pivots (the order of
    the rows does not change their span's pivots).  At most gf.BLOCK_CELLS
    cells it is summed densely and eliminated by gf.echelon_pivots; above,
    only its nonzero cells are kept and gf.component_pivots eliminates its
    support's components.
    """
    s, n, D, p = rows.shape[0], algebra.num_gens, algebra.dim, algebra.p
    if not (s and n and rows.vals.size):
        return ()
    place = np.full(rows.shape[1], s)       # s marks a column that is no pivot
    place[list(pivots)] = np.arange(s)
    block, e = np.divmod(rows.cols, D)
    # img[k, j, d]: cell k's part of x_j * row at column block*D + d
    img = rows.vals[:, None, None] * algebra.gen_L_stack()[:, :, e].transpose(2, 0, 1) % p
    at = place.reshape(-1, D)[block][:, None, :]
    if s * n * s <= gf.BLOCK_CELLS:
        imgs = np.zeros((s, n, s + 1), dtype=np.int64)
        np.add.at(imgs, (rows.rows[:, None, None], np.arange(n)[:, None], at), img)
        return gf.echelon_pivots(imgs[:, :, :s].reshape(s * n, s) % p, p)
    k, j, d = np.nonzero(img * (at < s))
    if not k.size:
        return ()
    key = (rows.rows[k] * n + j) * s + at[k, 0, d]
    order = np.argsort(key, kind="stable")
    key, img = key[order], img[k, j, d][order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sums = np.add.reduceat(img, first) % p
    nonzero = sums != 0
    img_row, img_col = np.divmod(key[first[nonzero]], s)
    return gf.component_pivots(img_row, img_col, sums[nonzero], p)


def minimal_generators(algebra: AlgebraRep, rank: int, rows: gf.Cells,
                       pivots: tuple[int, ...]) -> LambdaMatrix:
    """Map onto the submodule of Lambda^rank spanned by the rows, minimally.

    The rows are the cells of an rref basis with these pivots.  The
    columns of the result are the rows except those whose pivot
    coordinate leads a row of the radical: the images x_j * row lie in
    the row space, so their pivot coordinates are their coordinates in
    the rows, and the radical's leading columns come from forward
    elimination on those coordinates alone.  Above gf.BLOCK_CELLS image
    cells (s * n * s for s rows and n generators) that elimination runs
    on the support components of the images.  A kept row's cells at
    columns t*D + d are coordinates d of entry (t, row) of the map; the
    entries are the distinct places t * width + row, sorted, so they come
    in row-major order.  No dense row or image array is built.  This is
    the next differential of a resolution, and the relations of a
    minimal presentation.
    """
    s, D = rows.shape[0], algebra.dim
    rad = _radical_pivots(algebra, rows, pivots)
    r, c, v = rows.rows, rows.cols, rows.vals
    if rad:
        keep = np.ones(s, dtype=bool)
        keep[list(rad)] = False
        mine = keep[r]
        r, c, v = (np.cumsum(keep) - 1)[r[mine]], c[mine], v[mine]
    width = s - len(rad)
    place = c // D * width + r
    entry = np.sort(place)      # not np.unique, whose first call imports numpy.ma
    entry = np.concatenate((entry[:1], entry[1:][entry[1:] != entry[:-1]]))
    vals = np.zeros((entry.size, D), dtype=np.int64)
    vals[np.searchsorted(entry, place), c % D] = v
    lam = LambdaMatrix(algebra, gf.Cells(*np.divmod(entry, width), vals, (rank, width, D)))
    if not lam.in_radical():
        raise AssertionError("differential entries must lie in the radical")
    return lam


@cached
def minimal_presentation(mod: ModuleRep) -> LambdaMatrix:
    """d_1 of the minimal presentation P1 -> P0 -> M -> 0, whose P0 -> M is the cover."""
    data = projective_cover_and_syzygy(mod)
    return minimal_generators(mod.algebra, data.free.free_rank,
                              gf.Cells.of(data.inclusion.T), data.pivots)


def cokernel_of_lambda_matrix(lam: LambdaMatrix):
    """Cokernel of the free-module map, with the projection from Lambda^rows."""
    A = lam.algebra
    free = free_module(A, lam.rows)
    rows, piv = gf.row_basis(lam.to_linear().T, A.p)
    quot, proj, _ = quotient_module(free, rows, piv)
    return quot, proj


@cached
def transpose_module(mod: ModuleRep) -> ModuleRep:
    """Auslander transpose from the minimal presentation.

    Over a commutative ring the dual of a free-module map is the
    entry-wise transposed matrix, so tr M = coker of the transposed
    minimal presentation.  Free modules have transpose zero.
    """
    return cokernel_of_lambda_matrix(minimal_presentation(mod).transpose())[0]


# -- hom spaces -------------------------------------------------------------

@dataclass
class HomSpace:
    p: int
    basis: np.ndarray              # (dim, dn, dm); slice t is kernel column t
    kernel: np.ndarray             # columns: the canonical basis of Hom(M, N)
    free_coords: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of one map, or of each map in a stack of maps."""
        mat = np.asarray(mat, dtype=np.int64)
        flat = mat.reshape(mat.shape[:-2] + (mat.shape[-2] * mat.shape[-1],))
        return flat[..., list(self.free_coords)] % self.p

    def precompose(self, g: np.ndarray, onto: "HomSpace") -> np.ndarray:
        """Coordinates in `onto` = Hom(W, N) of f . g for g: W -> M.

        One row per basis map f of this space Hom(M, N).
        """
        h, dn, dm = self.basis.shape
        comps = gf.mat_mul(self.basis.reshape(h * dn, dm), g, self.p)
        return onto.coords(comps.reshape(h, dn, g.shape[1]))


def form_args(target: ModuleRep) -> tuple:
    """The module argument of a form over the target: none for Lambda
    itself, whose rho is left_mult, so it shares the ring's cached form."""
    return () if target.free_rank == 1 else (target,)


@cached
def cover_section(mod: ModuleRep) -> tuple[np.ndarray, np.ndarray]:
    """Columns J of the cover pi: Lambda^g -> M that form a basis of M, and
    the inverse of pi[:, J] (cached on M).

    The inverse at rows J and zeros elsewhere is a linear section s of
    pi, pi . s = 1: it is the solution of pi . s = 1 with its free
    variables zero, whose rows are nonzero exactly at the pivots.
    """
    phi = projective_cover_and_syzygy(mod).cover
    section = gf.solve(phi, np.eye(mod.dim, dtype=np.int64), mod.algebra.p)
    cols = np.flatnonzero(section.any(axis=1))
    return cols, section[cols]


def _hom_maps(source: ModuleRep, target: ModuleRep) -> np.ndarray:
    """A basis of Hom(M, N) as a (h, dim N, dim M) stack, not canonical.

    Hom is left exact, so 0 -> Hom(M, N) -> N^g -> N^b is exact for the
    minimal presentation Lambda^b -d_1-> Lambda^g -pi-> M: Hom(M, N) is
    the kernel of Hom(d_1, N), the form of d_1^T over N.  A kernel vector
    v gives F: Lambda^g -> N, e_i g_s -> rho_N(e_i) v_s, which kills
    im d_1 = ker pi, so F = f . pi and f = F . s for a linear section s
    of pi.  f determines v (v_s = f(pi(g_s))), so the maps are
    independent.  For a free M the cover is the identity and d_1 has no
    columns: the kernel is all of N^g and no cover or system is built.
    """
    A, n = source.algebra, target.dim
    D, p = A.dim, A.p
    rho = target.rho()
    if source.free_rank is not None:
        # v = e_b in summand s: column s*D + i of f is rho_N(e_i)[:, b]
        r = source.free_rank
        maps = np.zeros((r, n, n, r, D), dtype=np.int64)
        every = np.arange(r)
        maps[every, :, :, every, :] = rho.transpose(2, 1, 0)
        return maps.reshape(r * n, n, r * D)
    dual = minimal_presentation(source).transpose()
    v = np.asarray(dual.kernel_rows(*form_args(target))[0])
    h, g = v.shape[0], dual.cols
    cols, inverse = cover_section(source)
    gens, elems = np.divmod(cols, D)
    # f = F . s needs F only at the section's columns J: column j of F is
    # rho_N(e_i) v_t for j = t*D + i, built per basis element e_i; e_0 is
    # the unit, so its columns are the v_t themselves
    F = v.reshape(h, g, n)[:, gens, :]
    for i in set(elems.tolist()) - {0}:     # not np.unique, whose first call imports numpy.ma
        at = np.flatnonzero(elems == i)
        F[:, at, :] = gf.mat_mul(F[:, at, :].reshape(-1, n), rho[i].T, p).reshape(h, at.size, n)
    F = F.transpose(0, 2, 1)
    return gf.mat_mul(F.reshape(h * n, cols.size), inverse, p).reshape(h, n, source.dim)


def hom_space(source: ModuleRep, target: ModuleRep) -> HomSpace:
    """Hom(M, N) as the kernel of Hom(d_1, N), in canonical coordinates.

    Coordinate t*m + i of a map is its entry (t, i), for m = dim M.  The
    basis maps of _hom_maps span the subspace Hom(M, N) of GF(p)^(n*m);
    `kernel` is its unique basis that is the identity on the free
    coordinates, read backwards off one row_basis of the column-reversed
    maps as gf.kernel reads kernel_rows.  Why that equals gf.kernel of
    the commuting system f . a_j = b_j . f (the tests' reference), entry
    for entry: the reversed maps span the reversal of Hom(M, N), which
    is the kernel of that system with its columns reversed, and the rref
    of a subspace is unique, so their row_basis is the system's reversed
    kernel_rows, and `kernel`, `basis` and `free_coords` follow from it
    by gf.kernel's own reading.
    """
    A = source.algebra
    if target.algebra is not A:
        raise ModuleError("hom between modules over different algebras")
    dm, dn = source.dim, target.dim
    if dm == 0 or dn == 0:
        k, free = np.zeros((dn * dm, 0), dtype=np.int64), ()
    else:
        maps = _hom_maps(source, target)
        rows, lead = gf.row_basis(maps.reshape(maps.shape[0], dn * dm)[:, ::-1], A.p)
        k, free = rows[::-1, ::-1].T, tuple(dn * dm - 1 - c for c in reversed(lead))
    basis = k.T.reshape(k.shape[1], dn, dm)
    k.flags.writeable = basis.flags.writeable = False
    return HomSpace(A.p, basis, k, free)


def hom_dim(source: ModuleRep, target: ModuleRep) -> int:
    """dim Hom(M, N) = mu(M) * dim N - rank Hom(d_1, N), with no basis."""
    if target.algebra is not source.algebra:
        raise ModuleError("hom between modules over different algebras")
    if source.dim == 0 or target.dim == 0:
        return 0
    if source.free_rank is not None:
        return source.free_rank * target.dim
    dual = minimal_presentation(source).transpose()
    return dual.cols * target.dim - dual.linear_rank(*form_args(target))


@dataclass
class HomModule:
    module: ModuleRep
    space: HomSpace


def hom_module(source: ModuleRep, target: ModuleRep) -> HomModule:
    """Hom(M, N) as a module: the ring acts through the target."""
    A = source.algebra
    space = hom_space(source, target)
    h = space.dim
    dm, dn = source.dim, target.dim
    acts = []
    for j in range(A.num_gens):
        if h == 0:
            acts.append(np.zeros((0, 0), dtype=np.int64))
            continue
        # (an (x) I_m) @ kernel, without forming the Kronecker product:
        # kernel row t*dm + i is entry (t, i) of a dn x dm hom matrix.
        moved = gf.mat_mul(target.action_arr(j), space.kernel.reshape(dn, dm * h), A.p)
        acts.append(moved.reshape(dn * dm, h)[list(space.free_coords), :])
    mod = ModuleRep(A, acts, dim=h)
    return HomModule(mod, space)


# -- splitting off free summands -------------------------------------------

@dataclass
class SplitResult:
    core: ModuleRep
    free_rank: int
    iso: np.ndarray  # M -> core (+) Lambda^free_rank, read-only


def has_free_summand(mod: ModuleRep) -> bool:
    """True when M has a direct summand isomorphic to Lambda; no Hom space.

    Let d_1: P_1 -> P_0 be the minimal presentation and pi: P_0 -> M the
    cover.  A vector v of P_0* = Lambda^g is killed by d_1^T exactly
    when the map e_s -> v_s kills im d_1 = ker pi, so ker d_1^T is
    {f . pi : f in M*}.  Over a commutative local ring M has a free
    summand iff some f: M -> Lambda is onto, i.e. hits a unit.  f . pi
    has the same image, the ideal generated by the v_s, which is all of
    Lambda iff some v_s is a unit, i.e. has a nonzero coordinate
    t * dim Lambda.  That condition is linear in v, so it suffices to
    look at a basis of the kernel.  The basis is cached on d_1^T, which
    seeds the transpose's resolution, so its first kernel is this one.
    """
    if mod.dim == 0:
        return False
    dual = minimal_presentation(mod).transpose()
    rows, _ = dual.kernel_rows()
    return bool((rows.cols % mod.algebra.dim == 0).any())


def split_free_summands(mod: ModuleRep) -> SplitResult:
    """Write M as core (+) Lambda^r with the core free-summand-free.

    A free summand exists exactly when some homomorphism M -> Lambda
    hits a unit; each round splits one off, so the loop ends after at
    most dim/D rounds.  `has_free_summand` decides the first round
    without a Hom space, so a free-summand-free M costs no hom_space,
    and its split (core M, the identity) is not cached on M.
    """
    if has_free_summand(mod):
        return _split_off_free(mod)
    identity = np.eye(mod.dim, dtype=np.int64)
    identity.flags.writeable = False
    return SplitResult(mod, 0, identity)


@cached
def _split_off_free(mod: ModuleRep) -> SplitResult:
    A = mod.algebra
    p = A.p
    current = mod
    phi = np.eye(mod.dim, dtype=np.int64)
    rank = 0
    while current.dim > 0:
        maps = hom_space(current, free_module(A, 1)).basis
        hits = np.flatnonzero(maps[:, 0].any(axis=1))
        if not hits.size:
            if not rank:
                raise AssertionError("has_free_summand and Hom(M, Lambda) disagree")
            break
        pick = maps[hits[0]]
        u = gf.solve(pick, A.unit(), p)
        if u is None:
            raise AssertionError("a hom hitting a unit must be surjective")
        rho = current.rho()
        section = np.stack([gf.mat_mul(rho[i], u, p)[:, 0] for i in range(A.dim)], axis=1)
        rows, piv = gf.kernel_rows(pick, p)
        ker_mod, _ = submodule_from_rows(current, rows, piv)
        proj_lin = (np.eye(current.dim, dtype=np.int64)
                    - gf.mat_mul(section, pick, p)) % p
        step = np.vstack([proj_lin[list(piv), :], pick])
        lift = np.zeros((step.shape[0] + rank * A.dim, phi.shape[0]), dtype=np.int64)
        lift[:step.shape[0]] = gf.mat_mul(step, phi[:current.dim], p)
        lift[step.shape[0]:] = phi[current.dim:]
        phi = lift
        current = ker_mod
        rank += 1
    if gf.rank(phi, p) != mod.dim:
        raise AssertionError("free-summand splitting must be invertible")
    return SplitResult(current, rank, phi)


# -- isomorphism testing -----------------------------------------------------

@dataclass
class IsoVerdict:
    kind: str                      # "yes", "no" or "unknown"
    witness: np.ndarray | None = None   # an isomorphism M -> N
    certificate: str | None = None
    method: str | None = None

    def __bool__(self):
        return self.kind == "yes"


# Entries of candidate matrices built and ranked at once by the exhaustive
# isomorphism scan; bounds its memory whatever the module dimension.
_ISO_CHUNK_ENTRIES = 1 << 15


@cached
def _end_dim(mod: ModuleRep) -> int:
    """dim End(M), cached on the module."""
    return hom_dim(mod, mod)


def is_isomorphic(m: ModuleRep, n: ModuleRep, *, exhaust_cap: int = 2_000_000,
                  samples: int = 128, seed: int = 0) -> IsoVerdict:
    """Three-valued isomorphism test with explicit witnesses.

    Cheap invariants first; then an invertible element of Hom(M, N) is
    searched exhaustively when p^dim Hom fits under the cap, otherwise
    by seeded random sampling (which can only return yes or unknown).
    """
    if m.algebra is not n.algebra:
        raise ModuleError("isomorphism test across algebras")
    p = m.algebra.p
    if m.dim != n.dim:
        return IsoVerdict("no", certificate=f"dimension {m.dim} != {n.dim}")
    if m.dim == 0:
        return IsoVerdict("yes", witness=np.zeros((0, 0), dtype=np.int64), method="trivial")
    rm, rn = m.radical_series_dims(), n.radical_series_dims()
    if rm != rn:
        return IsoVerdict("no", certificate=f"radical series {list(rm)} != {list(rn)}")
    em, en = _end_dim(m), _end_dim(n)
    if em != en:
        return IsoVerdict("no", certificate=f"dim End {em} != {en}")
    space = hom_space(m, n)
    h = space.dim
    if h == 0:
        return IsoVerdict("no", certificate="Hom(M, N) = 0")
    flat = space.basis.reshape(h, -1)
    chunk = max(1, _ISO_CHUNK_ENTRIES // flat.shape[1])
    size = gf.power_at_most(p, h, exhaust_cap)
    if size is not None:
        # Candidates in itertools.product order: index k's coefficient
        # tuple is the base-p digits of k, most significant first.
        place = np.array([p ** e for e in range(h - 1, -1, -1)], dtype=np.int64)
        chunks = ((np.arange(lo, min(size, lo + chunk), dtype=np.int64)[:, None] // place) % p
                  for lo in range(0, size, chunk))
        method = "exhaustive"
    else:
        # one draw of every sample equals the samples drawn one at a time
        drawn = np.random.default_rng(seed).integers(0, p, size=(samples, h), dtype=np.int64)
        chunks = (drawn[lo:lo + chunk] for lo in range(0, samples, chunk))
        method = "random"
    for coeffs in chunks:
        cands = gf.mat_mul(coeffs, flat, p).reshape(-1, m.dim, m.dim)
        full = np.flatnonzero(gf.batch_rank(cands, p) == m.dim)
        if full.size:
            return IsoVerdict("yes", witness=cands[full[0]].copy(), method=method)
    if size is not None:
        return IsoVerdict("no", certificate=f"no invertible among all {size} homs",
                          method="exhaustive")
    return IsoVerdict("unknown",
                      certificate=f"hom space of dim {h} too large to enumerate; "
                                  f"{samples} random samples found no isomorphism",
                      method="random")
