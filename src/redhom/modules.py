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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import AlgebraRep, cached


class ModuleError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# Largest int64 linear form a LambdaMatrix may form (160 MiB).  Under a
# 1.5 GiB address-space limit d_11 of k over R1 (144 MiB) resolves with
# a peak RSS of 627 MB, and d_12 (576 MiB) fails with a MemoryError;
# the suite needs at most 71 MiB (d_7 of k over R4), the benchmark 10 MiB.
LINEAR_FORM_BUDGET_BYTES = 160 * 2**20


class LinearFormBudgetError(ValueError):
    """A linear form over LINEAR_FORM_BUDGET_BYTES: too large an input."""


class ModuleRep:
    """A finitely generated module given by generator action matrices."""

    def __init__(self, algebra: AlgebraRep, actions, *, dim: int | None = None,
                 free_rank: int | None = None, validate: bool = False):
        """Actions give the dimension; `dim` is needed only without generators."""
        self.algebra = algebra
        if free_rank is not None:
            self.dim = free_rank * algebra.dim
            self._actions = None
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
        self.free_rank = free_rank
        self._cache: dict = {}
        if validate:
            self.validate()

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
        big.flags.writeable = False
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
        rho = gf.mat_mul(A.word_coords.T, ops.reshape(A.dim, -1), A.p).reshape(A.dim, d, d)
        rho.flags.writeable = False
        return rho

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


class ModuleMap:
    """A homomorphism of modules, stored as its matrix on column vectors.

    `mat` is a read-only int64 array reduced mod p, copied from the
    caller's entries.  Maps between modules over different algebras are
    refused here, which is what keeps moduli from mixing.
    """

    __slots__ = ("source", "target", "mat")

    def __init__(self, source: ModuleRep, target: ModuleRep, mat):
        if source.algebra is not target.algebra:
            raise ModuleError("module map between different algebras")
        self.source = source
        self.target = target
        mat = np.array(mat, dtype=np.int64)
        if mat.shape != (target.dim, source.dim):
            raise ModuleError(
                f"map matrix {'x'.join(map(str, mat.shape))} does not fit "
                f"{target.dim}x{source.dim}")
        mat %= source.algebra.p
        mat.flags.writeable = False
        self.mat = mat

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise ModuleError("composition mismatch")
        return ModuleMap(other.source, self.target,
                         gf.mat_mul(self.mat, other.mat, self.source.algebra.p))

    def rank(self) -> int:
        return gf.rank(self.mat, self.source.algebra.p)

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


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
    """The residue field k as a module (cached so resolutions are shared)."""
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

    Returns (module, inclusion).  Coordinates of a subspace vector v are
    v[pivots], which is what makes restriction of the actions cheap.
    """
    A = ambient.algebra
    s = rows.shape[0]
    piv = list(pivots)
    acts = []
    for j in range(A.num_gens):
        imgs = ambient.act(j, rows.T)
        acts.append(imgs[piv, :] if s else np.zeros((0, 0), dtype=np.int64))
    sub = ModuleRep(A, acts, dim=s)
    incl = ModuleMap(sub, ambient, rows.T)
    return sub, incl


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
    (module, projection, section) with section a linear (not module)
    splitting used to lift representatives.
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
    proj = ModuleMap(ambient, quot, proj_full[nonpiv, :])
    return quot, proj, embed


# -- covers, syzygies, presentations ---------------------------------------

@dataclass
class CoverData:
    cover: ModuleMap          # Lambda^g -> M, minimal
    syzygy: ModuleRep
    inclusion: ModuleMap      # syzygy -> Lambda^g, columns in rref row form
    pivots: tuple[int, ...]   # pivot columns of those rows
    free: ModuleRep


@cached
def minimal_generator_coords(mod: ModuleRep) -> tuple[int, ...]:
    pivots = set(mod.radical_rows()[1])
    return tuple(c for c in range(mod.dim) if c not in pivots)


def check_minimal_kernel(rows: np.ndarray, ring_dim: int) -> None:
    """Refuse kernel rows of a minimal cover or differential out of Lambda^g
    that leave m * Lambda^g, i.e. are nonzero at a unit coordinate t * dim Lambda."""
    if rows[:, ::ring_dim].any():
        raise AssertionError("kernel leaves the radical: map is not minimal")


@cached
def projective_cover_and_syzygy(mod: ModuleRep) -> CoverData:
    """Minimal cover and its kernel with the inclusion, all deterministic."""
    A = mod.algebra
    gens = minimal_generator_coords(mod)
    # column t * dim Lambda + i is e_i times the t-th minimal generator
    phi = mod.rho()[:, :, list(gens)].transpose(1, 2, 0).reshape(mod.dim, len(gens) * A.dim)
    free = free_module(A, len(gens))
    if gf.rank(phi, A.p) != mod.dim:
        raise AssertionError("projective cover must be surjective")
    rows, piv = gf.kernel_rows(phi, A.p)
    check_minimal_kernel(rows, A.dim)
    syz, incl = submodule_from_rows(free, rows, piv)
    return CoverData(ModuleMap(free, mod, phi), syz, incl, piv, free)


class LambdaMatrix:
    """A matrix with entries in the algebra, i.e. a map of free modules.

    Shape (rows, cols) encodes a module map Lambda^cols -> Lambda^rows;
    entry (s, t) is the coefficient vector of the element multiplying
    the t-th source summand into the s-th target summand.

    The kernel rows and rank of a linear form of more than
    gf.BLOCK_CELLS cells are eliminated by the connected components of
    its support, read off the entries, and equal the dense path's bit
    for bit (see gf); such a form is built only for a caller that needs
    it densely.  Either way a form over LINEAR_FORM_BUDGET_BYTES is
    refused.
    """

    __slots__ = ("algebra", "entries", "_cache")

    def __init__(self, algebra: AlgebraRep, entries):
        self.algebra = algebra
        e = np.asarray(entries, dtype=np.int64) % algebra.p
        if e.ndim != 3 or e.shape[2] != algebra.dim:
            raise ModuleError(f"lambda matrix entries must be (rows, cols, {algebra.dim})"
                              f", got {e.shape}")
        e.flags.writeable = False
        self.entries = e
        self._cache = {}

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def _linear_cells(self) -> int:
        """r*D x c*D, the number of cells of the linear form; refuses a form
        over LINEAR_FORM_BUDGET_BYTES, whether or not it is built."""
        r, c, D = self.entries.shape
        size = 8 * r * D * c * D
        if size > LINEAR_FORM_BUDGET_BYTES:
            raise LinearFormBudgetError(
                f"the linear form of a {r} x {c} matrix over the algebra "
                f"would take {size / 2**20:.0f} MiB, over the "
                f"{LINEAR_FORM_BUDGET_BYTES // 2**20} MiB budget")
        return size // 8

    @cached
    def to_linear(self) -> np.ndarray:
        """The underlying GF(p)-matrix in summand-major coordinates."""
        A = self.algebra
        r, c, D = self.entries.shape
        self._linear_cells()
        dual = self._cache.get(LambdaMatrix.transpose.__qualname__)
        partner = None if dual is None else dual._cache.get(LambdaMatrix.to_linear.__qualname__)
        if partner is not None:
            # block (s, t) of the linear form is L(entry (s, t)), so the
            # transpose's form is the partner's with its blocks swapped
            lin = partner.reshape(c, D, r, D).transpose(2, 1, 0, 3)
        else:
            flat = gf.mat_mul(self.entries.reshape(r * c, D),
                              A.left_mult.reshape(D, D * D), A.p)
            lin = flat.reshape(r, c, D, D).transpose(0, 2, 1, 3)
        lin = np.ascontiguousarray(lin.reshape(r * D, c * D))
        lin.flags.writeable = False
        return lin

    @cached
    def transpose(self) -> "LambdaMatrix":
        """The entry-wise transpose, i.e. the dual map; built once per matrix.

        The transpose's own transpose is this object, so each dualized
        differential keeps one linear form and one rank however often
        it is dualized.
        """
        dual = LambdaMatrix(self.algebra, self.entries.transpose(1, 0, 2))
        dual._cache[LambdaMatrix.transpose.__qualname__] = self
        return dual

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The linear form's nonzero cells (rows, cols, values), from the entries.

        Block (s, t) of the form is L(entry (s, t)), which is zero only for
        a zero entry: one mat_mul of the nonzero entries by left_mult.
        """
        A = self.algebra
        D = A.dim
        s, t = np.nonzero(self.entries.any(axis=2))
        blocks = gf.mat_mul(self.entries[s, t], A.left_mult.reshape(D, D * D),
                            A.p).reshape(-1, D, D)
        k, a, b = np.nonzero(blocks)
        return s[k] * D + a, t[k] * D + b, blocks[k, a, b]

    @cached
    def kernel_rows(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Canonical row basis of the linear form's kernel, with pivots."""
        p = self.algebra.p
        if self._linear_cells() > gf.BLOCK_CELLS:
            return gf.component_kernel_rows(*self.cells(), self.cols * self.algebra.dim, p)
        return gf.kernel_rows(self.to_linear(), p)

    @cached
    def linear_rank(self) -> int:
        p = self.algebra.p
        if self._linear_cells() > gf.BLOCK_CELLS:
            return gf.component_rank(*self.cells(), p)
        return gf.rank(self.to_linear(), p)

    def in_radical(self) -> bool:
        """True when every entry lies in the maximal ideal."""
        return not self.entries[:, :, 0].any()

    def to_jsonable(self) -> list:
        return self.entries.tolist()

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


def minimal_generators(algebra: AlgebraRep, rank: int, rows: np.ndarray,
                       pivots: tuple[int, ...]) -> LambdaMatrix:
    """Map onto the submodule of Lambda^rank spanned by the rows, minimally.

    The columns of the result are the rows (rref, with these pivots)
    except those whose pivot coordinate leads a row of the radical: the
    images x_j * row lie in the row space, so their pivot coordinates
    are their coordinates in the rows, and the radical's leading columns
    come from forward elimination on those coordinates alone.  This is
    the next differential of a resolution, and the relations of a
    minimal presentation.
    """
    s, n, D, p = rows.shape[0], algebra.num_gens, algebra.dim, algebra.p
    keep = list(range(s))
    if s and n:
        # pivot column t*D + d of x_j * row is sum_e gen_L(j)[d, e] * row[t*D + e]:
        # gather entry e of block t for every nonzero weight and sum each
        # (j, pivot)'s gathered columns (most have one: a monomial basis), a
        # block of rows at a time.  Row r*n + j of imgs is x_j * row r at the
        # pivots (the order of the rows does not change their span's pivots)
        block, entry = np.divmod(np.asarray(pivots), D)
        weights = algebra.gen_L_stack()[:, entry]
        gen, at, e = np.nonzero(weights)
        imgs = np.zeros((s, n * s), dtype=np.int64)
        if gen.size:
            key = gen * s + at      # ascending, shared by the terms of one sum
            first = np.flatnonzero(np.concatenate(([1], np.diff(key))))
            cols, w = block[at] * D + e, weights[gen, at, e]
            step = max(1, gf.BLOCK_CELLS // gen.size)
            for lo in range(0, s, step):
                terms = rows[lo:lo + step, cols] * w
                terms %= p
                if first.size < key.size:
                    terms = np.add.reduceat(terms, first, axis=1) % p
                imgs[lo:lo + step, key[first]] = terms
        rad_set = set(gf.echelon_pivots(imgs.reshape(s * n, s), p))
        keep = [c for c in range(s) if c not in rad_set]
    # entry (r, t) of the map is block r of the t-th kept row
    lam = LambdaMatrix(algebra, rows[keep].reshape(len(keep), rank, D).transpose(1, 0, 2))
    if not lam.in_radical():
        raise AssertionError("differential entries must lie in the radical")
    return lam


@dataclass
class Presentation:
    cover: ModuleMap
    relations: LambdaMatrix   # map P1 -> P0 with image the syzygy


@cached
def minimal_presentation(mod: ModuleRep) -> Presentation:
    """Minimal free presentation P1 -> P0 -> M -> 0."""
    data = projective_cover_and_syzygy(mod)
    lam = minimal_generators(mod.algebra, data.free.free_rank,
                             data.inclusion.mat.T, data.pivots)
    return Presentation(data.cover, lam)


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
    return cokernel_of_lambda_matrix(minimal_presentation(mod).relations.transpose())[0]


# -- hom spaces -------------------------------------------------------------

@dataclass
class HomSpace:
    source: ModuleRep
    target: ModuleRep
    basis: np.ndarray              # (dim, dn, dm); slice t is kernel column t
    kernel: np.ndarray             # columns span the solution space
    free_coords: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of one map, or of each map in a stack of maps."""
        mat = np.asarray(mat, dtype=np.int64)
        flat = mat.reshape(mat.shape[:-2] + (mat.shape[-2] * mat.shape[-1],))
        return flat[..., list(self.free_coords)] % self.source.algebra.p

    def precompose(self, g: np.ndarray, onto: "HomSpace") -> np.ndarray:
        """Coordinates in `onto` = Hom(W, N) of f . g for g: W -> M.

        One row per basis map f of this space Hom(M, N).
        """
        h, dn, dm = self.basis.shape
        comps = gf.mat_mul(self.basis.reshape(h * dn, dm), g, self.source.algebra.p)
        return onto.coords(comps.reshape(h, dn, g.shape[1]))


def _commuting_system(source: ModuleRep, target: ModuleRep) -> np.ndarray:
    """The blocks I_n (x) a_j^T - b_j (x) I_m of hom_space, stacked over j.

    Unknown t*m + i is entry (t, i) of an n x m hom matrix.  Only the
    nonzero diagonals of the two Kronecker products are written.
    """
    A = source.algebra
    dm, dn = source.dim, target.dim
    rows, cols = np.arange(dn), np.arange(dm)
    blk = np.zeros((A.num_gens, dn, dm, dn, dm), dtype=np.int64)
    for j in range(A.num_gens):
        blk[j][rows, :, rows, :] = source.action_arr(j).T
        blk[j][:, cols, :, cols] -= target.action_arr(j)
    return blk.reshape(A.num_gens * dn * dm, dn * dm) % A.p


def hom_space(source: ModuleRep, target: ModuleRep) -> HomSpace:
    """Solution space of the commuting system f . a_j = b_j . f."""
    A = source.algebra
    if target.algebra is not A:
        raise ModuleError("hom between modules over different algebras")
    dm, dn = source.dim, target.dim
    if dm == 0 or dn == 0:
        k, free = np.zeros((dn * dm, 0), dtype=np.int64), ()
    else:
        k, free = gf.kernel(_commuting_system(source, target), A.p)
    basis = k.T.reshape(k.shape[1], dn, dm)
    k.flags.writeable = basis.flags.writeable = False
    return HomSpace(source, target, basis, k, free)


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
    iso: ModuleMap   # M -> core (+) Lambda^free_rank
    target: ModuleRep


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
    dual = minimal_presentation(mod).relations.transpose()
    rows, _ = dual.kernel_rows()
    return bool(rows[:, ::mod.algebra.dim].any())


@cached
def split_free_summands(mod: ModuleRep) -> SplitResult:
    """Write M as core (+) Lambda^r with the core free-summand-free.

    A free summand exists exactly when some homomorphism M -> Lambda
    hits a unit; each round splits one off, so the loop ends after at
    most dim/D rounds.  `has_free_summand` decides the first round
    without a Hom space, so a free-summand-free M costs no hom_space.
    """
    A = mod.algebra
    p = A.p
    current = mod
    phi = np.eye(mod.dim, dtype=np.int64)
    rank = 0
    while current.dim > 0 and (rank or has_free_summand(mod)):
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
    target = direct_sum([current] + [free_module(A, 1)] * rank, A)
    iso = ModuleMap(mod, target, phi)
    if iso.rank() != mod.dim:
        raise AssertionError("free-summand splitting must be invertible")
    return SplitResult(current, rank, iso, target)


# -- isomorphism testing -----------------------------------------------------

@dataclass
class IsoVerdict:
    kind: str                      # "yes", "no" or "unknown"
    witness: ModuleMap | None = None
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
    return hom_space(mod, mod).dim


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
        zero = np.zeros((0, 0), dtype=np.int64)
        return IsoVerdict("yes", witness=ModuleMap(m, n, zero), method="trivial")
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
            return IsoVerdict("yes", witness=ModuleMap(m, n, cands[full[0]]), method=method)
    if size is not None:
        return IsoVerdict("no", certificate=f"no invertible among all {size} homs",
                          method="exhaustive")
    return IsoVerdict("unknown",
                      certificate=f"hom space of dim {h} too large to enumerate; "
                                  f"{samples} random samples found no isomorphism",
                      method="random")
