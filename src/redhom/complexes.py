"""Complexes, minimal free resolutions, Ext tables and Bass numbers.

Minimal resolutions are computed by the standard kernel/minimal-generator
iteration on matrices over the algebra: the next differential's columns
are a minimal generating set of the kernel of the previous one, so the
ranks are exactly the Betti numbers and every differential has entries
in the maximal ideal.

Ext^i(M, N) for any target N is the homology of Hom(P_., N), whose maps
Hom(d_i, N) are the linear forms of the entry-wise transposes d_i^T over
N (LambdaMatrix.linear_rank; the ring is commutative); against the ring
these are the dualized differentials themselves.  The Ext oracle
(ext_dims_via_dual_complex) takes a second path: apply_dual composes
explicit bases of Hom(P_i, Lambda) (hom_module) with the dense d_i and
measures the exactness defects of the resulting module complex, while
ext_dims ranks forms of the entry-wise transposes and never forms a Hom
basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import AlgebraRep, cached
from .modules import (
    HomModule,
    LambdaMatrix,
    ModuleError,
    ModuleRep,
    _map_rank,
    check_minimal_kernel,
    form_args,
    free_module,
    hom_module,
    minimal_generators,
    minimal_presentation,
    projective_cover_and_syzygy,
    simple_module,
    submodule_from_rows,
)


@cached
def ring_module(algebra: AlgebraRep) -> ModuleRep:
    """The ring as a module over itself (cached; Ext(-, ring) keys off it)."""
    return free_module(algebra, 1)


class _Complex:
    """Positions lo..hi; the differential at position i maps term i to i-1.

    Every position lo+1..hi carries a differential; a gap is refused at
    construction.  Both kinds answer term(i) (the module at i), linear(i)
    (d_i as a GF(p) matrix, None outside lo+1..hi) and rank(i) (0
    there), so composition and exactness are checked here once for both.
    """

    def _check_positions(self, terms, differentials):
        if not terms:
            raise ModuleError("empty complex")
        self.lo, self.hi = min(terms), max(terms)
        for i in range(self.lo, self.hi + 1):
            if i not in terms:
                raise ModuleError(f"missing term at position {i}")
        for i in differentials:
            if not (self.lo + 1 <= i <= self.hi):
                raise ModuleError(f"differential at position {i} outside range")
        missing = [i for i in range(self.lo + 1, self.hi + 1) if i not in differentials]
        if missing:
            raise ModuleError(f"missing differentials at positions {missing}")

    def check_composition(self):
        for i in range(self.lo + 2, self.hi + 1):
            if gf.mat_mul(self.linear(i - 1), self.linear(i), self.algebra.p).any():
                raise ModuleError(f"d.d != 0 at position {i}")

    def exactness_defects(self, positions) -> dict[int, int]:
        """dim ker(d_i) - rank(d_{i+1}) per requested position."""
        out = {}
        for i in positions:
            dim = self.term(i).dim if self.lo <= i <= self.hi else 0
            defect = dim - self.rank(i) - self.rank(i + 1)
            if defect < 0:
                raise AssertionError("image not contained in kernel")
            out[i] = defect
        return out


class FreeComplex(_Complex):
    """A complex of free modules with differentials over the algebra."""

    def __init__(self, algebra: AlgebraRep, ranks: dict[int, int],
                 diffs: dict[int, LambdaMatrix], *, check: bool = True):
        self.algebra = algebra
        self.ranks = dict(ranks)
        self.diffs = dict(diffs)
        self._check_positions(self.ranks, self.diffs)
        for i, d in self.diffs.items():
            if d.rows != self.ranks[i - 1] or d.cols != self.ranks[i]:
                raise ModuleError(f"differential at {i} has shape "
                                  f"{d.rows}x{d.cols}, expected "
                                  f"{self.ranks[i-1]}x{self.ranks[i]}")
        self._cache: dict = {}
        if check:
            self.check_composition()

    @cached
    def term(self, i: int) -> ModuleRep:
        return free_module(self.algebra, self.ranks[i])

    def linear(self, i: int) -> np.ndarray | None:
        return self.diffs[i].to_linear() if i in self.diffs else None

    def rank(self, i: int) -> int:
        return self.diffs[i].linear_rank() if i in self.diffs else 0

    def dual(self) -> "FreeComplex":
        """Entry-wise transposed complex on reversed positions."""
        ranks = {-i: r for i, r in self.ranks.items()}
        diffs = {-(i - 1): d.transpose() for i, d in sorted(self.diffs.items())}
        return FreeComplex(self.algebra, ranks, diffs, check=False)

    def to_module_complex(self) -> "ModuleComplex":
        mods = {i: self.term(i) for i in self.ranks}
        maps = {i: d.to_linear() for i, d in self.diffs.items()}
        return ModuleComplex(mods, maps, check=False)

    def to_jsonable(self) -> dict:
        return {"kind": "free",
                "positions": [self.lo, self.hi],
                "ranks": {str(i): self.ranks[i] for i in range(self.lo, self.hi + 1)},
                "differentials": {str(i): d.to_jsonable() for i, d in self.diffs.items()}}


class ModuleComplex(_Complex):
    """A complex of modules; each map's rank is computed once.

    maps[i] is the matrix of the map from modules[i] to modules[i-1],
    reduced mod p.  Construction checks, once for the whole complex,
    that every term is over one algebra and every map has the shape of
    its two terms; Lambda-linearity is the caller's (see modules).
    """

    def __init__(self, modules: dict[int, ModuleRep], maps: dict[int, np.ndarray],
                 *, check: bool = True):
        self.modules = dict(modules)
        self.maps = dict(maps)
        self._check_positions(self.modules, self.maps)
        self.algebra = self.modules[self.lo].algebra
        if any(mod.algebra is not self.algebra for mod in self.modules.values()):
            raise ModuleError("complex of modules over different algebras")
        for i, f in self.maps.items():
            fits = (self.modules[i - 1].dim, self.modules[i].dim)
            if f.shape != fits:
                raise ModuleError(f"map at position {i} of shape {f.shape} does not fit "
                                  f"its terms, which need {fits}")
        self._cache: dict = {}
        if check:
            self.check_composition()

    def term(self, i: int) -> ModuleRep:
        return self.modules[i]

    def linear(self, i: int) -> np.ndarray | None:
        return self.maps.get(i)

    @cached
    def rank(self, i: int) -> int:
        return _map_rank(self.maps[i], self.algebra.p) if i in self.maps else 0

    def dual(self) -> "ModuleComplex":
        """Term-wise Hom(-, Lambda) on reversed positions (see apply_dual)."""
        return apply_dual(self)

    def to_jsonable(self) -> dict:
        return {"kind": "modules",
                "positions": [self.lo, self.hi],
                "modules": {str(i): m.to_jsonable() for i, m in self.modules.items()},
                "maps": {str(i): f.tolist() for i, f in self.maps.items()}}


def check_exactness(complex_: ModuleComplex | FreeComplex, positions=None) -> dict[int, int]:
    """Defect dimensions (0 means exact) at the requested positions.

    Defaults to the interior positions, which is what 'exact sequence'
    means for a bounded display.
    """
    if positions is None:
        positions = range(complex_.hi - 1, complex_.lo, -1)
    return complex_.exactness_defects(list(positions))


class MinimalResolution:
    """Lazily extended minimal free resolution, seeded by a presentation.

    Betti numbers are the ranks; the canonical row basis of ker d_i,
    i.e. the (i+1)-st syzygy inside Lambda^{betti[i]}, is cached on d_i
    (LambdaMatrix.kernel_rows).  Every resolution starts from a minimal
    presentation d_1: resolution_of(M) uses M's own cached one, so its
    d_1 and first syzygy are the cover's.  The transpose of M is
    resolved once, as tr(core) seeded by the core's transposed
    presentation in the original free coordinates
    (torsionfree.transpose_resolution).
    """

    def __init__(self, algebra: AlgebraRep):
        self.algebra = algebra
        self.first_syzygy: ModuleRep | None = None     # the cover's, not the module
        self.betti: list[int] = []
        self.diffs: list[LambdaMatrix] = []      # diffs[i] = d_{i+1}
        self._cache: dict = {}

    @classmethod
    def from_presentation(cls, algebra: AlgebraRep, d1: LambdaMatrix) -> "MinimalResolution":
        """Seed with a map already known to be a minimal presentation."""
        if not d1.in_radical():
            raise ModuleError("seed presentation must have entries in the radical")
        res = cls(algebra)
        res.betti = [d1.rows, d1.cols]
        res.diffs = [d1]
        return res

    def _at_step(self, i: int, compute):
        """compute(), naming step i and the Betti numbers if d_i is over budget."""
        try:
            return compute()
        except gf.LinearFormBudgetError as err:
            raise gf.LinearFormBudgetError(
                f"resolution step {i}: {err}; Betti numbers so far {self.betti}") from None

    def _kernel(self, i: int) -> tuple[gf.Cells, tuple[int, ...]]:
        """Row basis of ker d_i (i >= 1) as its cells; the (i+1)-st syzygy."""
        self.extend(i)
        rows, piv = self._at_step(i, self.diffs[i - 1].kernel_rows)
        check_minimal_kernel(rows, self.algebra.dim)
        return rows, piv

    def extend(self, steps: int) -> "MinimalResolution":
        """Ensure betti[0..steps] and d_1..d_steps exist (kernels stay lazy)."""
        while len(self.betti) <= steps:
            i = len(self.diffs)          # building d_{i+1}
            rows, piv = self._kernel(i)
            lam = minimal_generators(self.algebra, self.betti[i], rows, piv)
            self.diffs.append(lam)
            self.betti.append(lam.cols)
        return self

    def diff(self, i: int) -> LambdaMatrix:
        """d_i : P_i -> P_{i-1}, 1-indexed."""
        if i < 1:
            raise ModuleError(f"differential index must be at least 1, got {i}")
        self.extend(i)
        return self.diffs[i - 1]

    def betti_numbers(self, upto: int) -> list[int]:
        """beta_0 .. beta_upto."""
        if upto < 0:
            raise ModuleError(f"Betti index must be nonnegative, got {upto}")
        self.extend(upto)
        return self.betti[:upto + 1]

    @cached
    def syzygy_module(self, n: int) -> ModuleRep:
        """The n-th syzygy as an abstract module, n >= 1; the first is the cover's kernel."""
        if n < 0:
            raise ModuleError(f"syzygy index must be nonnegative, got {n}")
        if n <= 1:
            if n == 0 or self.first_syzygy is None:
                raise ModuleError(f"the resolution holds no {('0-th', 'first')[n]} syzygy module")
            return self.first_syzygy
        rows, piv = self._kernel(n - 1)
        ambient = free_module(self.algebra, self.betti[n - 1])
        return submodule_from_rows(ambient, np.asarray(rows), piv)[0]

    def free_complex(self, upto: int) -> FreeComplex:
        self.extend(upto)
        ranks = {i: self.betti[i] for i in range(upto + 1)}
        diffs = {i: self.diffs[i - 1] for i in range(1, upto + 1)}
        return FreeComplex(self.algebra, ranks, diffs, check=False)

    def dual_rank(self, i: int, target: ModuleRep | None = None) -> int:
        """Rank of Hom(d_i, N), the form of d_i^T over N = target or the ring (0 for i < 1).

        Lambda itself (free of rank 1) acts by left_mult: it shares the ring's cached rank."""
        if i < 1:
            return 0
        over = () if target is None else form_args(target)
        return self._at_step(i, lambda: self.diff(i).transpose().linear_rank(*over))

    def ext_dim(self, i: int, target: ModuleRep | None = None) -> int:
        """dim Ext^i(X, N) for the resolved X and the target N (the ring if None).

        The only place the count beta_i * dim N - rank Hom(d_{i+1}, N) -
        rank Hom(d_i, N) is written; the transposes are cached on the
        differentials, so every caller shares their ranks.
        """
        self.extend(i + 1)
        dim_n = self.algebra.dim if target is None else target.dim
        dim = self.betti[i] * dim_n - self.dual_rank(i + 1, target) - self.dual_rank(i, target)
        if dim < 0:
            raise AssertionError(f"negative Ext^{i} dimension {dim}")
        return dim


@cached
def resolution_of(mod: ModuleRep) -> MinimalResolution:
    """The module's cached resolution, seeded by its minimal presentation.

    d_1 is the presentation's relation matrix and the first syzygy is
    the kernel of the projective cover, so neither is computed twice.
    """
    res = MinimalResolution.from_presentation(mod.algebra, minimal_presentation(mod))
    res.first_syzygy = projective_cover_and_syzygy(mod).syzygy
    return res


def minimal_free_resolution(mod: ModuleRep, steps: int):
    """Free complex over positions [0, steps] plus the Betti numbers."""
    if steps < 0:
        raise ModuleError("resolution length must be nonnegative")
    res = resolution_of(mod)
    return res.free_complex(steps), res.betti_numbers(steps)


@dataclass
class ExtTable:
    bound: int
    dims: tuple[int, ...]

    def to_jsonable(self) -> dict:
        return {"bound": self.bound, "dims": list(self.dims)}


def ext_dims(source: ModuleRep, target: ModuleRep, bound: int) -> ExtTable:
    """Ext^i(M, N) dimensions for 0 <= i <= bound via a minimal resolution of M."""
    if bound < 0:
        raise ModuleError("ext bound must be nonnegative")
    if target.algebra is not source.algebra:
        raise ModuleError("ext between modules over different algebras")
    res = resolution_of(source)
    return ExtTable(bound, tuple(res.ext_dim(i, target) for i in range(bound + 1)))


def bass_numbers(target: ModuleRep, bound: int) -> list[int]:
    """Bass numbers mu^i = dim Ext^i(k, N) for 0 <= i <= bound."""
    k = simple_module(target.algebra)
    return list(ext_dims(k, target, bound).dims)


@cached
def _dual_hom(mod: ModuleRep) -> HomModule:
    """Hom(M, Lambda) as a module, cached on M."""
    return hom_module(mod, ring_module(mod.algebra))


def apply_dual(complex_: ModuleComplex) -> ModuleComplex:
    """Term-wise Hom(-, Lambda) with induced maps, positions reversed.

    This is the generic path: each term's dual is an explicit basis of
    Hom(C_i, Lambda) (hom_module), and each induced map is read off the
    basis maps composed with the dense map f, in the coordinates of the
    next basis.  Its ranks are those of these composed matrices, not of
    the entry-wise transposes that FreeComplex.dual and ext_dims use.
    """
    duals = {i: _dual_hom(mod) for i, mod in complex_.modules.items()}
    modules = {-i: h.module for i, h in duals.items()}
    maps = {}
    for i, f in complex_.maps.items():
        src_h = duals[i - 1]      # Hom(C_{i-1}, Lambda)
        tgt_h = duals[i]          # Hom(C_i, Lambda)
        maps[-(i - 1)] = src_h.space.precompose(f, tgt_h.space).T
    return ModuleComplex(modules, maps, check=True)


def ext_dims_via_dual_complex(source: ModuleRep, bound: int) -> list[int]:
    """Ext^i(M, Lambda) as homology of the dualized resolution complex.

    Independent oracle path for the Ext computation: build the actual
    module complex of the resolution, dualize it with the generic hom
    machinery, and measure exactness defects.
    """
    res = resolution_of(source)
    dual = res.free_complex(bound + 1).to_module_complex().dual()
    defects = dual.exactness_defects([-i for i in range(bound + 1)])
    return [defects[-i] for i in range(bound + 1)]
