"""Complexes, minimal free resolutions, Ext tables and Bass numbers.

Minimal resolutions are computed by the standard kernel/minimal-generator
iteration on matrices over the algebra: the next differential's columns
are a minimal generating set of the kernel of the previous one, so the
ranks are exactly the Betti numbers and every differential has entries
in the maximal ideal.

Ext against the ring is read off the dualized resolution, realized by
entry-wise transposition of the differentials (the ring is commutative).
Ext against an arbitrary module uses the action matrices of the target
to realize the induced maps.  A second, structurally independent path
through hom_module/apply_dual exists for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import AlgebraRep
from .modules import (
    LambdaMatrix,
    ModuleError,
    ModuleMap,
    ModuleRep,
    columns_to_lambda,
    free_module,
    hom_module,
    minimal_generator_columns,
    minimal_presentation,
    projective_cover_and_syzygy,
    simple_module,
    submodule_from_rows,
)


def ring_module(algebra: AlgebraRep) -> ModuleRep:
    """The ring as a module over itself (cached; Ext(-, ring) keys off it)."""
    if "ring_module" not in algebra._cache:
        algebra._cache["ring_module"] = free_module(algebra, 1)
    return algebra._cache["ring_module"]


class _Complex:
    """Positions lo..hi; the differential at position i maps term i to i-1.

    Both kinds answer term(i) (the module at i), linear(i) (d_i as a
    GF(p) matrix, None where the complex has no differential) and
    rank(i) (0 there), so composition and exactness are checked here
    once for both.
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

    def check_composition(self):
        for i in range(self.lo + 2, self.hi + 1):
            outer, inner = self.linear(i - 1), self.linear(i)
            if outer is not None and inner is not None and \
                    gf.mat_mul(outer, inner, self.algebra.p).any():
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
        self._terms: dict[int, ModuleRep] = {}
        if check:
            self.check_composition()

    def term(self, i: int) -> ModuleRep:
        if i not in self._terms:
            self._terms[i] = free_module(self.algebra, self.ranks[i])
        return self._terms[i]

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
        maps = {i: ModuleMap(mods[i], mods[i - 1], d.to_linear())
                for i, d in self.diffs.items()}
        return ModuleComplex(mods, maps, check=False)

    def to_jsonable(self) -> dict:
        return {"kind": "free",
                "positions": [self.lo, self.hi],
                "ranks": {str(i): self.ranks[i] for i in range(self.lo, self.hi + 1)},
                "differentials": {str(i): d.to_jsonable() for i, d in self.diffs.items()}}


class ModuleComplex(_Complex):
    """A complex of modules; each map's rank is computed once."""

    def __init__(self, modules: dict[int, ModuleRep], maps: dict[int, ModuleMap],
                 *, check: bool = True):
        self.modules = dict(modules)
        self.maps = dict(maps)
        self._check_positions(self.modules, self.maps)
        for i, f in self.maps.items():
            if f.source.dim != self.modules[i].dim or \
               f.target.dim != self.modules[i - 1].dim:
                raise ModuleError(f"map at position {i} does not fit its terms")
        self._ranks: dict[int, int] = {}
        if check:
            self.check_composition()

    @property
    def algebra(self):
        return self.modules[self.lo].algebra

    def term(self, i: int) -> ModuleRep:
        return self.modules[i]

    def linear(self, i: int) -> np.ndarray | None:
        return self.maps[i].mat if i in self.maps else None

    def rank(self, i: int) -> int:
        if i not in self.maps:
            return 0
        if i not in self._ranks:
            self._ranks[i] = self.maps[i].rank()
        return self._ranks[i]

    def dual(self) -> "ModuleComplex":
        """Term-wise Hom(-, Lambda) on reversed positions (see apply_dual)."""
        return apply_dual(self)

    def to_jsonable(self) -> dict:
        return {"kind": "modules",
                "positions": [self.lo, self.hi],
                "modules": {str(i): m.to_jsonable() for i, m in self.modules.items()},
                "maps": {str(i): f.mat.tolist() for i, f in self.maps.items()}}


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

    Betti numbers are the ranks; kernels[i] carries the canonical row
    basis of ker(d_i restricted), i.e. the (i+1)-st syzygy inside
    Lambda^{betti[i]}.  Every resolution starts from a minimal
    presentation d_1: resolution_of(M) uses M's own cached one, so its
    d_1 and first syzygy are the cover's.  The transpose of M is
    resolved once, as tr(core) seeded by the core's transposed
    presentation in the original free coordinates
    (torsionfree.transpose_resolution).
    """

    def __init__(self, algebra: AlgebraRep):
        self.algebra = algebra
        self.module: ModuleRep | None = None
        self.betti: list[int] = []
        self.diffs: list[LambdaMatrix] = []      # diffs[i] = d_{i+1}
        self.kernels: dict[int, tuple[np.ndarray, tuple[int, ...]]] = {}
        self._syzygies: dict[int, ModuleRep] = {}

    @classmethod
    def from_presentation(cls, algebra: AlgebraRep, d1: LambdaMatrix) -> "MinimalResolution":
        """Seed with a map already known to be a minimal presentation."""
        if not d1.in_radical():
            raise ModuleError("seed presentation must have entries in the radical")
        res = cls(algebra)
        res.betti = [d1.rows, d1.cols]
        res.diffs = [d1]
        return res

    def _check_minimal(self, rows: np.ndarray, rank: int):
        if rows.size:
            units = [t * self.algebra.dim for t in range(rank)]
            if rows[:, units].any():
                raise AssertionError("kernel leaves the radical: resolution not minimal")

    def _kernel(self, i: int) -> tuple[np.ndarray, tuple[int, ...]]:
        """Row basis of ker d_i (i >= 1); the (i+1)-st syzygy."""
        if i not in self.kernels:
            self.extend(i)
            rows_piv = self.diffs[i - 1].kernel_rows()
            self._check_minimal(rows_piv[0], self.betti[i])
            self.kernels[i] = rows_piv
        return self.kernels[i]

    def extend(self, steps: int) -> "MinimalResolution":
        """Ensure betti[0..steps] and d_1..d_steps exist (kernels stay lazy)."""
        while len(self.betti) <= steps:
            i = len(self.diffs)          # building d_{i+1}
            rows, piv = self._kernel(i)
            ambient = free_module(self.algebra, self.betti[i])
            gens = minimal_generator_columns(ambient, rows, piv)
            lam = columns_to_lambda(self.algebra, gens, self.betti[i])
            if not lam.in_radical():
                raise AssertionError("differential entries must lie in the radical")
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

    def syzygy_module(self, n: int) -> ModuleRep:
        """The n-th syzygy as an abstract module (n >= 1; n = 0 is the module)."""
        if n < 0:
            raise ModuleError(f"syzygy index must be nonnegative, got {n}")
        if n == 0:
            if self.module is None:
                raise ModuleError("seeded resolution has no 0-th syzygy module")
            return self.module
        if n not in self._syzygies:
            if n == 1:
                raise ModuleError("seeded resolution has no first syzygy module")
            rows, piv = self._kernel(n - 1)
            ambient = free_module(self.algebra, self.betti[n - 1])
            self._syzygies[n] = submodule_from_rows(ambient, rows, piv)[0]
        return self._syzygies[n]

    def free_complex(self, upto: int) -> FreeComplex:
        self.extend(upto)
        ranks = {i: self.betti[i] for i in range(upto + 1)}
        diffs = {i: self.diffs[i - 1] for i in range(1, upto + 1)}
        return FreeComplex(self.algebra, ranks, diffs, check=False)

    def dual_rank(self, i: int) -> int:
        """Rank of the dualized differential d_i^T (0 for i out of range)."""
        return self.diff(i).transpose().linear_rank() if i >= 1 else 0

    def ext_ring_dim(self, i: int) -> int:
        """dim Ext^i(X, Lambda) for the resolved X, read off the dual complex.

        The only place the count beta_i * dim Lambda - rank d_{i+1}^T -
        rank d_i^T is written; the transposes are cached on the
        differentials, so every caller shares their ranks.
        """
        self.extend(i + 1)
        dim = self.betti[i] * self.algebra.dim - self.dual_rank(i + 1) - self.dual_rank(i)
        if dim < 0:
            raise AssertionError(f"negative Ext^{i} dimension {dim}")
        return dim


def resolution_of(mod: ModuleRep) -> MinimalResolution:
    """The module's cached resolution, seeded by its minimal presentation.

    d_1 is the presentation's relation matrix and the first syzygy is
    the kernel of the projective cover, so neither is computed twice.
    """
    if "resolution" not in mod._cache:
        res = MinimalResolution.from_presentation(mod.algebra,
                                                  minimal_presentation(mod).relations)
        res.module = mod
        res._syzygies[1] = projective_cover_and_syzygy(mod).syzygy
        mod._cache["resolution"] = res
    return mod._cache["resolution"]


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


def _delta_rank_general(res: MinimalResolution, i: int, target: ModuleRep) -> int:
    """Rank of Hom(P_{i-1}, N) -> Hom(P_i, N) induced by d_i (i >= 1)."""
    d = res.diff(i)
    A = res.algebra
    dn = target.dim
    if d.rows == 0 or d.cols == 0 or dn == 0:
        return 0
    rho = target.rho()
    flat = gf.mat_mul(d.entries.reshape(-1, A.dim), rho.reshape(A.dim, dn * dn), A.p)
    blocks = flat.reshape(d.rows, d.cols, dn, dn)
    delta = blocks.transpose(1, 2, 0, 3).reshape(d.cols * dn, d.rows * dn)
    return gf.rank(delta, A.p)


def ext_dims(source: ModuleRep, target: ModuleRep, bound: int) -> ExtTable:
    """Ext^i(M, N) dimensions for 0 <= i <= bound via a minimal resolution of M."""
    if bound < 0:
        raise ModuleError("ext bound must be nonnegative")
    res = resolution_of(source)
    res.extend(bound + 1)
    if target is ring_module(source.algebra):
        dims = [res.ext_ring_dim(i) for i in range(bound + 1)]
    else:
        dims = []
        prev = 0
        for i in range(bound + 1):
            nxt = _delta_rank_general(res, i + 1, target)
            dims.append(res.betti[i] * target.dim - nxt - prev)
            prev = nxt
    if any(d < 0 for d in dims):
        raise AssertionError(f"negative Ext dimension in {dims}")
    return ExtTable(bound, tuple(dims))


def bass_numbers(target: ModuleRep, bound: int) -> list[int]:
    """Bass numbers mu^i = dim Ext^i(k, N) for 0 <= i <= bound."""
    k = simple_module(target.algebra)
    return list(ext_dims(k, target, bound).dims)


def apply_dual(complex_: ModuleComplex) -> ModuleComplex:
    """Term-wise Hom(-, Lambda) with induced maps, positions reversed.

    This is the generic path: every dual is computed as a solution
    space of the commuting system, independent of the entry-transpose
    shortcut used for free complexes.
    """
    A = complex_.algebra
    duals = {}
    for i, mod in complex_.modules.items():
        if "dual_hom" not in mod._cache:
            mod._cache["dual_hom"] = hom_module(mod, ring_module(A))
        duals[i] = mod._cache["dual_hom"]
    modules = {-i: h.module for i, h in duals.items()}
    maps = {}
    for i, f in complex_.maps.items():
        src_h = duals[i - 1]      # Hom(C_{i-1}, Lambda)
        tgt_h = duals[i]          # Hom(C_i, Lambda)
        mat = src_h.space.precompose(f.mat, tgt_h.space).T
        maps[-(i - 1)] = ModuleMap(src_h.module, tgt_h.module, mat)
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
