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
    cover_matrix,
    free_module,
    hom_module,
    minimal_generator_columns,
    simple_module,
    submodule_from_rows,
)


def ring_module(algebra: AlgebraRep) -> ModuleRep:
    """The ring as a module over itself (cached; Ext(-, ring) keys off it)."""
    if "ring_module" not in algebra._cache:
        algebra._cache["ring_module"] = free_module(algebra, 1)
    return algebra._cache["ring_module"]


class FreeComplex:
    """A complex of free modules with differentials over the algebra.

    Positions run over the integer range [lo, hi]; the differential at
    position i maps position i to position i-1.
    """

    def __init__(self, algebra: AlgebraRep, ranks: dict[int, int],
                 diffs: dict[int, LambdaMatrix], *, check: bool = True):
        self.algebra = algebra
        self.ranks = dict(ranks)
        self.diffs = dict(diffs)
        if not self.ranks:
            raise ModuleError("empty complex")
        self.lo = min(self.ranks)
        self.hi = max(self.ranks)
        for i in range(self.lo, self.hi + 1):
            if i not in self.ranks:
                raise ModuleError(f"missing rank at position {i}")
        for i, d in self.diffs.items():
            if not (self.lo + 1 <= i <= self.hi):
                raise ModuleError(f"differential at position {i} outside range")
            if d.rows != self.ranks[i - 1] or d.cols != self.ranks[i]:
                raise ModuleError(f"differential at {i} has shape "
                                  f"{d.rows}x{d.cols}, expected "
                                  f"{self.ranks[i-1]}x{self.ranks[i]}")
        if check:
            self.check_composition()

    def check_composition(self):
        for i in range(self.lo + 2, self.hi + 1):
            if i in self.diffs and i - 1 in self.diffs:
                prod = gf.mat_mul(self.diffs[i - 1].to_linear(),
                                  self.diffs[i].to_linear(), self.algebra.p)
                if prod.any():
                    raise ModuleError(f"d.d != 0 at position {i}")

    def diff(self, i: int) -> LambdaMatrix:
        if i in self.diffs:
            return self.diffs[i]
        return LambdaMatrix.zeros(self.algebra,
                                  self.ranks.get(i - 1, 0), self.ranks.get(i, 0))

    def dual(self) -> "FreeComplex":
        """Entry-wise transposed complex on reversed positions."""
        ranks = {-i: r for i, r in self.ranks.items()}
        diffs = {}
        for i in range(self.lo + 1, self.hi + 1):
            if i in self.diffs:
                diffs[-(i - 1)] = self.diffs[i].transpose()
        return FreeComplex(self.algebra, ranks, diffs, check=False)

    def _rank_out(self, i: int) -> int:
        if i not in self.diffs:
            return 0
        return self.diffs[i].linear_rank()

    def exactness_defects(self, positions) -> dict[int, int]:
        """dim ker(d_i) - rank(d_{i+1}) per requested position."""
        D = self.algebra.dim
        out = {}
        for i in positions:
            space = self.ranks.get(i, 0) * D
            kerdim = space - self._rank_out(i) if i >= self.lo + 1 and i in self.diffs \
                else space
            defect = kerdim - (self._rank_out(i + 1) if i + 1 <= self.hi else 0)
            if defect < 0:
                raise AssertionError("image not contained in kernel")
            out[i] = defect
        return out

    def to_module_complex(self) -> "ModuleComplex":
        mods = {i: free_module(self.algebra, r) for i, r in self.ranks.items()}
        maps = {i: ModuleMap(mods[i], mods[i - 1], d.to_linear())
                for i, d in self.diffs.items()}
        return ModuleComplex(mods, maps, check=False)

    def to_jsonable(self) -> dict:
        return {"kind": "free",
                "positions": [self.lo, self.hi],
                "ranks": {str(i): self.ranks[i] for i in range(self.lo, self.hi + 1)},
                "differentials": {str(i): d.to_jsonable() for i, d in self.diffs.items()}}


class ModuleComplex:
    """A complex of modules; differential at position i maps i to i-1."""

    def __init__(self, modules: dict[int, ModuleRep], maps: dict[int, ModuleMap],
                 *, check: bool = True):
        self.modules = dict(modules)
        self.maps = dict(maps)
        if not self.modules:
            raise ModuleError("empty complex")
        self.lo = min(self.modules)
        self.hi = max(self.modules)
        for i, f in self.maps.items():
            if f.source.dim != self.modules[i].dim or \
               f.target.dim != self.modules[i - 1].dim:
                raise ModuleError(f"map at position {i} does not fit its terms")
        if check:
            self.check_composition()

    @property
    def algebra(self):
        return self.modules[self.lo].algebra

    def check_composition(self):
        for i in self.maps:
            if i - 1 in self.maps:
                if (self.maps[i - 1] @ self.maps[i]).mat.any():
                    raise ModuleError(f"d.d != 0 at position {i}")

    def exactness_defects(self, positions) -> dict[int, int]:
        out = {}
        for i in positions:
            dim_i = self.modules[i].dim if i in self.modules else 0
            if i in self.maps:
                kerdim = dim_i - self.maps[i].rank()
            else:
                kerdim = dim_i
            in_rank = self.maps[i + 1].rank() if (i + 1) in self.maps else 0
            defect = kerdim - in_rank
            if defect < 0:
                raise AssertionError("image not contained in kernel")
            out[i] = defect
        return out

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
    """Lazily extended minimal free resolution.

    Betti numbers are the ranks; kernels[i] carries the canonical row
    basis of ker(d_i restricted), i.e. the (i+1)-st syzygy inside
    Lambda^{betti[i]}.  A resolution can also be seeded from a given
    minimal presentation, which is how transposes are resolved while
    keeping the original free coordinates.
    """

    def __init__(self, algebra: AlgebraRep):
        self.algebra = algebra
        self.module: ModuleRep | None = None
        self.cover_mat: np.ndarray | None = None
        self.betti: list[int] = []
        self.diffs: list[LambdaMatrix] = []      # diffs[i] = d_{i+1}
        self.kernels: dict[int, tuple[np.ndarray, tuple[int, ...]]] = {}
        self._syzygies: dict[int, ModuleRep] = {}

    @classmethod
    def of_module(cls, mod: ModuleRep) -> "MinimalResolution":
        if "resolution" in mod._cache:
            return mod._cache["resolution"]
        res = cls(mod.algebra)
        res.module = mod
        phi = cover_matrix(mod)
        res.cover_mat = phi
        res.betti = [phi.shape[1] // max(1, mod.algebra.dim)]
        mod._cache["resolution"] = res
        return res

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
        """Row basis of ker(map out of position i); the (i+1)-st syzygy."""
        if i not in self.kernels:
            if i == 0:
                if self.cover_mat is None:
                    raise ModuleError("seeded resolution has no position-0 kernel")
                mat = self.cover_mat
            else:
                self.extend(i)
                mat = self.diffs[i - 1].to_linear()
            k, _ = gf.kernel(mat, self.algebra.p)
            rows_piv = gf.row_basis(k.T, self.algebra.p)
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
        self.extend(i)
        return self.diffs[i - 1]

    def betti_numbers(self, upto: int) -> list[int]:
        self.extend(upto)
        return self.betti[:upto + 1]

    def syzygy_module(self, n: int) -> ModuleRep:
        """The n-th syzygy as an abstract module (n >= 1; n = 0 is the module)."""
        if n == 0:
            if self.module is None:
                raise ModuleError("seeded resolution has no 0-th syzygy module")
            return self.module
        if n not in self._syzygies:
            self.extend(n - 1)
            rows, piv = self._kernel(n - 1)
            ambient = free_module(self.algebra, self.betti[n - 1])
            self._syzygies[n] = submodule_from_rows(ambient, rows, piv)[0]
        return self._syzygies[n]

    def free_complex(self, upto: int, shift: int = 0) -> FreeComplex:
        self.extend(upto)
        ranks = {i + shift: self.betti[i] for i in range(upto + 1)}
        diffs = {i + shift: self.diffs[i - 1] for i in range(1, upto + 1)}
        return FreeComplex(self.algebra, ranks, diffs, check=False)

    def dual_rank(self, i: int) -> int:
        """Rank of the dualized differential d_i^T (0 for i out of range)."""
        if i < 1:
            return 0
        d = self.diff(i)
        key = "dual_lambda"
        if key not in d._cache:
            d._cache[key] = d.transpose()
        return d._cache[key].linear_rank()


def resolution_of(mod: ModuleRep) -> MinimalResolution:
    return MinimalResolution.of_module(mod)


def minimal_free_resolution(mod: ModuleRep, steps: int):
    """Free complex over positions [0, steps] plus the Betti numbers."""
    if steps < 0:
        raise ModuleError("resolution length must be nonnegative")
    res = resolution_of(mod)
    return res.free_complex(steps), res.betti_numbers(steps)


@dataclass
class ExtTable:
    source_dim: int
    target_dim: int
    bound: int
    dims: tuple[int, ...]

    def to_jsonable(self) -> dict:
        return {"bound": self.bound, "dims": list(self.dims)}


def _delta_rank_general(res: MinimalResolution, i: int, target: ModuleRep) -> int:
    """Rank of Hom(P_{i-1}, N) -> Hom(P_i, N) induced by d_i."""
    if i < 1:
        return 0
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
    A = source.algebra
    is_ring = target is ring_module(A)
    dn = target.dim

    def delta_rank(i: int) -> int:
        if is_ring:
            return res.dual_rank(i)
        return _delta_rank_general(res, i, target)

    dims = []
    prev = delta_rank(0)
    for i in range(bound + 1):
        nxt = delta_rank(i + 1)
        dims.append(res.betti[i] * dn - nxt - prev)
        prev = nxt
    if any(d < 0 for d in dims):
        raise AssertionError(f"negative Ext dimension in {dims}")
    return ExtTable(source.dim, target.dim, bound, tuple(dims))


def ext_ring_dim(source: ModuleRep, i: int) -> int:
    """Single Ext^i(M, Lambda) dimension, cheap to call incrementally."""
    res = resolution_of(source)
    res.extend(i + 1)
    dn = source.algebra.dim
    return res.betti[i] * dn - res.dual_rank(i + 1) - res.dual_rank(i)


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
    comp = res.free_complex(bound + 1).to_module_complex()
    dual = apply_dual(comp)
    dims = []
    for i in range(bound + 1):
        dim_i = dual.modules[-i].dim
        out_rank = dual.maps[-i].rank() if -i in dual.maps else 0
        in_rank = dual.maps[-i + 1].rank() if (-i + 1) in dual.maps else 0
        dims.append(dim_i - out_rank - in_rank)
    return dims
