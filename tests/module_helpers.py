"""Checks and constructions over redhom.modules that only the tests use."""

import numpy as np

from redhom import gf
from redhom.modules import HomModule, HomSpace, ModuleMap, ModuleRep, free_module, hom_module


def is_module_map(f: ModuleMap) -> bool:
    """f commutes with the action of every ring generator."""
    p = f.source.algebra.p
    for j in range(f.source.algebra.num_gens):
        lhs = gf.mat_mul(f.mat, f.source.action_arr(j), p)
        rhs = gf.mat_mul(f.target.action_arr(j), f.mat, p)
        if not (lhs == rhs).all():
            return False
    return True


def map_from_coords(space: HomSpace, coeffs) -> ModuleMap:
    """The map of `space` with the given coordinates in its basis."""
    p = space.source.algebra.p
    vec = gf.mat_mul(space.kernel, np.asarray(coeffs, dtype=np.int64)[:, None] % p, p)
    return ModuleMap(space.source, space.target,
                     vec.reshape(space.target.dim, space.source.dim))


def dual_module(mod: ModuleRep) -> HomModule:
    """Hom(M, Lambda) as a module."""
    return hom_module(mod, free_module(mod.algebra, 1))
