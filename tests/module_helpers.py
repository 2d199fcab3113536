"""Checks and constructions over redhom.modules that only the tests use."""

import numpy as np

from redhom import catalog, gf
from redhom.complexes import MinimalResolution, resolution_of
from redhom.modules import (
    HomModule,
    HomSpace,
    LambdaMatrix,
    ModuleError,
    ModuleRep,
    SplitResult,
    direct_sum,
    free_module,
    hom_module,
    minimal_presentation,
    projective_cover_and_syzygy,
    quotient_module,
    split_free_summands,
)
from redhom.torsionfree import transpose_resolution


# (ring, max_dim, count) of the tables benchmark's window samples, at both
# fields: the samples of tests/ledger.json
SAMPLE_RINGS = [(f"{rid}q{q}", max_dim, count) for q in (2, 5)
                for rid, max_dim, count in (("R1", 5, 5), ("R2", 12, 6), ("R3", 8, 5),
                                            ("R4", 4, 5))]
SAMPLE_SEED = 20240
WINDOW_BOUND = 2


def ledger_samples(ring_id: str, max_dim: int, count: int):
    alg = catalog.load_ring(ring_id)
    return catalog.sample_modules(alg, count=count, max_dim=max_dim, seed=SAMPLE_SEED)


def is_module_map(source: ModuleRep, target: ModuleRep, f: np.ndarray) -> bool:
    """The matrix f: source -> target commutes with every generator's action."""
    p = source.algebra.p
    for j in range(source.algebra.num_gens):
        lhs = gf.mat_mul(f, source.action_arr(j), p)
        rhs = gf.mat_mul(target.action_arr(j), f, p)
        if not (lhs == rhs).all():
            return False
    return True


def lambda_from_linear(algebra, mat: np.ndarray, target_rank: int,
                       source_rank: int) -> LambdaMatrix:
    """Recover the algebra-entry matrix of a module map between frees.

    Entry (s, t) is block s of the image of the t-th generator, column
    t * dim Lambda; the whole linear map must be the form of the result.
    The reference for the first differential of a window.
    """
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


def map_from_coords(space: HomSpace, coeffs) -> np.ndarray:
    """The map of `space` with the given coordinates in its basis."""
    p = space.p
    vec = gf.mat_mul(space.kernel, np.asarray(coeffs, dtype=np.int64)[:, None] % p, p)
    return vec.reshape(space.basis.shape[1:])


def split_target(split: SplitResult) -> ModuleRep:
    """core (+) Lambda^free_rank, the target of the split's iso."""
    A = split.core.algebra
    return direct_sum([split.core] + [free_module(A, 1)] * split.free_rank, A)


def commuting_system(source: ModuleRep, target: ModuleRep) -> np.ndarray:
    """The blocks I_n (x) a_j^T - b_j (x) I_m, stacked over the generators j.

    Its kernel is Hom(M, N): unknown t*m + i is entry (t, i) of an n x m
    matrix f, and the rows say f . a_j = b_j . f.  Only the nonzero
    diagonals of the two Kronecker products are written; the reference
    for modules.hom_space, gf.kernel(commuting_system(M, N), p).
    """
    A = source.algebra
    dm, dn = source.dim, target.dim
    rows, cols = np.arange(dn), np.arange(dm)
    blk = np.zeros((A.num_gens, dn, dm, dn, dm), dtype=np.int64)
    for j in range(A.num_gens):
        blk[j][rows, :, rows, :] = source.action_arr(j).T
        blk[j][:, cols, :, cols] -= target.action_arr(j)
    return blk.reshape(A.num_gens * dn * dm, dn * dm) % A.p


def dual_module(mod: ModuleRep) -> HomModule:
    """Hom(M, Lambda) as a module."""
    return hom_module(mod, free_module(mod.algebra, 1))


def ring_by_actions(algebra) -> ModuleRep:
    """Lambda as a module given by its generator actions, not as a free module."""
    return ModuleRep(algebra, [algebra.gen_L(j) for j in range(algebra.num_gens)],
                     dim=algebra.dim)


def dense_dual_rank(res: MinimalResolution, i: int, target: ModuleRep) -> int:
    """Rank of Hom(P_{i-1}, N) -> Hom(P_i, N) induced by d_i, built densely.

    Block (t, s) of the induced map is rho_N(entry (s, t)), zero for a zero
    entry; the reference for MinimalResolution.dual_rank(i, N).
    """
    if i < 1:
        return 0
    d = res.diff(i)
    A = res.algebra
    dn = target.dim
    if d.rows == 0 or d.cols == 0 or dn == 0:
        return 0
    blocks = gf.mat_mul(d.nonzero.vals, target.rho().reshape(A.dim, dn * dn), A.p)
    delta = np.zeros((d.cols, dn, d.rows, dn), dtype=np.int64)
    delta[d.nonzero.cols, :, d.nonzero.rows, :] = blocks.reshape(-1, dn, dn)
    return gf.rank(delta.reshape(d.cols * dn, d.rows * dn), A.p)


def dense_ext_dims(source: ModuleRep, target: ModuleRep, bound: int) -> tuple[int, ...]:
    """Ext^i(M, N) for 0 <= i <= bound from the dense reference ranks."""
    res = resolution_of(source)
    ranks = [dense_dual_rank(res, i, target) for i in range(bound + 2)]
    return tuple(res.betti[i] * target.dim - ranks[i + 1] - ranks[i] for i in range(bound + 1))


def cokernel_comparison_reference(mod: ModuleRep):
    """coker(d_1) and the iso M -> coker(d_1), by elimination and a solve.

    coker(d_1) is the quotient of Lambda^g by the row basis of the dense
    form of d_1's image, and the iso is the solution of (pi . e) x = 1
    for the quotient's linear section e; the reference for
    torsionfree._cokernel_comparison.  Returns (coker, e, iso).
    """
    A = mod.algebra
    d1 = minimal_presentation(mod)
    rows, piv = gf.row_basis(d1.to_linear().T, A.p)
    quot, _, embed = quotient_module(free_module(A, d1.rows), rows, piv)
    q_to_m = gf.mat_mul(projective_cover_and_syzygy(mod).cover, embed, A.p)
    return quot, embed, gf.solve(q_to_m, np.eye(mod.dim, dtype=np.int64), A.p)


def bounded_total_reflexivity(mod: ModuleRep, bound: int) -> bool:
    """Ext^i(M, R) = Ext^i(tr M, R) = 0 for 1 <= i <= bound, by computing Ext.

    The bounded loop on every ring; the reference for the theorems that
    torsionfree.is_totally_reflexive_up_to decides by.
    """
    if any(resolution_of(mod).ext_dim(i) for i in range(1, bound + 1)):
        return False
    res_t = transpose_resolution(mod)
    return not any(res_t.ext_dim(j) for j in range(1, bound + 1))


def pushforward_top_reference(mod: ModuleRep) -> np.ndarray:
    """M -> F_{-1} of a pushforward, lifting the core through its solved comparison.

    On the core it is d_2(res_t)^T . e . iso, with e and iso of
    cokernel_comparison_reference(core); on the split-off free part it
    is the identity.  The reference for pushforward's first map.
    """
    A, p = mod.algebra, mod.algebra.p
    split = split_free_summands(mod)
    core = split.core
    res_t = transpose_resolution(mod)
    res_t.extend(2)
    d2t = res_t.diff(2).transpose().to_linear()
    top = np.zeros((d2t.shape[0] + split.free_rank * A.dim, mod.dim), dtype=np.int64)
    if core.dim:
        _, embed, core_to_q = cokernel_comparison_reference(core)
        lift = gf.mat_mul(embed, gf.mat_mul(core_to_q, split.iso[:core.dim, :], p), p)
        top[:d2t.shape[0]] = gf.mat_mul(d2t, lift, p)
    top[d2t.shape[0]:] = split.iso[core.dim:, :]
    return top
