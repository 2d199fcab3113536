"""Torsionfree classification and bi-exact window sequences.

A module M is n-torsionfree when Ext^j(tr M, Lambda) = 0 for 1 <= j <= n,
and (m, n)-torsionfree when additionally Ext^i(M, Lambda) = 0 for
i <= m.  The central equivalence implemented here: M is
(m, n)-torsionfree exactly when it is the image of the middle map in an
exact sequence of projectives

    P_{m+1} -> ... -> P_0 -> P_{-1} -> ... -> P_{-n}

whose dual is also exact.  The builder splices a minimal resolution
with the classical pushforward (the dual of a resolution of the
transpose); the verifier checks any candidate sequence and classifies
the image independently.

Classification, total reflexivity and pushforward read Ext(tr M,
Lambda) from one resolution of tr(core) per module.  Every window reads
the rest off the module's cover: its syzygy rows and its one linear
section.  Build and verify share one defect routine.  The verifier
classifies each distinct image once: equal images (equal action
matrices) are one cached module per algebra.

Infinite vanishing is never claimed: every verdict carries the bound it
was certified to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf
from .algebra import cached
from .complexes import (
    FreeComplex,
    MinimalResolution,
    ModuleComplex,
    check_exactness,
    ext_dims,
    resolution_of,
    ring_module,
)
from .modules import (
    LambdaMatrix,
    ModuleError,
    ModuleRep,
    cover_section,
    free_module,
    lambda_from_linear,
    minimal_presentation,
    projective_cover_and_syzygy,
    quotient_module,
    split_free_summands,
    submodule_from_rows,
)


class TorsionfreeError(ValueError):
    """Precondition failure; carries the first failing Ext index and side."""

    def __init__(self, message, side=None, index=None):
        super().__init__(message)
        self.side = side
        self.index = index


@dataclass
class TorsionfreeVerdict:
    m_max: int
    n_max: int
    bound: int
    totally_reflexive_up_to_bound: bool
    ext_self: tuple[int, ...]
    ext_transpose: tuple[int, ...]

    def member(self, m: int, n: int) -> bool:
        return m <= self.m_max and n <= self.n_max

    def to_jsonable(self) -> dict:
        return {"m_max": self.m_max, "n_max": self.n_max, "bound": self.bound,
                "totally_reflexive_up_to_bound": self.totally_reflexive_up_to_bound,
                "ext_self": list(self.ext_self),
                "ext_transpose": list(self.ext_transpose)}


def _leading_zeros(dims: tuple[int, ...]) -> int:
    """Largest m with dims[1..m] all zero."""
    m = 0
    for i in range(1, len(dims)):
        if dims[i]:
            break
        m = i
    return m


def transpose_resolution(mod: ModuleRep) -> MinimalResolution:
    """The resolution of tr M = tr(core), cached on the free-summand-free core.

    A free summand changes no transpose.  The core's minimal
    presentation d_1: P_1 -> P_0 dualizes to a minimal presentation of
    tr(core), which seeds the resolution in the original free
    coordinates.  A free module has a zero core and a zero resolution.
    When M has no free summand the split computes no Hom space: the
    test (`has_free_summand`) is the kernel of d_1^T, which is also this
    resolution's first kernel and is computed once.
    """
    return _core_transpose_resolution(split_free_summands(mod).core)


@cached
def _core_transpose_resolution(core: ModuleRep) -> MinimalResolution:
    return MinimalResolution.from_presentation(
        core.algebra, minimal_presentation(core).transpose())


def torsionfree_classify(mod: ModuleRep, bound: int) -> TorsionfreeVerdict:
    """Largest certified m and n with Ext vanishing up to the bound."""
    if bound < 1:
        raise ModuleError("classification bound must be at least 1")
    ext_self = ext_dims(mod, ring_module(mod.algebra), bound).dims
    res_t = transpose_resolution(mod)
    ext_tr = tuple(res_t.ext_dim(j) for j in range(bound + 1))
    m_max = _leading_zeros(ext_self)
    n_max = _leading_zeros(ext_tr)
    return TorsionfreeVerdict(m_max, n_max, bound,
                              m_max == bound and n_max == bound,
                              ext_self, ext_tr)


def is_totally_reflexive_up_to(mod: ModuleRep, bound: int) -> bool:
    """Early-exit total reflexivity test (both Ext sides vanish to the bound)."""
    if any(resolution_of(mod).ext_dim(i) for i in range(1, bound + 1)):
        return False
    res_t = transpose_resolution(mod)
    return not any(res_t.ext_dim(j) for j in range(1, bound + 1))


# -- pushforward -------------------------------------------------------------

@dataclass
class PushforwardResult:
    complex: ModuleComplex               # 0 -> M -> F_{-1} -> ... -> F_{-n}
    tail: dict[int, LambdaMatrix]        # its free maps at -1 .. -(n-1)
    n: int
    ext_transpose: tuple[int, ...]       # Ext^j(tr core, Lambda) for j = 1..n
    primal_defects: dict[int, int]
    exact_while: int                     # largest j with positions 0..-(j-1) exact
    core_rank: int                       # split-off free rank of M

    def to_jsonable(self) -> dict:
        return {"n": self.n,
                "ext_transpose": list(self.ext_transpose),
                "primal_defects": {str(k): v for k, v in self.primal_defects.items()},
                "exact_while": self.exact_while,
                "core_free_rank": self.core_rank}


@cached
def _cokernel_comparison(mod: ModuleRep) -> tuple[ModuleRep, np.ndarray]:
    """coker(d_1) of M's minimal presentation and the canonical iso M -> coker(d_1).

    Both are read off M's cover pi: Lambda^g -> M.  im d_1 = ker pi and
    the rref of a subspace is unique, so coker(d_1) is the quotient by
    the cover's syzygy rows, with projection q and section e.  Then
    pi . e . q = pi, so for the cover's linear section s (nonzero only
    at rows J, see modules.cover_section) q . s = q[:, J] . inverse is
    the unique inverse of pi . e.  Cached, so the iso is read-only; the
    n = 0 window reads it.
    """
    data = projective_cover_and_syzygy(mod)
    quot, proj, _ = quotient_module(data.free, data.inclusion.T, data.pivots)
    if quot.dim != mod.dim:
        raise AssertionError("coker(d_1) must be the module: the cover kills exactly im d_1")
    cols, inverse = cover_section(mod)
    iso = gf.mat_mul(proj[:, cols], inverse, mod.algebra.p)
    iso.flags.writeable = False
    return quot, iso


def pushforward(mod: ModuleRep, n: int) -> PushforwardResult:
    """Embed M into a length-n window of frees, exact while Ext^j(tr M) vanishes.

    The sequence is the dual of a minimal resolution res_t of the
    transpose of the free-summand-free core, padded with an identity
    splice on the free part.  Position -(j-1) is exact iff
    Ext^j(tr M, Lambda) = 0; the dual sequence is exact unconditionally.
    On the core, M -> F_{-1} is d_2(res_t)^T . s for the core's linear
    section s (modules.cover_section).  Any two sections differ by a map
    into ker pi = im d_1(core), which d_2(res_t)^T kills:
    d_2(res_t)^T . d_1(core) = (d_1(res_t) . d_2(res_t))^T = 0, as res_t
    is seeded with d_1(core)^T.  So the map is canonical, entry for entry.
    """
    if n < 1:
        raise ModuleError("pushforward length must be at least 1")
    A = mod.algebra
    p = A.p
    split = split_free_summands(mod)
    core, r = split.core, split.free_rank
    core_part = split.iso[:core.dim, :]
    free_part = split.iso[core.dim:, :]
    res_t = transpose_resolution(mod)
    ext_tr = tuple(res_t.ext_dim(j) for j in range(1, n + 1))
    g = res_t.betti[:n + 2]
    # F_{-j} -> F_{-(j+1)} is d_{j+2}^T, zero on the split-off free part of F_{-1}
    tail = {-j: res_t.diff(j + 2).transpose() for j in range(1, n)}
    if r and n > 1:
        # r zero columns appended: the cells keep their row-major order
        d3 = tail[-1].nonzero
        tail[-1] = LambdaMatrix(A, gf.Cells(d3.rows, d3.cols, d3.vals,
                                            (d3.shape[0], d3.shape[1] + r, A.dim)))

    modules = {0: mod}
    maps = {}
    for j in range(1, n + 1):
        modules[-j] = free_module(A, g[j + 1] + (r if j == 1 else 0))
    # M -> F_{-1}: through the transpose-resolution dual on the core,
    # identity on the split-off free part
    D = A.dim
    f1 = modules[-1]
    top = np.zeros((f1.dim, mod.dim), dtype=np.int64)
    if core.dim:
        cols, inverse = cover_section(core)
        d2t = res_t.diff(2).transpose().to_linear()
        top[:d2t.shape[0], :] = gf.mat_mul(d2t[:, cols], gf.mat_mul(inverse, core_part, p), p)
    if r:
        top[f1.dim - r * D:, :] = free_part
    maps[0] = top
    for j in range(1, n):
        maps[-j] = tail[-j].to_linear()
    comp = ModuleComplex(modules, maps, check=True)

    check_positions = [-(j - 1) for j in range(1, n + 1)]
    primal = comp.exactness_defects(check_positions)
    # defect at -(j-1) equals dim Ext^j(tr core, Lambda), down to the last term
    for j in range(1, n + 1):
        if primal[-(j - 1)] != ext_tr[j - 1]:
            raise AssertionError("pushforward defect disagrees with Ext of the transpose")
    exact_while = 0
    for j in range(1, n + 1):
        pos = -(j - 1)
        if pos in primal and primal[pos] == 0:
            exact_while = j
        else:
            break
    return PushforwardResult(comp, tail, n, ext_tr, primal, exact_while, r)


# -- window sequences --------------------------------------------------------

@dataclass
class WindowBuild:
    complex: FreeComplex
    m: int
    n: int
    image_module: ModuleRep
    image_witness: np.ndarray            # M -> image_module, an isomorphism
    primal_defects: dict[int, int]
    dual_defects: dict[int, int]
    classification: TorsionfreeVerdict

    def to_jsonable(self) -> dict:
        return {"m": self.m, "n": self.n,
                "complex": self.complex.to_jsonable(),
                "image_dim": self.image_module.dim,
                "primal_defects": {str(k): v for k, v in self.primal_defects.items()},
                "dual_defects": {str(k): v for k, v in self.dual_defects.items()},
                "classification": self.classification.to_jsonable()}


def build_window_sequence(mod: ModuleRep, m: int, n: int) -> WindowBuild:
    """Construct the bi-exact window certifying (m, n)-torsionfreeness.

    Refused (with the failing Ext index) when the classification bound
    does not certify membership.  For n = 0 the right tail is empty and
    the image convention is the cokernel of the last left differential.
    """
    if m < 0 or n < 0:
        raise ModuleError("window degrees must be nonnegative")
    A = mod.algebra
    bound = max(m, n, 1)
    cls = torsionfree_classify(mod, bound)
    if cls.m_max < m:
        raise TorsionfreeError(
            f"module is not ({m},{n})-torsionfree: Ext^{cls.m_max + 1}(M, ring) != 0",
            side="self", index=cls.m_max + 1)
    if cls.n_max < n:
        raise TorsionfreeError(
            f"module is not ({m},{n})-torsionfree: "
            f"Ext^{cls.n_max + 1}(tr M, ring) != 0",
            side="transpose", index=cls.n_max + 1)
    res = resolution_of(mod)
    res.extend(m + 1)
    ranks = {i: res.betti[i] for i in range(m + 2)}
    diffs = {i: res.diff(i) for i in range(1, m + 2)}
    if n == 0:
        comp = FreeComplex(A, ranks, diffs, check=True)
        # d_1 is M's minimal presentation, so coker(d_1) is compared with M
        image_module, image_witness = _cokernel_comparison(mod)
    else:
        pf = pushforward(mod, n)
        for j in range(1, n + 1):
            ranks[-j] = pf.complex.modules[-j].free_rank
        top = pf.complex.maps[0]
        partial = gf.mat_mul(top, projective_cover_and_syzygy(mod).cover, A.p)
        diffs[0] = lambda_from_linear(A, partial, ranks[-1], ranks[0])
        diffs.update(pf.tail)
        comp = FreeComplex(A, ranks, diffs, check=True)
        img_rows, img_piv = gf.row_basis(top.T, A.p)
        image_module, _ = submodule_from_rows(pf.complex.modules[-1], img_rows, img_piv)
        image_witness = top[list(img_piv), :]
        if gf.rank(image_witness, A.p) != mod.dim:
            raise AssertionError("middle image must be isomorphic to the module")
    primal, dual_defects = _window_defects(comp)
    if any(primal.values()) or any(dual_defects.values()):
        raise AssertionError("window and its dual must be exact")
    return WindowBuild(comp, m, n, image_module, image_witness,
                       primal, dual_defects, cls)


@dataclass
class WindowVerdict:
    ok: bool
    m: int
    n: int
    mode: str
    primal_defects: dict[int, int]
    dual_defects: dict[int, int]
    membership_failures: list
    image_dim: int
    image_classification: TorsionfreeVerdict | None
    reasons: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return {"ok": self.ok, "m": self.m, "n": self.n, "mode": self.mode,
                "primal_defects": {str(k): v for k, v in self.primal_defects.items()},
                "dual_defects": {str(k): v for k, v in self.dual_defects.items()},
                "membership_failures": self.membership_failures,
                "image_dim": self.image_dim,
                "image_classification":
                    self.image_classification.to_jsonable()
                    if self.image_classification else None,
                "reasons": self.reasons}


def _window_defects(comp: ModuleComplex | FreeComplex) -> tuple[dict[int, int], dict[int, int]]:
    """Exactness defects of a window and of its dual, at interior positions.

    For n = 0 the image is coker(d_1), and the dual needs no augmentation
    at P_0* by Hom(image, Lambda): Hom(-, Lambda) is left exact, so
    0 -> Hom(coker d_1, Lambda) -> C_0* -> C_1* is exact and
    Hom(coker d_1, Lambda) = ker d_1^* whatever the window, as long as
    d_1 is Lambda-linear.  The maps of a built window are, and a map read
    from outside is checked when it is read (cli).
    """
    return check_exactness(comp), check_exactness(comp.dual())


def _image_of_middle(comp: ModuleComplex | FreeComplex, n: int):
    """Image of the middle map (or for n = 0 the cokernel convention).

    Modules are interned by content (see ModuleRep), so an image equal
    to one built for another window is that module, with its
    resolutions already computed.
    """
    A = comp.algebra
    rows, piv = gf.row_basis(comp.linear(1 if n == 0 else 0).T, A.p)
    if n == 0:
        return quotient_module(comp.term(0), rows, piv)[0]
    return submodule_from_rows(comp.term(-1), rows, piv)[0]


def verify_window_sequence(comp: ModuleComplex | FreeComplex, m: int, n: int,
                           mode: str = "(4)") -> WindowVerdict:
    """Check a candidate window: exactness, dual exactness, memberships.

    mode "(3)" asks every term to be (m, n)-torsionfree; mode "(4)" asks
    the left terms (positions 0..m+1) for the Ext-vanishing side and the
    right terms (positions -n..-1) for the torsionfree side.  Free terms
    satisfy every membership and are skipped.  On success the image of
    the middle map is classified directly as a cross-check.
    """
    if mode not in ("(3)", "(4)"):
        raise ModuleError(f"unknown verification mode {mode!r}")
    lo_expect, hi_expect = -n, m + 1
    if comp.lo != lo_expect or comp.hi != hi_expect:
        raise ModuleError(
            f"sequence spans [{comp.lo}, {comp.hi}], expected [{lo_expect}, {hi_expect}]")
    reasons = []
    bound = max(m, n, 1)
    image = _image_of_middle(comp, n)
    primal, dual_defects = _window_defects(comp)

    membership_failures = []
    if mode == "(3)":
        requirements = {i: (m, n) for i in range(comp.lo, comp.hi + 1)}
    else:
        requirements = {i: (m, 0) for i in range(0, comp.hi + 1)}
        requirements.update({i: (0, n) for i in range(comp.lo, 0)})
    for i, (need_m, need_n) in sorted(requirements.items(), reverse=True):
        term = comp.term(i)
        if term.free_rank is not None or (need_m == 0 and need_n == 0):
            continue
        cls = torsionfree_classify(term, bound)
        if cls.m_max < need_m or cls.n_max < need_n:
            membership_failures.append(
                {"position": i, "required": [need_m, need_n],
                 "certified": [cls.m_max, cls.n_max]})

    if any(primal.values()):
        reasons.append("sequence is not exact")
    if any(dual_defects.values()):
        reasons.append("dual sequence is not exact")
    if membership_failures:
        reasons.append("a term fails its torsionfree membership")
    ok = not reasons

    image_cls = None
    if ok:
        image_cls = torsionfree_classify(image, bound)
        if not image_cls.member(m, n):
            raise AssertionError("verified window must classify its image as (m, n)-torsionfree")
    return WindowVerdict(ok, m, n, mode, primal, dual_defects,
                         membership_failures, image.dim, image_cls, reasons)


# -- G-dimension -------------------------------------------------------------

@dataclass
class GdimReport:
    bound: int
    ext_self: tuple[int, ...]
    sup_including_hom: int
    sup_positive: int
    tail_zero: bool
    totally_reflexive: bool
    verdict: str

    def to_jsonable(self) -> dict:
        return {"bound": self.bound, "ext_self": list(self.ext_self),
                "sup_including_hom": self.sup_including_hom,
                "sup_positive": self.sup_positive,
                "tail_zero": self.tail_zero,
                "totally_reflexive": self.totally_reflexive,
                "verdict": self.verdict}


def gdim_report(mod: ModuleRep, bound: int) -> GdimReport:
    """G-dimension verdict over an artinian algebra, always bound-qualified.

    Finite G-dimension forces G-dimension zero here (depth is zero
    everywhere), so the verdict is either certified zero, a conditional
    value read off the last nonvanishing Ext, or infinite-up-to-bound.
    Both readings of sup{i : Ext^i != 0} (with and without i = 0) are
    reported.
    """
    if bound < 2:
        raise ModuleError("gdim bound must be at least 2")
    cls = torsionfree_classify(mod, bound)
    dims = cls.ext_self
    nonzero = [i for i, d in enumerate(dims) if d]
    sup_all = max(nonzero) if nonzero else 0
    positive = [i for i in nonzero if i >= 1]
    sup_pos = max(positive) if positive else 0
    # a vanishing tail is only certified when it is nonempty
    tail_zero = sup_pos < bound and all(d == 0 for d in dims[sup_pos + 1:])
    if cls.totally_reflexive_up_to_bound:
        verdict = "gdim = 0 (totally reflexive certified to bound)"
    elif positive and tail_zero:
        verdict = (f"gdim = {sup_pos} conditional on finite reducing "
                   f"Gorenstein dimension, up to bound")
    else:
        verdict = "infinite-up-to-bound"
    return GdimReport(bound, dims, sup_all, sup_pos, tail_zero,
                      cls.totally_reflexive_up_to_bound, verdict)
