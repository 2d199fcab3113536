"""Torsionfree classification and bi-exact window sequences.

A module M is n-torsionfree when Ext^j(tr M, Lambda) = 0 for 1 <= j <= n,
and (m, n)-torsionfree when additionally Ext^i(M, Lambda) = 0 for
i <= m.  The central equivalence implemented here: M is
(m, n)-torsionfree exactly when it is the image of the middle map in an
exact sequence of projectives

    P_{m+1} -> ... -> P_0 -> P_{-1} -> ... -> P_{-n}

whose dual is also exact.  The builder splices M's minimal resolution
to the dual of a resolution of tr M, the right half that the classical
pushforward shares, by d_0: the first map M -> F_{-1} at the cover's
generators.  d_0 is built once per module and cached on it, so all of
M's windows with n >= 1 share it, with its form, transpose and ranks.
The verifier checks any candidate sequence and classifies the image
independently.

Classification, total reflexivity and the right half read tr M from one
resolution of tr(core) per module.  Every window reads the rest off the
module's cover: its generators, its syzygy rows and its one linear
section.  Build and verify share one defect routine.  The verifier
classifies each distinct image once: equal images (equal action
matrices) are one cached module per algebra.

Infinite vanishing is never claimed: every verdict carries the bound it
was certified to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gf
from .algebra import AlgebraRep, cached
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
    minimal_generator_coords,
    minimal_presentation,
    noncommuting_generator,
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


def pd_is_finite(mod: ModuleRep) -> bool:
    """Over an artinian local algebra, finite projective dimension = free."""
    rows, _ = mod.radical_rows()
    gens = mod.dim - rows.shape[0]
    return gens * mod.algebra.dim == mod.dim


def totally_reflexive_means_free(alg: AlgebraRep) -> bool:
    """True when alg is not Gorenstein and m^2 = 0.

    Over such a ring Ext^i(M, R) = Ext^i(tr M, R) = 0 for 1 <= i <= t,
    with t >= 1, holds exactly when M is free, so
    is_totally_reflexive_up_to reads pd_is_finite there and a gdim
    search may use the Tor-rank criterion.  Free modules pass.
    Conversely, let the vanishing hold for some t >= 1.  Then
    Ext^1(tr M, R) = 0, so M is torsionless.  Write M = M' + R^f with
    M' having no free summand.
    Every map M' -> R then lands in m (a map onto R would split off a
    free summand), so every such map kills mM', as m^2 = 0.  M' embeds
    in a free module, so mM' = 0 and M' = k^a.  Then Ext^1(M, R)
    contains Ext^1(k, R)^a, and mu^1(R) = e^2 - 1 >= 3, where
    e = dim m = socle dimension >= 2 (e <= 1 with m^2 = 0 is
    Gorenstein).  As Ext^1(M, R) = 0, a = 0 and M is free.
    """
    return not alg.is_gorenstein and not alg.table[1:, 1:].any()


def is_totally_reflexive_up_to(mod: ModuleRep, bound: int) -> bool:
    """Whether Ext^i(M, R) = Ext^i(tr M, R) = 0 for 1 <= i <= bound.

    Two kinds of ring are decided by theorem, with no Ext computed.  A
    zero-dimensional local ring is Gorenstein iff its socle is simple
    iff it is self-injective (Bruns-Herzog, Cohen-Macaulay Rings,
    ch. 3).  So over a Gorenstein ring (is_gorenstein: socle dimension
    1) Ext^{>=1}(X, R) = 0 for every X, here X = M and X = tr M.  Over
    a non-Gorenstein ring with m^2 = 0 the test holds exactly when M is
    free (totally_reflexive_means_free).  Every other ring, and every
    bound < 1, runs the bounded test, stopping at the first nonzero Ext.
    """
    if bound >= 1 and mod.algebra.is_gorenstein:
        return True
    if bound >= 1 and totally_reflexive_means_free(mod.algebra):
        return pd_is_finite(mod)
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


def pushforward(mod: ModuleRep, n: int) -> PushforwardResult:
    """Embed M into a length-n window of frees, exact while Ext^j(tr M) vanishes.

    The sequence is M -> F_{-1} by _first_map(M), then the right half of
    M's windows (_right_half).  Position -(j-1) is exact iff
    Ext^j(tr M, Lambda) = 0; the dual sequence is exact unconditionally.
    """
    if n < 1:
        raise ModuleError("pushforward length must be at least 1")
    A = mod.algebra
    ext_tr = tuple(transpose_resolution(mod).ext_dim(j) for j in range(1, n + 1))
    ranks, tail = _right_half(mod, n)
    modules = {0: mod, **{j: free_module(A, rank) for j, rank in ranks.items()}}
    maps = {0: _first_map(mod), **{j: d.to_linear() for j, d in tail.items()}}
    comp = ModuleComplex(modules, maps, check=True)
    primal = comp.exactness_defects([-j for j in range(n)])
    # the defect at -j is dim Ext^{j+1}(tr core, Lambda), down to the last term
    if tuple(primal[-j] for j in range(n)) != ext_tr:
        raise AssertionError("pushforward defect disagrees with Ext of the transpose")
    exact_while = next((j for j in range(n) if primal[-j]), n)
    return PushforwardResult(comp, tail, n, ext_tr, primal, exact_while,
                             split_free_summands(mod).free_rank)


def _right_half(mod: ModuleRep, n: int) -> tuple[dict[int, int], dict[int, LambdaMatrix]]:
    """Ranks of F_{-1} .. F_{-n} and maps F_{-j} -> F_{-(j+1)}, j < n, of M's
    windows and pushforwards: F_{-j} = P_{j+1}(res_t)^* and d_{j+2}(res_t)^T
    for res_t of tr(core), spliced with the identity on the free part: F_{-1}
    also holds M's split-off free rank r, where d_3(res_t)^T is zero."""
    A = mod.algebra
    r = split_free_summands(mod).free_rank
    res_t = transpose_resolution(mod)
    g = res_t.betti_numbers(n + 1)
    ranks = {-j: g[j + 1] + (r if j == 1 else 0) for j in range(1, n + 1)}
    tail = {-j: res_t.diff(j + 2).transpose() for j in range(1, n)}
    if r and n > 1:
        # r zero columns appended: the cells keep their row-major order
        d3 = tail[-1].nonzero
        tail[-1] = LambdaMatrix(A, gf.Cells(d3.rows, d3.cols, d3.vals,
                                            (d3.shape[0], d3.shape[1] + r, A.dim)))
    return ranks, tail


@cached
def _first_map(mod: ModuleRep) -> np.ndarray:
    """M -> F_{-1} of every window and pushforward of M (cached on M):
    d_2(res_t)^T . s on the core, for the core's linear section s
    (modules.cover_section), and the identity on the split-off free part.
    Two sections differ by a map into ker pi = im d_1(core), and
    d_2(res_t)^T . d_1(core) = (d_1(res_t) . d_2(res_t))^T = 0, as res_t is
    seeded with d_1(core)^T: the map is canonical, entry for entry.  So
    without a free summand first_map . pi = d_2(res_t)^T, as s . pi - 1
    maps into ker pi.  Checked Lambda-linear here, once per module, so a
    window reads it off its values on the cover's generators."""
    A, p = mod.algebra, mod.algebra.p
    split = split_free_summands(mod)
    core, r = split.core, split.free_rank
    res_t = transpose_resolution(mod)
    rank = res_t.betti_numbers(2)[2] + r
    top = np.zeros((rank * A.dim, mod.dim), dtype=np.int64)
    if core.dim:
        cols, inverse = cover_section(core)
        d2t = res_t.diff(2).transpose().to_linear()
        lift = gf.mat_mul(inverse, split.iso[:core.dim, :], p)
        top[:d2t.shape[0], :] = gf.mat_mul(d2t[:, cols], lift, p)
    if r:
        top[-r * A.dim:, :] = split.iso[core.dim:, :]
    if noncommuting_generator(mod, free_module(A, rank), top) is not None:
        raise AssertionError("the first map of a window must be Lambda-linear")
    return top


@cached
def _first_differential(mod: ModuleRep) -> LambdaMatrix:
    """d_0: P_0 -> F_{-1} of every window of M with n >= 1 (cached on M, so
    they share it with its form, transpose and ranks): the first map on the
    cover's generators.  Column t * dim Lambda of the cover is the unit
    vector at generator coordinate t, so entry (s, t) is block s of the
    first map's column at generator t."""
    A, top = mod.algebra, _first_map(mod)
    gens = top[:, list(minimal_generator_coords(mod))]
    return LambdaMatrix(A, gens.reshape(top.shape[0] // A.dim, A.dim, gens.shape[1])
                        .transpose(0, 2, 1))


@cached
def _window_image(mod: ModuleRep, n: int) -> tuple[ModuleRep | None, np.ndarray]:
    """The middle image of M's windows of right length n (n = 1 stands for
    every n >= 1) and the iso M -> it; None stands for M itself, which M's
    cache must not hold.  Cached on M, so M's windows and the verifier's
    image of them (the same module by interning) share it and its
    resolutions.  For n >= 1 it is the span of _first_map(M) in rref
    coordinates.  For n = 0 it is coker(d_1), read off M's cover
    pi: Lambda^g -> M: im d_1 = ker pi and the rref of a subspace is unique,
    so coker(d_1) is the quotient by the cover's syzygy rows, with
    projection q and section e.  Then pi . e . q = pi, so for the cover's
    linear section s (nonzero only at rows J, see modules.cover_section)
    q . s = q[:, J] . inverse is the unique inverse of pi . e."""
    A = mod.algebra
    if n == 0:
        data = projective_cover_and_syzygy(mod)
        image, proj, _ = quotient_module(data.free, data.inclusion.T, data.pivots)
        if image.dim != mod.dim:
            raise AssertionError("coker(d_1) must be the module: the cover kills exactly im d_1")
        cols, inverse = cover_section(mod)
        witness = gf.mat_mul(proj[:, cols], inverse, A.p)
    else:
        top = _first_map(mod)
        rows, piv = gf.row_basis(top.T, A.p)
        image, _ = submodule_from_rows(free_module(A, top.shape[0] // A.dim), rows, piv)
        witness = top[list(piv), :]
        if gf.rank(witness, A.p) != mod.dim:
            raise AssertionError("middle image must be isomorphic to the module")
    return (None if image is mod else image), witness


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
    if n:
        right, tail = _right_half(mod, n)
        ranks.update(right)
        diffs[0] = _first_differential(mod)
        diffs.update(tail)
    comp = FreeComplex(A, ranks, diffs, check=True)
    # for n = 0, d_1 is M's minimal presentation, so coker(d_1) is compared with M
    image, witness = _window_image(mod, min(n, 1))
    primal, dual_defects = _window_defects(comp)
    if any(primal.values()) or any(dual_defects.values()):
        raise AssertionError("window and its dual must be exact")
    return WindowBuild(comp, m, n, mod if image is None else image, witness,
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

    Modules are interned by content (see ModuleRep), so the image of a
    built window is the image its module M keeps (_window_image), with
    its resolutions already computed, for as long as M lives.
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


def window_roundtrip(mod: ModuleRep, bound: int, upto: int) -> tuple[TorsionfreeVerdict, dict]:
    """Classify M to the bound (>= upto), then build every window with
    m, n <= upto: a certified pair's is verified in mode "(4)", any
    other's must be refused.  The outcome of (m, n) is None when they
    agree, else the verifier's reasons, the refusal or "build not refused"."""
    cls = torsionfree_classify(mod, bound)
    outcomes = {}
    for m, n in itertools.product(range(upto + 1), repeat=2):
        try:
            build = build_window_sequence(mod, m, n)
        except TorsionfreeError as err:
            outcomes[m, n] = str(err) if cls.member(m, n) else None
            continue
        if not cls.member(m, n):
            outcomes[m, n] = "build not refused"
            continue
        verdict = verify_window_sequence(build.complex, m, n, "(4)")
        outcomes[m, n] = None if verdict.ok else verdict.reasons
    return cls, outcomes


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
