"""Extension enumeration and bounded searches for reducing dimensions.

The reducing projective (resp. Gorenstein) dimension of M is the least
number s of short exact sequences

    0 -> M_{i-1}^{a_i} -> M_i -> syz^{n_i} M_{i-1}^{b_i} -> 0

starting at M_0 = M and ending at a module of finite projective (resp.
G-) dimension; the upper variant forces a_i = b_i = 1.  Over an
artinian local algebra "finite projective dimension" means free, which
is decidable, and "finite G-dimension" means totally reflexive
(torsionfree.is_totally_reflexive_up_to).  That holds for every module
over a Gorenstein ring and means free over a non-Gorenstein ring with
m^2 = 0; over any other ring it is tested only up to a bound
(Ext^i(M, R) = Ext^i(tr M, R) = 0 for 1 <= i <= tr_bound).  Each
candidate sequence is classified by an element of Ext^1, realized here
as a pushout of the cover sequence of its right-hand term.

Searches are breadth-first in the step count with a fixed candidate
order, so witnesses are minimal within the configured limits and
reproducible from the seed.  Nothing here ever asserts an infinite
reducing dimension: a failed search reports its limits and whether the
enumeration was exhaustive inside them.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import gf
from .complexes import (
    ModuleComplex,
    bass_numbers,
    ext_dims,
    resolution_of,
    ring_module,
)
from .modules import (
    ModuleError,
    ModuleRep,
    direct_sum,
    hom_space,
    is_isomorphic,
    minimal_generator_coords,
    projective_cover_and_syzygy,
    quotient_module,
    simple_module,
)
from .torsionfree import (
    is_totally_reflexive_up_to,
    pd_is_finite,
    totally_reflexive_means_free,
)


@dataclass
class SearchLimits:
    max_steps: int = 1
    n_max: int = 1
    ab_max: int = 1
    cap: int = 200_000
    seed: int = 0
    tr_bound: int = 3
    samples: int = 64

    def to_jsonable(self) -> dict:
        return asdict(self)


# -- Ext^1 enumeration -------------------------------------------------------

@dataclass
class ExtElement:
    space: "Ext1Space"
    coeffs: tuple[int, ...]
    rep: np.ndarray                 # syzygy(C) -> A, coset representative


class Ext1Space:
    """Ext^1(C, A) = Hom(syz C, A) / restrictions of Hom(P_0, A).

    Keeps the cover of C fixed (it is cached on C), so elements rebuild
    deterministically from their coefficient tuples.
    """

    def __init__(self, source: ModuleRep, target: ModuleRep, cap: int):
        self.C = source
        self.A = target
        A = source.algebra
        self.cover = projective_cover_and_syzygy(source)
        self.hom_syz = hom_space(self.cover.syzygy, target)
        hom_free = hom_space(self.cover.free, target)
        restriction = hom_free.precompose(self.cover.inclusion, self.hom_syz)
        pivot_set = set(gf.echelon_pivots(restriction, A.p))
        coset = [c for c in range(self.hom_syz.dim) if c not in pivot_set]
        self.coset_basis = self.hom_syz.kernel[:, coset]
        self.dim = len(coset)
        self.exhaustive = gf.power_at_most(A.p, self.dim, cap) is not None

    def element(self, coeffs) -> ExtElement:
        """The class with these coordinates on the coset basis."""
        p = self.C.algebra.p
        vec = np.asarray(coeffs, dtype=np.int64) % p
        if vec.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {vec.size}")
        rep = gf.mat_mul(self.coset_basis, vec[:, None], p)
        return ExtElement(self, tuple(vec.tolist()),
                          rep.reshape(self.A.dim, self.cover.syzygy.dim))

    def elements(self, *, scalar_orbits: bool = False, samples: int = 64,
                 seed: int = 0):
        """Deterministic enumeration: exhaustive when the space is small.

        With scalar_orbits the first nonzero coefficient is normalized
        to 1 (the middle terms of e and lambda*e are isomorphic).  The
        non-exhaustive fallback yields zero, the basis, pairwise basis
        sums and seeded random tuples.
        """
        p = self.C.algebra.p
        if self.exhaustive:
            for coeffs in itertools.product(range(p), repeat=self.dim):
                if scalar_orbits and p > 2:
                    first = next((c for c in coeffs if c), None)
                    if first is not None and first != 1:
                        continue
                yield self.element(coeffs)
            return
        yield self.element((0,) * self.dim)
        eye = np.eye(self.dim, dtype=np.int64)
        for i in range(self.dim):
            yield self.element(tuple(eye[i]))
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                yield self.element(tuple((eye[i] + eye[j]) % p))
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            yield self.element(tuple(rng.integers(0, p, size=self.dim, dtype=np.int64)))


def middle_term(element: ExtElement):
    """Pushout middle module: 0 -> A -> N -> C -> 0 for the given class.

    N = (A + P_0) / graph(rep, -incl); the zero class gives the split
    extension.  The returned short complex is verified exact.
    """
    space = element.space
    A_mod, C = space.A, space.C
    p = A_mod.algebra.p
    cov = space.cover
    ambient = direct_sum([A_mod, cov.free])
    syz_dim = cov.syzygy.dim
    graph = np.vstack([element.rep, (-cov.inclusion) % p])  # columns = graph vectors
    rows, piv = gf.row_basis(graph.T, p)
    if rows.shape[0] != syz_dim:
        raise AssertionError("graph of the extension class must be embedded")
    middle, proj, embed = quotient_module(ambient, rows, piv)
    # A enters the sum as its first A.dim coordinates: A -> N, then N -> C
    left = proj[:, :A_mod.dim]
    right = gf.mat_mul(cov.cover, embed[A_mod.dim:, :], p)
    seq = ModuleComplex({2: A_mod, 1: middle, 0: C}, {2: left, 1: right})
    defects = seq.exactness_defects([2, 1, 0])
    if set(defects.values()) != {0}:
        raise AssertionError("pushout must produce a short exact sequence")
    return middle, seq


# -- terminal tests ----------------------------------------------------------

def connecting_rank(element: ExtElement) -> int:
    """Rank of the connecting map delta: Tor_1(k, C) -> A/mA of the class.

    The cover of C is minimal, so Tor_1(k, C) = syz C / m syz C and
    delta is the representative restricted to the minimal generators of
    syz C, reduced mod mA: a mu(A) x mu(syz C) matrix.
    """
    space = element.space
    p = space.A.algebra.p
    rows, piv = space.A.radical_rows()
    syz_gens = list(minimal_generator_coords(space.cover.syzygy))
    reduced = gf.reduce_mod_rowspace(rows, piv, element.rep[:, syz_gens], p)
    return gf.rank(reduced[list(minimal_generator_coords(space.A))], p)


def free_middle_rank(x: ModuleRep, n: int, a: int, b: int) -> int | None:
    """Rank of delta at which the middle of 0 -> X^a -> N -> (syz^n X)^b -> 0 is free.

    For 0 -> A -> N -> C -> 0 the Tor(k, -) sequence
    Tor_1(k, C) -> A/mA -> N/mN -> C/mC -> 0
    gives mu(N) = mu(A) + mu(C) - rank delta, and over an artinian local
    ring N is free iff mu(N) * dim R = dim A + dim C.  Minimal covers
    add up, so mu(A) = a beta_0, mu(C) = b beta_n and mu(syz C) =
    b beta_{n+1}, read off the cached resolution of X; dim syz^n X
    follows from 0 -> syz^{i+1} X -> R^{beta_i} -> syz^i X -> 0.  No
    module is built.  None when no rank in [0, min(mu(A), mu(syz C))]
    qualifies: then no class of the step has a free middle.
    """
    betti = resolution_of(x).betti_numbers(n + 1)
    ring_dim = x.algebra.dim
    syz_dim = x.dim
    for beta in betti[:n]:
        syz_dim = beta * ring_dim - syz_dim
    total = a * x.dim + b * syz_dim
    if total % ring_dim:
        return None
    needed = a * betti[0] + b * betti[n] - total // ring_dim
    return needed if 0 <= needed <= min(a * betti[0], b * betti[n + 1]) else None


# -- witnesses and search ----------------------------------------------------

@dataclass
class ReductionStep:
    n: int
    a: int
    b: int
    coeffs: tuple[int, ...]
    middle: ModuleRep

    def to_jsonable(self) -> dict:
        return {"n": self.n, "a": self.a, "b": self.b,
                "coeffs": list(self.coeffs),
                "middle": self.middle.to_jsonable()}


@dataclass
class ReductionWitness:
    mode: str                  # "red" or "ured"
    target: str                # "pd" or "gdim"
    steps: list[ReductionStep]
    terminal: ModuleRep
    terminal_verdict: str

    @property
    def depth(self) -> int:
        return len(self.steps)

    def to_jsonable(self) -> dict:
        return {"mode": self.mode, "target": self.target,
                "depth": self.depth,
                "steps": [s.to_jsonable() for s in self.steps],
                "terminal_dim": self.terminal.dim,
                "terminal_verdict": self.terminal_verdict}


@dataclass
class SearchResult:
    found: bool
    witness: ReductionWitness | None
    exhaustive: bool
    tested: int
    limits: SearchLimits
    mode: str
    target: str
    note: str = ""
    pruned: int = 0

    def to_jsonable(self) -> dict:
        return {"found": self.found,
                "witness": self.witness.to_jsonable() if self.witness else None,
                "exhaustive": self.exhaustive,
                "tested": self.tested,
                "pruned": self.pruned,
                "limits": self.limits.to_jsonable(),
                "mode": self.mode, "target": self.target,
                "note": self.note or
                ("" if self.found else
                 f"no witness within {self.limits.max_steps} steps; limits are "
                 "search policy, not a mathematical bound")}


def _step_space(x: ModuleRep, n: int, a: int, b: int, cap: int) -> Ext1Space:
    """Ext^1((syz^n X)^b, X^a): the classes of one (n, a, b) step from X."""
    syz = x if n == 0 else resolution_of(x).syzygy_module(n)
    right, left = direct_sum([syz] * b, x.algebra), direct_sum([x] * a, x.algebra)
    return Ext1Space(right, left, cap)


def _fingerprint(mod: ModuleRep) -> tuple:
    """Frontier bucket key: dimension and radical series, nothing resolved.

    A finer key would skip no more: a module is skipped only on a "yes"
    of is_isomorphic, and isomorphic modules share every invariant.
    """
    return mod.dim, mod.radical_series_dims()


def _candidate_triples(mode: str, limits: SearchLimits):
    if mode == "ured":
        return [(n, 1, 1) for n in range(limits.n_max + 1)]
    return [(n, a, b)
            for n in range(limits.n_max + 1)
            for a in range(1, limits.ab_max + 1)
            for b in range(1, limits.ab_max + 1)]


def _check_target(target: str, limits: SearchLimits) -> None:
    """Refuse an unknown target, and a gdim bound under which every module passes."""
    if target not in ("pd", "gdim"):
        raise ValueError(f"unknown target {target!r}")
    if target == "gdim" and limits.tr_bound < 1:
        raise ValueError(f"gdim needs tr_bound >= 1, got {limits.tr_bound}")


def search_reducing(mod: ModuleRep, mode: str, target: str,
                    limits: SearchLimits | None = None) -> SearchResult:
    """Breadth-first bounded search for a reducing-dimension witness.

    Candidates at each level are ordered lexicographically in
    (n, a, b, extension coefficients); the first terminal middle found
    is returned, so the witness depth is minimal within the limits.

    A pd search decides at every level whether a class has a free
    middle without building it: free_middle_rank prices each triple
    (n, a, b) from the Betti numbers of the current module, and a class
    is free iff its connecting map delta has that rank, so a class
    costs one rank of a small matrix and its middle is built at once
    only when it is free.  Every other class of a non-last level goes
    onto the frontier unbuilt, and its middle is built when the next
    level expands it.  At the last level a triple for which no rank of
    delta makes N free is skipped before its Ext^1 is formed and
    counted in ``pruned``; pruned triples are covered by that exact
    argument, so they keep the search exhaustive.  Every enumerated
    class is counted in ``tested``.  A gdim search over a ring where
    totally reflexive means free (see totally_reflexive_means_free)
    has the same terminal modules, so it takes the same path and
    prunes the same triples.  Over any other ring a gdim search builds
    every middle and tests it with is_totally_reflexive_up_to, which
    passes every module over a Gorenstein ring without computing Ext
    and runs the bounded test elsewhere.  A frontier
    module is skipped only when is_isomorphic certifies it isomorphic
    to one already expanded.
    """
    if mode not in ("red", "ured"):
        raise ValueError(f"unknown mode {mode!r}")
    limits = limits or SearchLimits()
    _check_target(target, limits)
    alg = mod.algebra
    # exact: the terminal test is freeness, read off the Tor-rank criterion
    exact = target == "pd" or totally_reflexive_means_free(alg)

    def terminal(x: ModuleRep) -> bool:
        if target == "pd":
            return pd_is_finite(x)
        return is_totally_reflexive_up_to(x, limits.tr_bound)

    def verdict_text(x: ModuleRep) -> str:
        if target == "pd":
            return f"free of rank {x.dim // alg.dim}"
        return f"totally reflexive up to bound {limits.tr_bound}"

    if terminal(mod):
        witness = ReductionWitness(mode, target, [], mod, verdict_text(mod))
        return SearchResult(True, witness, True, 0, limits, mode, target,
                            note="module already has finite dimension; depth 0")

    tested = pruned = 0
    all_exhaustive = True
    # Frontier entries are (chain, class, (n, a, b), middle): the class
    # and shape of the step after chain, or None for the start module.
    # On the Tor-rank path a middle stays None until the class is expanded.
    frontier: list[tuple] = [([], None, None, mod)]
    expanded: dict[tuple, list[ModuleRep]] = {}

    for level in range(1, limits.max_steps + 1):
        last = level == limits.max_steps
        next_frontier: list[tuple] = []
        for chain, pending, shape, current in frontier:
            if pending is not None:
                if current is None:
                    current, _ = middle_term(pending)
                    if terminal(current):
                        raise AssertionError(
                            "Tor-rank criterion and the built middle disagree")
                chain = chain + [ReductionStep(*shape, pending.coeffs, current)]
            twins = expanded.setdefault(_fingerprint(current), [])
            if any(is_isomorphic(current, seen, exhaust_cap=4096, samples=32,
                                 seed=limits.seed).kind == "yes"
                   for seen in twins):
                continue
            twins.append(current)
            for n, a, b in _candidate_triples(mode, limits):
                needed = free_middle_rank(current, n, a, b) if exact else None
                if last and exact and needed is None:
                    pruned += 1
                    continue
                space = _step_space(current, n, a, b, limits.cap)
                if not space.exhaustive:
                    all_exhaustive = False
                for element in space.elements(scalar_orbits=space.exhaustive,
                                              samples=limits.samples,
                                              seed=limits.seed):
                    tested += 1
                    middle = None
                    if exact:
                        found = needed is not None and \
                            connecting_rank(element) == needed
                    else:
                        middle, _ = middle_term(element)
                        found = terminal(middle)
                    if not found:
                        if not last:
                            next_frontier.append((chain, element, (n, a, b), middle))
                        continue
                    if middle is None:
                        middle, _ = middle_term(element)
                        if not terminal(middle):
                            raise AssertionError(
                                "Tor-rank criterion and the built middle disagree")
                    step = ReductionStep(n, a, b, element.coeffs, middle)
                    witness = ReductionWitness(mode, target, chain + [step],
                                               middle, verdict_text(middle))
                    return SearchResult(True, witness, all_exhaustive, tested,
                                        limits, mode, target, pruned=pruned)
        frontier = next_frontier
    return SearchResult(False, None, all_exhaustive, tested, limits, mode,
                        target, pruned=pruned)


def verify_witness(mod: ModuleRep, result: SearchResult) -> bool:
    """Re-derive every step of a witness from scratch and re-check the terminal.

    Each extension class is rebuilt from its stored coefficients against
    the deterministic cover and coset bases, so the middles must match
    the stored ones entry for entry.  A gdim terminal is re-checked
    with is_totally_reflexive_up_to: by theorem over a Gorenstein ring
    and over a non-Gorenstein ring with m^2 = 0, bounded elsewhere.
    """
    limits = result.limits
    _check_target(result.target, limits)
    if not result.found:
        return False
    current = mod
    for step in result.witness.steps:
        if result.mode == "ured" and (step.a != 1 or step.b != 1):
            return False
        space = _step_space(current, step.n, step.a, step.b, limits.cap)
        element = space.element(step.coeffs)
        middle, seq = middle_term(element)
        if middle.dim != step.middle.dim:
            return False
        for j in range(mod.algebra.num_gens):
            if not (middle.action_arr(j) == step.middle.action_arr(j)).all():
                return False
        current = middle
    if result.target == "pd":
        return pd_is_finite(current)
    return is_totally_reflexive_up_to(current, limits.tr_bound)


# -- growth estimation -------------------------------------------------------

GROWTH_RATIO_EPS = 0.15     # an exponential tail grows by at least this ratio
BETTI_IMAX = 10             # the syzygy Betti inequality is checked for i <= this


@dataclass
class GrowthEstimate:
    kind: str
    values: tuple[int, ...]
    window: int
    exponential_flag: bool
    fitted_degree: int | None
    verdict: str
    note: str = ("window estimate of an asymptotic infimum; "
                 "never asserted as the true value")

    @property
    def is_finite(self) -> bool:
        return self.verdict.startswith("poly")

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "values": list(self.values),
                "start_index": 0, "window": self.window,
                "ratio_eps": GROWTH_RATIO_EPS,
                "exponential_flag": self.exponential_flag,
                "fitted_degree": self.fitted_degree,
                "verdict": self.verdict, "note": self.note}


def growth_estimate(values, kind: str = "betti", *, window: int = 6) -> GrowthEstimate:
    """Classify a value sequence as poly(d), exponential or inconclusive.

    Exponential means every consecutive ratio in the tail window is at
    least 1 + GROWTH_RATIO_EPS; otherwise the degree is round(1 + slope)
    from a log-log fit over the window.  Short or mixed-zero tails are
    inconclusive.  A window needs at least two values: one value has no
    ratio to test.
    """
    if window < 2:
        raise ModuleError(f"growth window must be at least 2, got {window}")
    vals = [int(v) for v in values]
    base = GrowthEstimate(kind, tuple(vals), window, False, None, "inconclusive")
    if len(vals) < window:
        base.verdict = "inconclusive"
        base.note = f"need at least {window} values, got {len(vals)}"
        return base
    tail = vals[-window:]
    first_index = len(vals) - window      # values[0] is the index-0 term
    if all(v == 0 for v in tail):
        base.fitted_degree = 0
        base.verdict = "poly(0)"
        return base
    if any(v == 0 for v in tail):
        base.verdict = "inconclusive"
        base.note = "tail mixes zero and nonzero values"
        return base
    if all(tail[i + 1] >= (1.0 + GROWTH_RATIO_EPS) * tail[i] for i in range(len(tail) - 1)):
        base.exponential_flag = True
        base.verdict = "exponential"
        return base
    xs = np.log(np.arange(first_index, first_index + window, dtype=np.float64)
                .clip(min=1.0))
    ys = np.log(np.array(tail, dtype=np.float64))
    slope = float(np.polyfit(xs, ys, 1)[0])
    degree = max(0, round(1.0 + slope))
    base.fitted_degree = degree
    base.verdict = f"poly({degree})"
    return base


def betti_growth(mod: ModuleRep, bound: int = 12, **kw) -> GrowthEstimate:
    betti = resolution_of(mod).betti_numbers(bound)
    return growth_estimate(betti, "betti", **kw)


def bass_growth(mod: ModuleRep, bound: int = 8, **kw) -> GrowthEstimate:
    return growth_estimate(bass_numbers(mod, bound), "bass", **kw)


def ext_length_growth(mod: ModuleRep, bound: int = 12, **kw) -> GrowthEstimate:
    dims = ext_dims(mod, ring_module(mod.algebra), bound).dims
    return growth_estimate(dims, "ext_lengths", **kw)


# -- bundled cross-checks ----------------------------------------------------

def syzygy_betti_inequality(source: ModuleRep, middle: ModuleRep, n: int,
                            imax: int) -> dict:
    """beta_{i+n}(X) <= beta_i(N) + beta_{i-1}(X) for 0 <= i <= imax.

    This is the Betti comparison induced by 0 -> X -> N -> syz^n X -> 0.
    """
    bx = resolution_of(source).betti_numbers(imax + n)
    bn = resolution_of(middle).betti_numbers(imax)
    checks = []
    ok = True
    for i in range(imax + 1):
        lhs = bx[i + n]
        rhs = bn[i] + (bx[i - 1] if i >= 1 else 0)
        checks.append({"i": i, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs})
        ok = ok and lhs <= rhs
    return {"ok": ok, "imax": imax, "checks": checks}


def upper_reduction_vs_complexity(mod: ModuleRep, limits: SearchLimits | None = None,
                                  *, bound: int = 12) -> dict:
    """Compare the complexity estimate with an upper-reduction search (pd).

    When a witness of depth s exists the complexity estimate must be at
    most s; each witness step is additionally checked against the
    syzygy Betti inequality for i <= BETTI_IMAX.
    """
    limits = limits or SearchLimits()
    cx = betti_growth(mod, bound)
    search = search_reducing(mod, "ured", "pd", limits)
    report = {"cx_estimate": cx.to_jsonable(),
              "search": search.to_jsonable(),
              "betti_inequalities": [],
              "consistent": True}
    if search.found:
        depth = search.witness.depth
        if cx.is_finite:
            report["consistent"] = cx.fitted_degree <= depth
        current = mod
        for step in search.witness.steps:
            if step.a == 1 and step.b == 1:
                ineq = syzygy_betti_inequality(current, step.middle, step.n, BETTI_IMAX)
                report["betti_inequalities"].append(ineq)
                report["consistent"] = report["consistent"] and ineq["ok"]
            current = step.middle
    else:
        note = "no witness found; consistent with any complexity value"
        if search.exhaustive and cx.is_finite and cx.fitted_degree <= limits.max_steps:
            note = ("exhaustive search below the complexity estimate found no "
                    "witness; limits may be too tight or the estimate high")
        report["note"] = note
    return report


def upper_reduction_vs_gorenstein_complexity(mod: ModuleRep,
                                             limits: SearchLimits | None = None,
                                             *, bound: int = 8) -> dict:
    """Gorenstein-side comparison: gcx estimate vs upper-reduction (gdim) search.

    Also reports the plexity estimate of the ring (Bass number growth)
    and the residue-field instance tying finite upper reducing
    G-dimension of k to finite plexity.  Ext lengths and Bass numbers
    are both read to the bound.
    """
    limits = limits or SearchLimits()
    alg = mod.algebra
    gcx = ext_length_growth(mod, bound)
    search = search_reducing(mod, "ured", "gdim", limits)
    px_ring = bass_growth(ring_module(alg), bound)
    k = simple_module(alg)
    k_search = search if mod is k else search_reducing(k, "ured", "gdim", limits)
    consistent = True
    if search.found and gcx.is_finite:
        consistent = gcx.fitted_degree <= search.witness.depth
    plexity_instance = {
        "k_ured_gdim": k_search.to_jsonable(),
        "ring_plexity_estimate": px_ring.to_jsonable(),
        "implication": ("finite upper reducing G-dimension of k implies finite "
                        "ring plexity"),
        # only a witness for k against an exponential estimate contradicts;
        # an inconclusive estimate contradicts nothing, as in thm4
        "instance_consistent": not (k_search.found and px_ring.verdict == "exponential"),
    }
    return {"gcx_estimate": gcx.to_jsonable(),
            "search": search.to_jsonable(),
            "ring_plexity": px_ring.to_jsonable(),
            "plexity_instance": plexity_instance,
            "consistent": consistent and plexity_instance["instance_consistent"]}
