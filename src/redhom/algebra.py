"""Finite-dimensional commutative local algebras over GF(p).

An algebra is stored as a basis with a full multiplication table.  The
first basis element is always the unit, and the span of the remaining
elements must be a nilpotent ideal (the maximal ideal m), so every
algebra here is artinian local with residue field GF(p).

Two constructions are supported: quotients of a polynomial ring by a
monomial ideal containing a pure power of each variable, and raw
structure-constant tables which are validated axiom by axiom with an
explicit witness on failure.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import gf


class AlgebraError(ValueError):
    """Invalid ring input; carries the violated axiom and a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RingSpec:
    """Input document describing a ring, mirroring the JSON schema."""

    def __init__(self, mode: str, p: int, *, variables=None, ideal=None,
                 labels=None, products=None, table=None, gens=None,
                 ci: bool | None = None, name: str | None = None):
        if mode not in ("monomial_quotient", "structure_constants"):
            raise AlgebraError(f"unknown ring spec mode {mode!r}")
        self.mode = mode
        self.p = int(p)
        self.variables = list(variables or [])
        self.ideal = list(ideal or [])
        self.labels = list(labels or [])
        self.products = dict(products or {})
        self.table = table
        self.gens = list(gens) if gens is not None else None
        self.ci = ci
        self.name = name

    @classmethod
    def from_dict(cls, d: dict) -> "RingSpec":
        known = {"mode", "p", "variables", "ideal", "labels", "products",
                 "table", "gens", "ci", "name"}
        unknown = set(d) - known
        if unknown:
            raise AlgebraError(f"unknown ring spec fields {sorted(unknown)}")
        if "mode" not in d or "p" not in d:
            raise AlgebraError("ring spec requires 'mode' and 'p'")
        return cls(d["mode"], d["p"], variables=d.get("variables"),
                   ideal=d.get("ideal"), labels=d.get("labels"),
                   products=d.get("products"), table=d.get("table"),
                   gens=d.get("gens"), ci=d.get("ci"), name=d.get("name"))

    def to_dict(self) -> dict:
        out = {"mode": self.mode, "p": self.p}
        if self.name:
            out["name"] = self.name
        if self.mode == "monomial_quotient":
            out["variables"] = list(self.variables)
            out["ideal"] = list(self.ideal)
        else:
            out["labels"] = list(self.labels)
            out["products"] = {k: (dict(v) if isinstance(v, dict) else v)
                               for k, v in self.products.items()}
            if self.table is not None:
                out["table"] = [[list(vec) for vec in row] for row in self.table]
            if self.gens is not None:
                out["gens"] = list(self.gens)
            if self.ci is not None:
                out["ci"] = self.ci
        return out


def _parse_monomial(text: str, variables: list[str]) -> tuple[int, ...]:
    """Parse 'x^2*y', 'x^2 y' or (for single-letter variables) 'xy'."""
    exps = [0] * len(variables)
    index = {v: i for i, v in enumerate(variables)}
    text = text.strip()
    if text in ("1", ""):
        return tuple(exps)
    for token in text.replace("*", " ").split():
        if "^" in token:
            base, _, power = token.partition("^")
            if base in index and power.isdigit():
                exps[index[base]] += int(power)
                continue
        if token in index:
            exps[index[token]] += 1
            continue
        # single-letter variable run such as 'xy' or 'x2y'
        if all(len(v) == 1 for v in variables):
            i = 0
            ok = True
            while i < len(token):
                ch = token[i]
                if ch not in index:
                    ok = False
                    break
                i += 1
                digits = ""
                if i < len(token) and token[i] == "^":
                    i += 1
                while i < len(token) and token[i].isdigit():
                    digits += token[i]
                    i += 1
                exps[index[ch]] += int(digits) if digits else 1
            if ok:
                continue
        raise AlgebraError(f"cannot parse monomial {text!r} over variables {variables}",
                           witness=token)
    return tuple(exps)


def _format_monomial(exps: tuple[int, ...], variables: list[str]) -> str:
    parts = []
    for v, e in zip(variables, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


class AlgebraRep:
    """A validated commutative local GF(p)-algebra with chosen generators.

    Attributes of interest:

    * ``table[i, j]`` is the coefficient vector of ``e_i * e_j``;
    * ``gens`` are the coefficient vectors of the distinguished
      generators of the maximal ideal (module actions are given per
      generator);
    * ``words`` encodes, for each basis element, how to reach it as a
      product of generators, which is what lets a module reconstruct
      the action of an arbitrary ring element from its generator
      actions.
    """

    def __init__(self, p: int, basis_labels: list[str], table: np.ndarray,
                 gens: np.ndarray, gen_labels: list[str],
                 grading=None, declared_ci: bool | None = None,
                 spec: RingSpec | None = None, monomial_ci: bool | None = None):
        self.p = gf.check_modulus(p)
        self.dim = len(basis_labels)
        self.basis_labels = tuple(basis_labels)
        table = np.asarray(table, dtype=np.int64) % self.p
        if table.shape != (self.dim, self.dim, self.dim):
            raise AlgebraError(f"table shape {table.shape} does not match dimension {self.dim}")
        table.flags.writeable = False
        self.table = table
        gens = np.asarray(gens, dtype=np.int64).reshape(-1, self.dim) % self.p
        gens.flags.writeable = False
        self.gens = gens
        self.num_gens = gens.shape[0]
        self.gen_labels = tuple(gen_labels)
        self.grading = tuple(grading) if grading is not None else None
        self.declared_ci = declared_ci
        self.spec = spec
        self._cache: dict = {}

        # left multiplication matrices: L[i] @ v = coords of e_i * v
        self.left_mult = np.ascontiguousarray(table.transpose(0, 2, 1))
        self.validate()

        socle_rows, _ = self.socle()
        self.socle_dim = socle_rows.shape[0]
        self.is_field = self.dim == 1
        self.is_gorenstein = self.socle_dim == 1
        if monomial_ci is not None:
            self.is_monomial_ci = monomial_ci
        else:
            self.is_monomial_ci = False
        self.words = self._build_words()

    # -- elementary operations -------------------------------------------

    def mult(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product of two elements given as coefficient vectors."""
        v = np.asarray(v, dtype=np.int64) % self.p
        return gf.mat_mul(self.L_of(u), v[:, None], self.p)[:, 0]

    def L_of(self, v: np.ndarray) -> np.ndarray:
        """The matrix of multiplication by the element v."""
        return gf.lincomb(v, self.left_mult, self.p)

    def gen_L(self, j: int) -> np.ndarray:
        key = ("gen_L", j)
        if key not in self._cache:
            self._cache[key] = self.L_of(self.gens[j])
        return self._cache[key]

    def unit(self) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[0] = 1
        return e

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Check unitality, commutativity, associativity and locality.

        Raises AlgebraError with a witness basis pair/triple on failure.
        """
        d = self.dim
        if d == 0:
            raise AlgebraError("algebra must contain the unit, dimension 0 given")
        eye = np.eye(d, dtype=np.int64)
        if not (self.table[0] == eye).all():
            j = int(np.nonzero((self.table[0] != eye).any(axis=1))[0][0])
            raise AlgebraError(
                f"basis element {self.basis_labels[0]!r} is not a left unit on "
                f"{self.basis_labels[j]!r}", witness=(0, j))
        for i in range(d):
            for j in range(i + 1, d):
                if not (self.table[i, j] == self.table[j, i]).all():
                    raise AlgebraError(
                        f"multiplication not commutative on "
                        f"({self.basis_labels[i]}, {self.basis_labels[j]})",
                        witness=(i, j))
        for i, j, k in itertools.product(range(1, d), repeat=3):
            left = self.mult(self.table[i, j], eye[k])
            right = self.mult(eye[i], self.table[j, k])
            if not (left == right).all():
                raise AlgebraError(
                    f"multiplication not associative on "
                    f"({self.basis_labels[i]}, {self.basis_labels[j]}, {self.basis_labels[k]})",
                    witness=(i, j, k))
        # span(basis[1:]) must be an ideal: no product of non-units hits the unit
        if d > 1:
            bad = np.nonzero(self.table[1:, 1:, 0])
            if bad[0].size:
                i, j = int(bad[0][0]) + 1, int(bad[1][0]) + 1
                raise AlgebraError(
                    f"product {self.basis_labels[i]} * {self.basis_labels[j]} has a unit "
                    "component, so the non-unit span is not an ideal", witness=(i, j))
        # nilpotency of m
        rows = np.eye(d, dtype=np.int64)[1:]
        steps = 0
        while rows.shape[0] and steps <= d:
            prods = np.vstack([gf.mat_mul(rows, self.table[a], self.p)
                               for a in range(1, d)])
            rows, _ = gf.row_basis(prods, self.p)
            steps += 1
        if rows.shape[0]:
            raise AlgebraError(
                "maximal ideal is not nilpotent (algebra is not local)",
                witness=steps)
        # generators must generate m as an ideal
        for g in self.gens:
            if g[0] % self.p != 0:
                raise AlgebraError("a distinguished generator has a unit component",
                                   witness=g.tolist())
        span = self.gens.copy().reshape(-1, d)
        span, _ = gf.row_basis(span, self.p)
        while span.shape[0]:
            prods = np.vstack([gf.mat_mul(span, self.table[a], self.p)
                               for a in range(1, d)]) if d > 1 else np.zeros((0, d), dtype=np.int64)
            bigger, _ = gf.row_basis(np.vstack([span, prods]), self.p)
            if bigger.shape[0] == span.shape[0]:
                break
            span = bigger
        if span.shape[0] != d - 1:
            raise AlgebraError(
                f"distinguished generators span an ideal of dimension "
                f"{span.shape[0]}, expected {d - 1}", witness=span.tolist())

    # -- structure --------------------------------------------------------

    def socle(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Canonical row basis of {a : m * a = 0}."""
        if "socle" not in self._cache:
            if self.num_gens == 0:
                stacked = np.zeros((0, self.dim), dtype=np.int64)
            else:
                stacked = np.vstack([self.gen_L(j) for j in range(self.num_gens)])
            k, _ = gf.kernel(stacked, self.p)
            self._cache["socle"] = gf.row_basis(k.T, self.p)
        return self._cache["socle"]

    def radical_power_dims(self) -> list[int]:
        """Dimensions of m, m^2, ... down to zero."""
        dims = []
        rows = np.eye(self.dim, dtype=np.int64)[1:]
        while rows.shape[0]:
            dims.append(rows.shape[0])
            prods = np.vstack([gf.mat_mul(rows, self.table[a], self.p)
                               for a in range(1, self.dim)])
            rows, _ = gf.row_basis(prods, self.p)
        return dims

    def _build_words(self):
        """Spanning set of generator words, one per basis dimension.

        Each entry is (parent_index, generator_index); the root word is
        the empty product (the unit).  The vectors of the chosen words
        form an invertible matrix, so any ring element has unique
        coordinates over them; ``word_coords`` solves for them.
        """
        d = self.dim
        words = [(-1, -1)]
        vecs = [self.unit()]
        rows, piv = gf.row_basis(np.array(vecs), self.p)
        frontier = [0]
        while len(words) < d and frontier:
            new_frontier = []
            for w in frontier:
                for j in range(self.num_gens):
                    v = self.mult(vecs[w], self.gens[j])
                    if gf.in_rowspace(rows, piv, v[:, None], self.p):
                        continue
                    words.append((w, j))
                    vecs.append(v)
                    new_frontier.append(len(words) - 1)
                    rows, piv = gf.row_basis(np.vstack([rows, v[None, :]]), self.p)
                    if len(words) == d:
                        break
                if len(words) == d:
                    break
            frontier = new_frontier
        if len(words) != d:
            raise AlgebraError(
                "generator words do not span the algebra", witness=len(words))
        self.word_vecs = np.array(vecs, dtype=np.int64)
        # coords of each basis element over the word vectors
        coords = gf.solve(self.word_vecs.T, np.eye(d, dtype=np.int64), self.p)
        if coords is None:
            raise AssertionError("generator words must span the algebra")
        self.word_coords = coords
        return tuple(words)

    def to_jsonable(self) -> dict:
        out = {
            "p": self.p,
            "dim": self.dim,
            "basis_labels": list(self.basis_labels),
            "gen_labels": list(self.gen_labels),
            "socle_dim": self.socle_dim,
            "is_gorenstein": self.is_gorenstein,
            "is_field": self.is_field,
            "is_monomial_ci": self.is_monomial_ci,
        }
        if self.declared_ci is not None:
            out["declared_ci"] = self.declared_ci
        if self.grading is not None:
            out["grading"] = list(self.grading)
        if self.spec is not None:
            out["spec"] = self.spec.to_dict()
        return out

    def full_jsonable(self) -> dict:
        out = self.to_jsonable()
        out["table"] = self.table.tolist()
        out["gens"] = self.gens.tolist()
        return out

    def __repr__(self):
        name = self.spec.name if self.spec and self.spec.name else "algebra"
        return f"AlgebraRep({name}, p={self.p}, dim={self.dim})"


def build_monomial_quotient(spec: RingSpec) -> AlgebraRep:
    """Quotient of GF(p)[variables] by a monomial ideal, basis = standard monomials."""
    if spec.mode != "monomial_quotient":
        raise AlgebraError(f"expected monomial_quotient spec, got {spec.mode!r}")
    p = gf.check_modulus(spec.p)
    variables = list(spec.variables)
    if len(set(variables)) != len(variables):
        raise AlgebraError("duplicate variable names")
    gens_exps = [_parse_monomial(m, variables) for m in spec.ideal]
    for e in gens_exps:
        if sum(e) == 0:
            raise AlgebraError("monomial ideal contains 1, quotient is the zero ring")
    # finite dimension requires a pure power of every variable
    bounds = []
    for i, v in enumerate(variables):
        powers = [e[i] for e in gens_exps if e[i] > 0 and sum(e) == e[i]]
        if not powers:
            raise AlgebraError(
                f"ideal contains no pure power of variable {v!r}; "
                "the quotient is infinite-dimensional", witness=v)
        bounds.append(min(powers))

    def in_ideal(exps):
        return any(all(exps[i] >= g[i] for i in range(len(variables)))
                   for g in gens_exps)

    boxes = [range(b) for b in bounds] if variables else []
    standard = [e for e in itertools.product(*boxes) if not in_ideal(e)] if variables else [()]
    standard.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    if not standard or standard[0] != tuple([0] * len(variables)):
        raise AlgebraError("internal: unit monomial missing from the standard basis")
    index = {e: i for i, e in enumerate(standard)}
    d = len(standard)
    table = np.zeros((d, d, d), dtype=np.int64)
    for i, ei in enumerate(standard):
        for j, ej in enumerate(standard):
            prod = tuple(a + b for a, b in zip(ei, ej))
            if not in_ideal(prod) and prod in index:
                table[i, j, index[prod]] = 1
    labels = [_format_monomial(e, variables) for e in standard]
    gens = np.zeros((len(variables), d), dtype=np.int64)
    for i in range(len(variables)):
        var_exp = tuple(1 if t == i else 0 for t in range(len(variables)))
        if var_exp in index:
            gens[i, index[var_exp]] = 1
        # a variable killed by the ideal is the zero generator
    grading = [sum(e) for e in standard]
    minimal = [g for g in gens_exps
               if not any(g != h and all(g[i] >= h[i] for i in range(len(variables)))
                          for h in gens_exps)]
    monomial_ci = bool(variables) and all(sum(g) == max(g, default=0) for g in minimal) and \
        len({tuple(g) for g in minimal}) == len(variables)
    if not variables:
        monomial_ci = False
    return AlgebraRep(p, labels, table, gens, list(variables), grading=grading,
                      declared_ci=spec.ci, spec=spec, monomial_ci=monomial_ci)


def build_from_structure_constants(spec: RingSpec) -> AlgebraRep:
    """Algebra from an explicit table; every axiom is checked with a witness.

    Products may be given as a full dim x dim x dim nested list, or as a
    sparse dict 'a,b' -> {label: coefficient} with omitted non-unit
    products defaulting to zero (unit products are implied).
    """
    if spec.mode != "structure_constants":
        raise AlgebraError(f"expected structure_constants spec, got {spec.mode!r}")
    p = gf.check_modulus(spec.p)
    labels = list(spec.labels)
    if not labels:
        raise AlgebraError("structure constants need basis labels")
    if len(set(labels)) != len(labels):
        raise AlgebraError("duplicate basis labels")
    d = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if spec.table is not None:
        table = np.asarray(spec.table, dtype=np.int64)
        if table.shape != (d, d, d):
            raise AlgebraError(f"table shape {table.shape} does not match {d} labels")
        table = table % p
    else:
        table = np.zeros((d, d, d), dtype=np.int64)
        table[0] = np.eye(d, dtype=np.int64)
        table[:, 0] = np.eye(d, dtype=np.int64)
        for key, value in spec.products.items():
            names = [s.strip() for s in key.replace("*", ",").split(",") if s.strip()]
            if len(names) != 2 or any(n not in index for n in names):
                raise AlgebraError(f"bad product key {key!r}", witness=key)
            i, j = index[names[0]], index[names[1]]
            vec = np.zeros(d, dtype=np.int64)
            if isinstance(value, str):
                value = {value: 1}
            if isinstance(value, dict):
                for lab, coeff in value.items():
                    if lab not in index:
                        raise AlgebraError(f"unknown label {lab!r} in product {key!r}",
                                           witness=key)
                    vec[index[lab]] = int(coeff) % p
            elif value in (0, None):
                pass
            else:
                raise AlgebraError(f"bad product value for {key!r}", witness=key)
            table[i, j] = vec
            table[j, i] = vec
    gen_labels = spec.gens if spec.gens is not None else labels[1:]
    for lab in gen_labels:
        if lab not in index:
            raise AlgebraError(f"unknown generator label {lab!r}", witness=lab)
    gens = np.zeros((len(gen_labels), d), dtype=np.int64)
    for t, lab in enumerate(gen_labels):
        gens[t, index[lab]] = 1
    return AlgebraRep(p, labels, table, gens, list(gen_labels),
                      declared_ci=spec.ci, spec=spec)


def build_ring(spec: RingSpec) -> AlgebraRep:
    if spec.mode == "monomial_quotient":
        return build_monomial_quotient(spec)
    return build_from_structure_constants(spec)


def socle_and_classify(algebra: AlgebraRep) -> dict:
    """Socle dimension and the derived ring class flags."""
    return {
        "socle_dim": algebra.socle_dim,
        "is_gorenstein": algebra.is_gorenstein,
        "is_field": algebra.is_field,
        "is_monomial_ci": algebra.is_monomial_ci,
    }
