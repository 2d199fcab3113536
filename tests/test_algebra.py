import itertools

import numpy as np
import pytest

from redhom.algebra import (
    AlgebraError,
    RingSpec,
    build_from_structure_constants,
    build_monomial_quotient,
    build_ring,
    cached,
    socle_and_classify,
)


def ring_spec(**kw):
    return RingSpec.from_dict(kw)


def two_var_square_zero(p=5):
    return build_monomial_quotient(ring_spec(
        mode="monomial_quotient", p=p, variables=["x", "y"],
        ideal=["x^2", "xy", "y^2"]))


def truncated_line(p=5, e=2):
    return build_monomial_quotient(ring_spec(
        mode="monomial_quotient", p=p, variables=["x"], ideal=[f"x^{e}"]))


def brute_socle_dim(alg):
    """Oracle: annihilator of m by exhaustive enumeration (small p, dim)."""
    count = 0
    for coeffs in itertools.product(range(alg.p), repeat=alg.dim):
        v = np.array(coeffs, dtype=np.int64)
        if all(not alg.mult(g, v).any() for g in alg.gens):
            count += 1
    dim = 0
    while alg.p**dim < count:
        dim += 1
    assert alg.p**dim == count
    return dim


def test_two_var_square_zero_shape():
    alg = two_var_square_zero()
    assert alg.dim == 3
    assert list(alg.basis_labels) == ["1", "x", "y"]
    assert brute_socle_dim(alg) == 2
    assert alg.socle_dim == 2
    assert not alg.is_gorenstein
    assert not alg.is_monomial_ci
    assert alg.grading == (0, 1, 1)


def test_truncated_line_flags():
    alg = truncated_line()
    assert alg.dim == 2
    assert brute_socle_dim(alg) == 1
    assert alg.is_gorenstein
    assert alg.is_monomial_ci
    assert not alg.is_field


def test_field_case():
    alg = build_monomial_quotient(ring_spec(
        mode="monomial_quotient", p=2, variables=[], ideal=[]))
    assert alg.dim == 1
    assert alg.is_field
    assert alg.is_gorenstein
    assert alg.socle_dim == 1


def test_infinite_quotient_rejected_names_variable():
    with pytest.raises(AlgebraError) as err:
        build_monomial_quotient(ring_spec(
            mode="monomial_quotient", p=5, variables=["x", "y"], ideal=["x^2", "xy"]))
    assert err.value.witness == "y"


def test_mult_table_matches_monomials():
    alg = build_monomial_quotient(ring_spec(
        mode="monomial_quotient", p=5, variables=["x", "y"], ideal=["x^2", "y^2"]))
    assert list(alg.basis_labels) == ["1", "x", "y", "x*y"]
    x, y = np.eye(4, dtype=np.int64)[1], np.eye(4, dtype=np.int64)[2]
    assert alg.mult(x, y).tolist() == [0, 0, 0, 1]
    assert not alg.mult(x, x).any()
    assert alg.is_monomial_ci and alg.is_gorenstein


def test_structure_constants_matches_monomial_build():
    mono = truncated_line()
    manual = build_from_structure_constants(ring_spec(
        mode="structure_constants", p=5, labels=["1", "x"], products={"x,x": 0}))
    assert manual.dim == mono.dim
    assert (manual.table == mono.table).all()
    assert manual.is_gorenstein


def gorenstein_5dim_spec(p=5):
    return ring_spec(
        mode="structure_constants", p=p, labels=["1", "x", "y", "z", "w"],
        products={"x,x": "w", "y,y": "w", "z,z": "w"},
        gens=["x", "y", "z"])


def test_structure_constants_gorenstein_5dim():
    alg = build_from_structure_constants(gorenstein_5dim_spec())
    assert alg.dim == 5
    assert alg.socle_dim == 1
    assert alg.is_gorenstein
    assert brute_socle_dim(alg) == 1
    assert alg.is_monomial_ci is False
    assert alg.declared_ci is None


def test_non_commutative_table_rejected_with_witness():
    table = np.zeros((3, 3, 3), dtype=np.int64)
    table[0] = np.eye(3, dtype=np.int64)
    table[:, 0] = np.eye(3, dtype=np.int64)
    table[1, 2, 1] = 1  # x*y = x but y*x = 0
    with pytest.raises(AlgebraError) as err:
        build_from_structure_constants(ring_spec(
            mode="structure_constants", p=5, labels=["1", "x", "y"],
            table=table.tolist()))
    assert err.value.witness == (1, 2)
    assert "commutative" in str(err.value)


def test_non_associative_table_rejected():
    # x*x = y, x*y = 1 breaks locality/associativity; locality fires first
    with pytest.raises(AlgebraError):
        build_from_structure_constants(ring_spec(
            mode="structure_constants", p=5, labels=["1", "x", "y"],
            products={"x,x": "y", "x,y": "1"}))


def test_non_nilpotent_rejected():
    # idempotent e: e*e = e makes span(e) a non-nilpotent ideal
    with pytest.raises(AlgebraError) as err:
        build_from_structure_constants(ring_spec(
            mode="structure_constants", p=5, labels=["1", "e"],
            products={"e,e": "e"}))
    assert "nilpotent" in str(err.value)
    assert err.value.witness == 3      # m^3 != 0 in a 2-dimensional algebra


def test_unit_acts_as_identity_everywhere():
    for alg in (two_var_square_zero(), truncated_line(),
                build_from_structure_constants(gorenstein_5dim_spec())):
        unit = alg.unit()
        for i in range(alg.dim):
            e = np.eye(alg.dim, dtype=np.int64)[i]
            assert (alg.mult(unit, e) == e).all()


def test_radical_nilpotency_dims():
    alg = build_from_structure_constants(gorenstein_5dim_spec())
    assert alg.radical_power_dims() == [4, 1]


def test_rebuild_roundtrip_is_identity():
    alg = two_var_square_zero()
    rebuilt = build_ring(RingSpec.from_dict(alg.spec.to_dict()))
    assert rebuilt.basis_labels == alg.basis_labels
    assert (rebuilt.table == alg.table).all()
    assert (rebuilt.gens == alg.gens).all()


@pytest.mark.parametrize("e", range(2, 10))
def test_gorenstein_truncated_lines(e):
    assert truncated_line(e=e).is_gorenstein


def test_socle_and_classify_report():
    got = socle_and_classify(two_var_square_zero())
    assert got == {"socle_dim": 2, "is_gorenstein": False,
                   "is_field": False, "is_monomial_ci": False}
    got = socle_and_classify(build_monomial_quotient(ring_spec(
        mode="monomial_quotient", p=5, variables=["x", "y"], ideal=["x^2", "y^2"])))
    assert got == {"socle_dim": 1, "is_gorenstein": True,
                   "is_field": False, "is_monomial_ci": True}


def test_words_express_every_basis_element():
    for alg in (two_var_square_zero(), truncated_line(),
                build_from_structure_constants(gorenstein_5dim_spec())):
        assert len(alg.words) == alg.dim
        # word_coords really solves: word_vecs^T @ coords == identity
        eye = np.eye(alg.dim, dtype=np.int64)
        got = (alg.word_vecs.T @ alg.word_coords) % alg.p
        assert (got == eye).all()


def test_declared_ci_is_reported_not_inferred():
    spec = gorenstein_5dim_spec()
    spec.ci = False
    alg = build_from_structure_constants(spec)
    assert alg.declared_ci is False
    assert alg.is_monomial_ci is False


class _Owner:
    """An object with derived data: counts how often each value is computed."""

    def __init__(self, label):
        self._cache = {}
        self.label = label
        self.computed = []

    @cached
    def value(self, *args):
        self.computed.append(args)
        if args == ("fail",):
            raise ValueError("not stored")
        return (self.label,) + args


@cached
def _doubled(owner):
    owner.computed.append("doubled")
    return owner.label * 2


def test_cached_computes_once_per_object_and_arguments():
    owner = _Owner("a")
    assert owner.value() == ("a",) and owner.value() == ("a",)
    assert owner.value(1) == ("a", 1) and owner.value(1) == ("a", 1)
    assert owner.value(2) == ("a", 2)
    assert _doubled(owner) == "aa" and _doubled(owner) == "aa"
    assert owner.computed == [(), (1,), (2,), "doubled"]
    assert owner.value.__name__ == "value" and _doubled.__name__ == "_doubled"


def test_cached_values_are_not_shared_between_objects():
    one, two = _Owner("a"), _Owner("b")
    assert (one.value(), two.value()) == (("a",), ("b",))
    assert (_doubled(one), _doubled(two)) == ("aa", "bb")
    assert one.computed == [(), "doubled"] and two.computed == [(), "doubled"]


def test_cached_does_not_store_an_exception():
    owner = _Owner("a")
    for _ in range(2):
        with pytest.raises(ValueError, match="not stored"):
            owner.value("fail")
    assert owner.computed == [("fail",), ("fail",)]
