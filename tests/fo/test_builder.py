"""Tests for the fluent query builder."""

import pytest

from repro.fo.builder import Q
from repro.fo.parser import parse
from repro.fo.syntax import DistAtom, Exists, ExistsNear, RelAtom, Var

x, y, z = Q.vars("x", "y", "z")


class TestAtoms:
    def test_dynamic_atom_factory(self):
        assert Q.B(x) == RelAtom("B", (x,))
        assert Q.E(x, y) == RelAtom("E", (x, y))
        assert Q.Likes("x", "y") == RelAtom("Likes", (Var("x"), Var("y")))

    def test_explicit_atom(self):
        assert Q.atom("E", x, y) == RelAtom("E", (x, y))

    def test_atom_needs_args(self):
        with pytest.raises(TypeError):
            Q.B()

    def test_equality_helpers(self):
        assert Q.eq(x, y) == parse("x = y")
        assert Q.neq(x, y) == parse("x != y")

    def test_distance_helpers(self):
        assert Q.near(x, y, 2) == DistAtom(x, y, 2, within=True)
        assert Q.far(x, y, 2) == DistAtom(x, y, 2, within=False)

    def test_constants(self):
        assert Q.true == parse("true")
        assert Q.false == parse("false")


class TestCompose:
    def test_example_23(self):
        built = Q.B(x) & Q.R(y) & ~Q.E(x, y)
        assert built == parse("B(x) & R(y) & ~E(x,y)")

    def test_disjunction(self):
        assert (Q.B(x) | Q.R(x)) == parse("B(x) | R(x)")

    def test_implies(self):
        assert Q.implies(Q.B(x), Q.R(x)) == parse("B(x) -> R(x)")

    def test_all_of_any_of(self):
        assert Q.all_of(Q.B(x), Q.R(y)) == parse("B(x) & R(y)")
        assert Q.any_of(Q.B(x), Q.R(x), Q.B(y)) == parse("B(x) | R(x) | B(y)")

    def test_quantifiers(self):
        built = Q.exists(z, Q.E(x, z) & Q.R(z))
        assert built == parse("exists z. E(x,z) & R(z)")
        assert isinstance(built, Exists)
        assert Q.forall(z, Q.implies(Q.E(x, z), Q.B(z))) == parse(
            "forall z. E(x,z) -> B(z)"
        )

    def test_relativized_quantifiers(self):
        built = Q.exists_near(z, (x,), 2, Q.R(z))
        assert built == parse("exists z in N2(x). R(z)")
        assert isinstance(built, ExistsNear)
        assert Q.forall_near(z, (x, y), 1, Q.B(z)) == parse(
            "forall z in N1(x,y). B(z)"
        )

    def test_q_not_instantiable(self):
        with pytest.raises(TypeError):
            Q()

    def test_builder_queries_run_through_pipeline(self, small_colored):
        from repro import Database
        from repro.fo.semantics import naive_answers

        query = Q.B(x) & Q.R(y) & ~Q.E(x, y)
        with Database(small_colored) as db:
            got = db.query(query, order=(x, y)).answers().all()
        assert sorted(got) == sorted(
            naive_answers(query, small_colored, order=(x, y))
        )
