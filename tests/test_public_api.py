"""Tests for the top-level ``repro`` package surface."""

import pytest

import repro
from repro import Database, Q, Signature, Structure, Var, model_check, parse


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_all_matches_what_actually_imports(self):
        """``__all__`` is exactly the public surface: every listed name
        resolves (eager or lazy), nothing is listed twice, and every
        public module-level attribute is listed."""
        assert len(repro.__all__) == len(set(repro.__all__)), "duplicate export"
        resolved = {name: getattr(repro, name) for name in repro.__all__}
        assert all(value is not None for value in resolved.values())
        # Lazy exports must also all be listed in __all__.
        for lazy_name in repro._LAZY_EXPORTS:
            assert lazy_name in repro.__all__, f"{lazy_name} missing from __all__"
        public_attributes = {
            name
            for name, value in vars(repro).items()
            if not name.startswith("_")
            and not isinstance(value, type(repro))  # sub-modules aren't API
        }
        undeclared = public_attributes - set(repro.__all__)
        assert not undeclared, f"public names missing from __all__: {undeclared}"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_thing
        with pytest.raises(AttributeError):
            repro.errors.NoSuchError

    def test_removed_front_ends_are_gone(self):
        for name in ("prepare", "QueryBatch", "AsyncQueryBatch", "ResultCancelledError"):
            assert not hasattr(repro, name), name

    def test_dynamic_query_lazy_import(self):
        from repro.core.dynamic import DynamicQuery

        assert repro.DynamicQuery is DynamicQuery

    def test_session_exports_lazy_import(self):
        from repro.session import Answers, Database, Query, QueryPlan

        assert repro.Database is Database
        assert repro.Query is Query
        assert repro.Answers is Answers
        assert repro.QueryPlan is QueryPlan

    def test_session_package_all_resolves(self):
        import repro.session

        for name in repro.session.__all__:
            assert getattr(repro.session, name) is not None

    def test_engine_package_all_resolves(self):
        import repro.engine

        for name in repro.engine.__all__:
            assert getattr(repro.engine, name) is not None

    def test_py_typed_marker_ships(self):
        import pathlib

        package_dir = pathlib.Path(repro.__file__).parent
        assert (package_dir / "py.typed").is_file()


class TestTopLevelHelpers:
    @pytest.fixture
    def db(self):
        structure = Structure(Signature.of(E=2, B=1, R=1), range(4))
        structure.add_fact("B", 0)
        structure.add_fact("R", 2)
        structure.add_fact("E", 0, 2)
        structure.add_fact("E", 2, 0)
        return structure

    def test_database_roundtrip(self, db):
        with Database(db) as session:
            query = session.query("B(x) & R(y) & ~E(x,y)")
            assert query.count() == 0  # the only blue-red pair is an edge
            assert not query.test((0, 2))

    def test_model_check_accepts_text(self, db):
        assert model_check("exists x. B(x)", db)
        assert not model_check("forall x. B(x)", db)

    def test_builder_and_parser_agree(self, db):
        x, y = Q.vars("x", "y")
        built = Q.B(x) & Q.R(y) & ~Q.E(x, y)
        assert built == parse("B(x) & R(y) & ~E(x,y)")

    def test_docstring_quickstart_runs(self, db):
        # The module docstring's example, executed literally.
        from repro import Database

        with Database(db) as session:
            query = session.query("B(x) & R(y) & ~E(x,y)")
            assert query.count() == len(list(query.answers()))
            session.insert_fact("E", 0, 2)
            assert query.count() == len(list(query.answers()))
