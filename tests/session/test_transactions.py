"""Transactional batch updates: atomicity, validation, rollback, and the
one-maintenance-pass-per-plan cost contract.

Oracle discipline: after every commit, session answers must equal naive
evaluation on the mutated structure; a rolled-back transaction must leave
structure, cache, and fingerprint untouched.
"""

from __future__ import annotations

import pytest

from repro.errors import SignatureError, TransactionError
from repro.fo.parser import parse
from repro.fo.semantics import naive_answers
from repro.session import Changeset, Database, load_changeset_jsonl
from repro.structures.random_gen import random_colored_graph

EXAMPLE = "B(x) & R(y) & ~E(x,y)"


def oracle(structure, text=EXAMPLE):
    formula = parse(text)
    return sorted(naive_answers(formula, structure, order=sorted(formula.free)))


@pytest.fixture
def structure():
    return random_colored_graph(24, max_degree=3, seed=7).copy()


def missing_unary(structure, relation="B"):
    return next(
        e for e in structure.domain if not structure.has_fact(relation, e)
    )


class TestTransactionBasics:
    def test_commit_on_clean_exit(self, structure):
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            q.count()
            new_blue = missing_unary(structure)
            with db.transaction() as tx:
                tx.insert_fact("B", new_blue)
                assert not structure.has_fact("B", new_blue), "buffered, not applied"
            assert structure.has_fact("B", new_blue)
            assert tx.result is not None and tx.result.changed
            assert sorted(q.answers().all()) == oracle(structure)

    def test_exception_rolls_back(self, structure):
        with Database(structure) as db:
            before_version = db.version
            before_fp = db.structure_fingerprint
            with pytest.raises(RuntimeError):
                with db.transaction() as tx:
                    tx.insert_fact("B", missing_unary(structure))
                    raise RuntimeError("boom")
            assert db.version == before_version
            assert db.structure_fingerprint == before_fp
            assert tx.result is None
            assert not tx.active

    def test_finished_transaction_rejects_use(self, structure):
        with Database(structure) as db:
            tx = db.transaction()
            tx.insert_fact("B", missing_unary(structure))
            tx.commit()
            with pytest.raises(TransactionError):
                tx.insert_fact("B", 0)
            with pytest.raises(TransactionError):
                tx.commit()

    def test_explicit_commit_then_clean_exit_commits_once(self, structure):
        with Database(structure) as db:
            new_blue = missing_unary(structure)
            with db.transaction() as tx:
                tx.insert_fact("B", new_blue)
                result = tx.commit()
            assert tx.result is result
            assert result.ops_effective == 1

    def test_rollback_discards(self, structure):
        with Database(structure) as db:
            before = db.version
            tx = db.transaction()
            tx.insert_fact("B", missing_unary(structure))
            tx.rollback()
            assert db.version == before

    def test_insert_many_and_remove_many(self, structure):
        with Database(structure) as db:
            free = [
                e for e in structure.domain if not structure.has_fact("B", e)
            ][:3]
            with db.transaction() as tx:
                tx.insert_many("B", [(e,) for e in free])
            assert all(structure.has_fact("B", e) for e in free)
            with db.transaction() as tx:
                tx.remove_many("B", [(e,) for e in free])
            assert not any(structure.has_fact("B", e) for e in free)


class TestValidation:
    def test_arity_checked_at_buffer_time(self, structure):
        with Database(structure) as db:
            with pytest.raises(RuntimeError):
                with db.transaction() as tx:
                    with pytest.raises(SignatureError):
                        tx.insert_fact("E", 0)
                    raise RuntimeError("abort cleanly")

    def test_unknown_relation_at_buffer_time(self, structure):
        with Database(structure) as db:
            tx = db.transaction()
            with pytest.raises(SignatureError):
                tx.insert_fact("Z", 0)
            tx.rollback()

    def test_domain_checked_at_buffer_time(self, structure):
        with Database(structure) as db:
            tx = db.transaction()
            with pytest.raises(ValueError):
                tx.insert_fact("B", object())
            tx.rollback()

    def test_apply_validates_before_mutating(self, structure):
        with Database(structure) as db:
            before = db.version
            # Second op is invalid: the whole changeset must be refused
            # with the first op NOT applied.
            with pytest.raises(SignatureError):
                db.apply(
                    [
                        ("insert", "B", (missing_unary(structure),)),
                        ("insert", "E", (0,)),
                    ]
                )
            assert db.version == before

    def test_remove_of_out_of_domain_element_is_a_noop(self, structure):
        # The legacy remove_fact contract: removing a fact that cannot
        # exist (unknown element) returns False, it does not raise.
        with Database(structure) as db:
            assert db.remove_fact("B", "no-such-element") is False
            result = db.apply([("remove", "E", ("ghost", "ghost"))])
            assert not result.changed
            with db.transaction() as tx:
                tx.remove_fact("B", "still-not-there")
            assert not tx.result.changed

    def test_malformed_ops_rejected(self, structure):
        with Database(structure) as db:
            with pytest.raises(TransactionError):
                db.apply([("frobnicate", "B", (0,))])
            with pytest.raises(TransactionError):
                db.apply(["not an op"])


class TestCommitSemantics:
    def test_noop_changeset_reports_unchanged(self, structure):
        with Database(structure) as db:
            existing = next(iter(structure.facts("E")))
            result = db.apply(
                [
                    ("insert", "E", existing),          # already present
                    ("remove", "B", (missing_unary(structure),)),  # absent
                ]
            )
            assert not result.changed
            assert result.ops_submitted == 2
            assert result.ops_effective == 0
            assert result.version_before == result.version_after

    def test_remove_then_reinsert_cancels(self, structure):
        with Database(structure) as db:
            edge = next(iter(structure.facts("E")))
            before_fp = db.structure_fingerprint
            result = db.apply(
                [("remove", "E", edge), ("insert", "E", edge)]
            )
            assert result.ops_effective == 0
            assert db.structure_fingerprint == before_fp

    def test_batch_is_one_maintenance_pass_per_plan(self, structure):
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            q.count()  # plan cached + maintained
            maintainers = list(db._maintainers.values())
            assert maintainers, "example plan should be maintainable"
            before = maintainers[0].updates_applied
            free = [
                e for e in structure.domain if not structure.has_fact("B", e)
            ][:4]
            db.apply([("insert", "B", (e,)) for e in free])
            assert maintainers[0].updates_applied == before + 1, (
                "a batch commit must cost ONE local-recomputation pass, "
                "not one per fact"
            )
            assert sorted(q.answers().all()) == oracle(structure)

    def test_batch_equals_singles_on_answers(self, structure):
        other = structure.copy()
        edge = next(iter(structure.facts("E")))
        free = [e for e in structure.domain if not structure.has_fact("B", e)]
        ops = [
            ("insert", "B", (free[0],)),
            ("remove", "E", edge),
            ("insert", "B", (free[1],)),
        ]
        with Database(structure) as batch_db, Database(other) as single_db:
            batch_q = batch_db.query(EXAMPLE)
            single_q = single_db.query(EXAMPLE)
            batch_db.apply(ops)
            for insert, relation, elements in ops:
                if insert:
                    single_db.insert_fact(relation, *elements)
                else:
                    single_db.remove_fact(relation, *elements)
            # Node ids (and with them the enumeration order) depend on
            # the maintenance history; the answer SET, count, and
            # verdicts are the contract — same as maintained-vs-rebuilt.
            batch_answers = sorted(batch_q.answers().all())
            assert batch_answers == sorted(single_q.answers().all())
            assert batch_answers == oracle(structure)
            assert batch_q.count() == single_q.count()

    def test_fingerprint_rolls_once_per_commit(self, structure):
        with Database(structure) as db:
            fp_before = db.structure_fingerprint
            free = [
                e for e in structure.domain if not structure.has_fact("R", e)
            ][:3]
            db.apply([("insert", "R", (e,)) for e in free])
            fp_after = db.structure_fingerprint
            assert fp_after != fp_before
            from repro.structures.serialize import fingerprint_full

            assert fp_after == fingerprint_full(db.structure)

    def test_cache_rekeyed_not_dropped(self, structure):
        with Database(structure) as db:
            q = db.query(EXAMPLE)
            q.count()
            hits_before = db.stats()["hits"]
            db.apply([("insert", "B", (missing_unary(structure),))])
            q.count()  # must re-resolve via a cache hit (maintained plan)
            assert db.stats()["hits"] > hits_before
            assert db.stats()["maintained_plans"] == 1


class TestCommitFailures:
    """The unpinned (in-place) commit's failure policy: a failure before
    or during the op application reverts and keeps the maintained plans;
    a failed refresh reverts and drops them (a half-refreshed plan
    matches neither version)."""

    def test_refresh_failure_reverts_and_drops_maintained_plans(
        self, structure, monkeypatch
    ):
        from repro.core.dynamic import PipelineMaintainer

        with Database(structure) as db:
            db.query(EXAMPLE).count()
            assert db.stats()["maintained_plans"] == 1
            fp = db.structure_fingerprint
            version = db.version
            blue = missing_unary(structure)

            def explode(self, touched, region, rewire):
                raise RuntimeError("injected refresh failure")

            monkeypatch.setattr(PipelineMaintainer, "refresh", explode)
            with pytest.raises(RuntimeError, match="injected refresh"):
                db.apply([("insert", "B", (blue,))])
            monkeypatch.undo()
            # Content, fingerprint and version all come back.
            assert db.structure_fingerprint == fp
            assert db.version == version
            assert not structure.has_fact("B", blue)
            assert db.stats()["maintained_plans"] == 0
            misses = db.stats()["misses"]
            assert sorted(db.query(EXAMPLE).answers().all()) == oracle(
                structure
            )
            assert db.stats()["misses"] == misses + 1, "expected a rebuild"

    def test_held_query_rebuilds_after_a_partial_refresh(
        self, structure, monkeypatch
    ):
        # The first plan is refreshed to the commit's content, the second
        # refresh raises, and the revert puts the version back: a Query
        # held across the failure must not go on serving the dropped,
        # refreshed pipeline just because the version matches again.
        from repro.core.dynamic import PipelineMaintainer

        with Database(structure) as db:
            q = db.query(EXAMPLE)
            q.count()
            other = "R(x) & E(x,y)"
            db.query(other).count()
            assert db.stats()["maintained_plans"] == 2
            version = db.version
            blue = missing_unary(structure)
            original = PipelineMaintainer.refresh
            calls = []

            def second_explodes(self, touched, region, rewire):
                calls.append(self)
                if len(calls) == 2:
                    raise RuntimeError("injected refresh failure")
                return original(self, touched, region, rewire)

            monkeypatch.setattr(PipelineMaintainer, "refresh", second_explodes)
            with pytest.raises(RuntimeError, match="injected refresh"):
                db.apply([("insert", "B", (blue,))])
            monkeypatch.undo()
            assert calls[0].pipeline is q._pipeline, "q's plan was not refreshed"
            assert db.version == version
            assert sorted(q.answers().all()) == oracle(structure)
            assert q.count() == len(oracle(structure))
            assert sorted(db.query(other).answers().all()) == oracle(
                structure, other
            )

    def test_reach_failure_applies_nothing_and_keeps_plans(
        self, structure, monkeypatch
    ):
        from repro.core.dynamic import PipelineMaintainer

        with Database(structure) as db:
            q = db.query(EXAMPLE)
            q.count()
            fp = db.structure_fingerprint
            blue = missing_unary(structure)

            def explode(self, touched):
                raise RuntimeError("injected reach failure")

            monkeypatch.setattr(PipelineMaintainer, "reach", explode)
            with pytest.raises(RuntimeError, match="injected reach"):
                db.apply([("insert", "B", (blue,))])
            monkeypatch.undo()
            assert not structure.has_fact("B", blue)
            assert db.structure_fingerprint == fp
            assert db.stats()["maintained_plans"] == 1
            assert db.apply([("insert", "B", (blue,))]).maintained_plans == 1
            assert sorted(q.answers().all()) == oracle(structure)

    def test_apply_failure_reverts_applied_ops_and_keeps_plans(
        self, structure, monkeypatch
    ):
        from repro.structures.structure import Structure

        with Database(structure) as db:
            q = db.query(EXAMPLE)
            q.count()
            maintainer = next(iter(db._maintainers.values()))
            passes = maintainer.updates_applied
            fp = db.structure_fingerprint
            first, second = [
                e for e in structure.domain if not structure.has_fact("B", e)
            ][:2]
            original = Structure.add_fact

            def flaky(self, relation, *elements):
                if relation == "B" and elements == (second,):
                    raise RuntimeError("injected apply failure")
                return original(self, relation, *elements)

            monkeypatch.setattr(Structure, "add_fact", flaky)
            with pytest.raises(RuntimeError, match="injected apply"):
                db.apply([("insert", "B", (first,)), ("insert", "B", (second,))])
            monkeypatch.undo()
            assert not structure.has_fact("B", first), "applied op not reverted"
            assert db.structure_fingerprint == fp
            assert db.stats()["maintained_plans"] == 1
            assert maintainer.updates_applied == passes
            result = db.apply([("insert", "B", (first,))])
            assert result.maintained_plans == 1
            assert sorted(q.answers().all()) == oracle(structure)


class TestChangeset:
    def test_standalone_changeset_applies(self, structure):
        with Database(structure) as db:
            changeset = Changeset(structure=structure)
            changeset.insert_fact("B", missing_unary(structure))
            result = db.apply(changeset)
            assert result.ops_effective == 1

    def test_jsonl_round_trip(self, structure):
        lines = [
            "# a comment",
            '{"op": "insert", "relation": "B", "elements": [0]}',
            "",
            '{"op": "remove", "relation": "E", "elements": [0, 1]}',
        ]
        changeset = load_changeset_jsonl(lines, structure=structure)
        assert changeset.ops == (
            (True, "B", (0,)),
            (False, "E", (0, 1)),
        )

    def test_jsonl_errors_carry_line_numbers(self, structure):
        with pytest.raises(TransactionError, match="line 2"):
            load_changeset_jsonl(
                ['{"op": "insert", "relation": "B", "elements": [0]}', "{bad"],
                structure=structure,
            )
        with pytest.raises(TransactionError, match="line 1"):
            load_changeset_jsonl(['{"op": "insert"}'], structure=structure)

    def test_jsonl_accepts_byte_lines(self, structure):
        # The serve tier feeds raw request-body splits: bytes, not str.
        lines = [
            b'{"op": "insert", "relation": "B", "elements": [0]}',
            bytearray(b'{"op": "remove", "relation": "E", "elements": [0, 1]}'),
            memoryview(b"# comment"),
        ]
        changeset = load_changeset_jsonl(lines, structure=structure)
        assert changeset.ops == (
            (True, "B", (0,)),
            (False, "E", (0, 1)),
        )

    def test_jsonl_rejects_non_utf8_bytes(self, structure):
        with pytest.raises(TransactionError, match="line 2.*UTF-8"):
            load_changeset_jsonl(
                [
                    b'{"op": "insert", "relation": "B", "elements": [0]}',
                    b"\xff\xfe{}",
                ],
                structure=structure,
            )

    @pytest.mark.parametrize(
        "oversized",
        [
            b'{"op": "insert", "relation": "B", "elements": [0],'
            b' "pad": "' + b"x" * 100 + b'"}',
            '{"op": "insert", "relation": "B", "elements": [0],'
            ' "pad": "' + "x" * 100 + '"}',
        ],
        ids=["bytes", "str"],
    )
    def test_jsonl_rejects_oversized_records(self, structure, oversized):
        good = '{"op": "insert", "relation": "B", "elements": [0]}'
        with pytest.raises(TransactionError, match="line 2.*limit 64"):
            load_changeset_jsonl(
                [good, oversized], structure=structure, max_record_bytes=64
            )
        # Within the limit, the same shapes load fine.
        loaded = load_changeset_jsonl(
            [good], structure=structure, max_record_bytes=64
        )
        assert loaded.ops == ((True, "B", (0,)),)

    def test_jsonl_no_limit_by_default(self, structure):
        big = (
            '{"op": "insert", "relation": "B", "elements": [0],'
            ' "pad": "' + "x" * 5000 + '"}'
        )
        assert load_changeset_jsonl([big], structure=structure).ops == (
            (True, "B", (0,)),
        )
