"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_workload
from repro.errors import ReproError


class TestWorkloadSpecs:
    def test_colored_defaults(self):
        db = parse_workload("colored:n=50,d=3,seed=1")
        assert db.cardinality == 50
        assert db.degree <= 3
        assert "B" in db.signature and "R" in db.signature

    def test_colored_custom_colors(self):
        db = parse_workload("colored:n=30,colors=P+Q")
        assert "P" in db.signature and "Q" in db.signature

    def test_grid(self):
        db = parse_workload("grid:rows=4,cols=5")
        assert db.cardinality == 20
        assert "Powered" in db.signature

    def test_cycle(self):
        db = parse_workload("cycle:n=12")
        assert db.degree == 2

    def test_clique(self):
        db = parse_workload("clique:clique=5,n=40")
        assert db.degree == 4

    def test_logdeg(self):
        db = parse_workload("logdeg:n=64")
        assert db.degree <= 6

    def test_unknown_workload(self):
        with pytest.raises(ReproError):
            parse_workload("mystery:n=5")

    def test_bad_option(self):
        with pytest.raises(ReproError):
            parse_workload("colored:n")


class TestCommands:
    def test_query_count_and_limit(self, capsys):
        code = main(
            [
                "query",
                "-w", "colored:n=40,d=3,seed=2",
                "-q", "B(x) & R(y) & ~E(x,y)",
                "--count",
                "--limit", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "count:" in out
        assert "(3 answers shown)" in out

    def test_query_test_probe(self, capsys):
        code = main(
            [
                "query",
                "-w", "colored:n=40,d=3,seed=2",
                "-q", "B(x) & R(y) & ~E(x,y)",
                "--test", "0,1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "test (0, 1):" in out

    def test_check_true_sentence(self, capsys):
        code = main(
            [
                "check",
                "-w", "colored:n=40,d=3,seed=2",
                "-q", "exists x. B(x) | R(x)",
            ]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_check_false_sentence(self, capsys):
        code = main(
            [
                "check",
                "-w", "colored:n=40,d=3,seed=2",
                "-q", "forall x. B(x) & R(x) & ~B(x)",
            ]
        )
        assert code == 1

    def test_explain(self, capsys):
        code = main(
            [
                "explain",
                "-w", "colored:n=30,d=3,seed=2",
                "-q", "B(x) & exists z. (R(z) & ~E(x,z))",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "derived" in out

    def test_delay(self, capsys):
        code = main(
            [
                "delay",
                "-w", "colored:n=60,d=3,seed=2",
                "-q", "B(x) & R(y) & ~E(x,y)",
                "--limit", "100",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RAM steps/answer" in out

    def test_error_reported_cleanly(self, capsys):
        code = main(
            ["query", "-w", "mystery:n=5", "-q", "B(x)"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_thread_backend_is_not_a_choice(self, capsys):
        for flag in ("query --backend", "batch --mode"):
            command, option = flag.split()
            with pytest.raises(SystemExit) as exit_info:
                main([command, "-w", "colored:n=20,d=2", "-q", "B(x)", option, "thread"])
            assert exit_info.value.code == 2
            assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_bad_tuple_component(self, capsys):
        code = main(
            [
                "query",
                "-w", "colored:n=20,d=2,seed=0",
                "-q", "B(x)",
                "--test", "zap",
            ]
        )
        assert code == 2

    def test_batch_count_and_cache(self, capsys, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# corpus\nB(x) & R(y) & ~E(x,y)\nB(x) & R(y) & E(x,y)\n"
        )
        code = main(
            [
                "batch",
                "-w", "colored:n=40,d=3,seed=2",
                "-q", "B(x) & R(y) & ~E(x,y)",
                "--queries-file", str(queries),
                "--count",
                "--limit", "2",
                "--workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 queries" in out
        assert out.count("count=") == 3
        # The duplicated query hits the pipeline cache.
        assert "1 hits" in out

    def test_batch_without_queries_errors(self, capsys):
        code = main(["batch", "-w", "colored:n=20,d=3"])
        assert code == 2
        assert "at least one" in capsys.readouterr().err


CHANGESET = """\
# wire node 0 into the blue set and re-point an edge
{"op": "insert", "relation": "B", "elements": [0]}
{"op": "remove", "relation": "B", "elements": [0]}
{"op": "insert", "relation": "B", "elements": [1]}
{"op": "insert", "relation": "E", "elements": [1, 2]}
"""


class TestUpdateCommand:
    def test_update_applies_and_reports(self, capsys, tmp_path):
        changes = tmp_path / "changes.jsonl"
        changes.write_text(CHANGESET)
        code = main(
            [
                "update",
                "-w", "colored:n=30,d=3,seed=4",
                "--file", str(changes),
                "-q", "B(x) & R(y) & ~E(x,y)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 op(s)" in out
        assert "effective" in out
        assert "maintained plans refreshed in one pass" in out
        assert "count" in out

    def test_update_bad_changeset_reports_line(self, capsys, tmp_path):
        changes = tmp_path / "changes.jsonl"
        changes.write_text('{"op": "frobnicate", "relation": "B", "elements": [0]}\n')
        code = main(
            ["update", "-w", "colored:n=20,d=3", "--file", str(changes)]
        )
        assert code == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_update_out_of_domain_element_reports_line(self, capsys, tmp_path):
        changes = tmp_path / "changes.jsonl"
        changes.write_text(
            '{"op": "insert", "relation": "B", "elements": [999999]}\n'
        )
        code = main(
            ["update", "-w", "colored:n=20,d=3", "--file", str(changes)]
        )
        err = capsys.readouterr().err
        assert code == 2, "must be a clean CLI error, not a traceback"
        assert "line 1" in err and "domain" in err

    def test_update_missing_file_errors(self, capsys):
        code = main(
            ["update", "-w", "colored:n=20,d=3", "--file", "/nonexistent.jsonl"]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestVersionedQueries:
    def test_query_at_pre_apply_version(self, capsys, tmp_path):
        changes = tmp_path / "changes.jsonl"
        changes.write_text(CHANGESET)
        # First run with a wrong version to learn the real ones (the
        # error message lists them) — then query both sides.
        code = main(
            [
                "query", "-w", "colored:n=30,d=3,seed=4", "-q", "B(x)",
                "--count", "--apply", str(changes), "--at-version", "-1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        versions = [
            int(tok) for tok in err.replace("[", " ").replace("]", " ")
            .replace(",", " ").split() if tok.lstrip("-").isdigit()
        ]
        old, new = versions[-2], versions[-1]

        def count_at(version):
            code = main(
                [
                    "query", "-w", "colored:n=30,d=3,seed=4", "-q", "B(x)",
                    "--count", "--apply", str(changes),
                    "--at-version", str(version),
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            return int(out.split("count: ")[1].split()[0])

        before, after = count_at(old), count_at(new)
        # The changeset nets out to inserting B(1): the pre-commit
        # snapshot must not see it, the head must (unless it was there).
        assert after in (before, before + 1)
        assert count_at(old) == before  # deterministic across runs


class TestBatchAtVersion:
    def test_batch_apply_then_query_head(self, capsys, tmp_path):
        changes = tmp_path / "changes.jsonl"
        changes.write_text(CHANGESET)
        code = main(
            [
                "batch", "-w", "colored:n=30,d=3,seed=4",
                "-q", "B(x)", "--count", "--apply", str(changes),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "applied 4 op(s)" in out
        assert "count=" in out


class TestDurableCommands:
    def test_open_creates_then_inspects(self, capsys, tmp_path):
        db = str(tmp_path / "store")
        code = main(["open", "--db", db, "-w", "colored:n=30,d=3,seed=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n=30" in out and "version" in out
        # Second open (no -w): inspect the existing store.
        code = main(["open", "--db", db])
        out = capsys.readouterr().out
        assert code == 0
        assert "fingerprint:" in out

    def test_query_against_durable_store(self, capsys, tmp_path):
        db = str(tmp_path / "store")
        assert main(["open", "--db", db, "-w", "colored:n=30,d=3,seed=2"]) == 0
        capsys.readouterr()
        code = main(["query", "--db", db, "-q", "B(x)", "--count"])
        out = capsys.readouterr().out
        assert code == 0
        assert "count:" in out

    def test_update_persists_into_the_store(self, capsys, tmp_path):
        db = str(tmp_path / "store")
        changes = tmp_path / "changes.jsonl"
        changes.write_text(
            '{"op": "insert", "relation": "E", "elements": [0, 9]}\n'
            '{"op": "insert", "relation": "E", "elements": [9, 0]}\n'
        )
        assert main(["open", "--db", db, "-w", "cycle:n=12"]) == 0
        assert main(["update", "--db", db, "--file", str(changes)]) == 0
        capsys.readouterr()
        code = main(["query", "--db", db, "-q", "E(x,y)", "--count"])
        out = capsys.readouterr().out
        assert code == 0
        # A 12-cycle has 24 directed edges; the changeset added 2.
        assert "count: 26" in out

    def test_checkpoint_warms_the_next_open(self, capsys, tmp_path):
        db = str(tmp_path / "store")
        assert main(["open", "--db", db, "-w", "colored:n=30,d=3,seed=2"]) == 0
        capsys.readouterr()
        code = main(["checkpoint", "--db", db, "-q", "B(x)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "warm pipelines spilled: 1" in out
        code = main(["open", "--db", db])
        out = capsys.readouterr().out
        assert code == 0
        assert "warm cached plans: 1" in out

    def test_existing_store_with_workload_errors(self, capsys, tmp_path):
        db = str(tmp_path / "store")
        assert main(["open", "--db", db, "-w", "cycle:n=10"]) == 0
        capsys.readouterr()
        code = main(["query", "--db", db, "-w", "cycle:n=10", "-q", "B(x)"])
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    def test_missing_store_without_workload_errors(self, capsys, tmp_path):
        code = main(
            ["query", "--db", str(tmp_path / "nope"), "-q", "B(x)"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_checkpoint_missing_store_errors(self, capsys, tmp_path):
        code = main(["checkpoint", "--db", str(tmp_path / "nope")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_neither_db_nor_workload_errors(self, capsys):
        code = main(["query", "-q", "B(x)"])
        assert code == 2
        assert "workload" in capsys.readouterr().err
