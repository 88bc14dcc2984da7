"""Tests for the command-line interface."""

import errno
import io
import os

import pytest

from repro.cli import main
from repro.graphs.generators import karate_club
from repro.graphs.io import write_edgelist
from tests.graphs.test_ingest_resume import CORRUPT_META, corrupt_meta


@pytest.fixture
def karate_file(tmp_path):
    path = tmp_path / "karate.edges"
    write_edgelist(karate_club(), path)
    return str(path)


def _full_disk(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestColorCommand:
    def test_color_by_budget(self, karate_file, capsys):
        assert main(["color", karate_file, "--colors", "6"]) == 0
        out = capsys.readouterr().out
        assert "colors" in out
        assert "6" in out

    def test_color_by_q(self, karate_file, capsys):
        assert main(["color", karate_file, "--q", "3"]) == 0
        assert "compression" in capsys.readouterr().out

    def test_color_eps_mode(self, karate_file, capsys):
        assert main(["color", karate_file, "--eps", "0.5"]) == 0
        assert "colors" in capsys.readouterr().out

    def test_color_writes_assignment(self, karate_file, tmp_path, capsys):
        out_path = tmp_path / "assignment.txt"
        assert main(
            ["color", karate_file, "--colors", "4", "--out", str(out_path)]
        ) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 34
        colors = {line.split()[1] for line in lines}
        assert len(colors) <= 4

    def test_color_requires_stopping_rule(self, karate_file):
        with pytest.raises(SystemExit):
            main(["color", karate_file])


class TestSolveCommand:
    def test_maxflow_schedule(self, capsys):
        assert main(
            ["solve", "--task", "maxflow", "--dataset", "tsukuba0",
             "--scale", "0.002", "--colors", "4,8,12"]
        ) == 0
        out = capsys.readouterr().out
        assert "maxflow pipeline" in out
        assert "3 checkpoint(s)" in out
        assert "coloring_s" in out

    def test_maxflow_prints_witnessed_bracket(self, capsys):
        assert main(
            ["solve", "--task", "maxflow", "--dataset", "tsukuba0",
             "--scale", "0.002", "--colors", "4,8,12"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("colors"))
        rows = [dict(zip(header.split(), line.split()))
                for line in lines if line and line[0].isdigit()]
        assert len(rows) == 3
        for row in rows:
            lb, value, ub = (float(row[key]) for key in ("lb", "value", "ub"))
            assert 0.0 < lb <= value <= ub
            assert float(row["gap"]) >= 0.0

    def test_bound_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--task", "maxflow", "--dataset", "tsukuba0",
                  "--colors", "4", "--bound", "lower"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --bound" in capsys.readouterr().err

    def test_lp_single_budget(self, capsys):
        assert main(
            ["solve", "--task", "lp", "--dataset", "qap15",
             "--scale", "0.03", "--colors", "10"]
        ) == 0
        assert "1 checkpoint(s)" in capsys.readouterr().out

    def test_centrality_q_target(self, capsys):
        assert main(
            ["solve", "--task", "centrality", "--dataset", "deezer",
             "--scale", "0.004", "--q", "4"]
        ) == 0
        assert "centrality pipeline" in capsys.readouterr().out

    def test_colors_and_q_compose(self, capsys):
        """--q caps every --colors checkpoint: once the q target is met
        the remaining budgets all resolve to the same coloring."""
        assert main(
            ["solve", "--task", "maxflow", "--dataset", "tsukuba0",
             "--scale", "0.002", "--colors", "4,40", "--q", "1000"]
        ) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()
                if line and line[0].isdigit()]
        assert len(rows) == 2
        # A huge q target is met by the initial partition: both budgets
        # stop there instead of refining to 40 colors.
        assert rows[0][0] == rows[1][0]

    def test_requires_stopping_rule(self):
        with pytest.raises(SystemExit):
            main(["solve", "--task", "lp", "--dataset", "qap15"])

    def test_bad_colors_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--task", "lp", "--dataset", "qap15",
                  "--colors", "ten"])

    def test_wrong_dataset_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--task", "lp", "--dataset", "karate",
                  "--colors", "8"])

    def test_workers_flag_accepted(self, capsys):
        assert main(
            ["solve", "--task", "centrality", "--dataset", "deezer",
             "--scale", "0.004", "--colors", "6", "--workers", "2"]
        ) == 0
        assert "centrality pipeline" in capsys.readouterr().out


class TestSolveMmap:
    @pytest.fixture
    def store(self, tmp_path):
        path = tmp_path / "store"
        assert main(
            ["ingest", str(path), "--synthetic", "300,5", "--seed", "2"]
        ) == 0
        return str(path)

    def test_maxflow_from_edge_store(self, store, capsys):
        capsys.readouterr()
        assert main(
            ["solve", "--task", "maxflow", "--dataset", store, "--mmap",
             "--colors", "8,16"]
        ) == 0
        out = capsys.readouterr().out
        assert "edge store" in out
        assert "2 checkpoint(s)" in out

    def test_maxflow_explicit_source_sink(self, store, capsys):
        capsys.readouterr()
        assert main(
            ["solve", "--task", "maxflow", "--dataset", store, "--mmap",
             "--source", "3", "--sink", "250", "--colors", "8"]
        ) == 0
        assert "1 checkpoint(s)" in capsys.readouterr().out

    def test_centrality_from_edge_store(self, store, capsys):
        capsys.readouterr()
        assert main(
            ["solve", "--task", "centrality", "--dataset", store, "--mmap",
             "--colors", "12", "--workers", "2"]
        ) == 0
        assert "centrality pipeline on edge store" in \
            capsys.readouterr().out

    def test_lp_rejected(self, store):
        with pytest.raises(SystemExit, match="maxflow/centrality"):
            main(["solve", "--task", "lp", "--dataset", store, "--mmap",
                  "--colors", "8"])

    def test_bad_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="edge store"):
            main(["solve", "--task", "maxflow",
                  "--dataset", str(tmp_path / "nope"), "--mmap",
                  "--colors", "8"])

    def test_bad_sink_rejected(self, store):
        with pytest.raises(SystemExit, match="sink"):
            main(["solve", "--task", "maxflow", "--dataset", store,
                  "--mmap", "--sink", "9999", "--colors", "8"])


class TestDatasetsCommand:
    def test_prints_both_tables(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out
        assert "qap15" in out and "karate" in out


class TestTablesCommand:
    def test_fig2(self, capsys):
        assert main(["tables", "fig2"]) == 0
        assert "robustness" in capsys.readouterr().out

    def test_table5_with_scale(self, capsys):
        assert main(["tables", "table5", "--scale", "0.03"]) == 0
        assert "compressed LP" in capsys.readouterr().out

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["tables", "table99"])


class TestProfileCommand:
    def test_profile_wraps_solve(self, capsys):
        assert main(
            ["profile", "solve", "--task", "maxflow", "--dataset",
             "tsukuba0", "--scale", "0.002", "--colors", "8"]
        ) == 0
        out = capsys.readouterr().out
        # Both the wrapped command's output and the span summary print.
        assert "maxflow pipeline" in out
        assert "profile: repro solve" in out
        assert "cli.solve" in out
        assert "rothko.splits" in out
        assert "covered by direct child spans" in out

    def test_profile_wraps_color(self, karate_file, capsys):
        assert main(["profile", "color", karate_file, "--colors", "6"]) == 0
        out = capsys.readouterr().out
        assert "cli.color" in out

    def test_profile_trace_out_emits_valid_jsonl(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["profile", "solve", "--task", "maxflow", "--dataset",
             "tsukuba0", "--scale", "0.002", "--colors", "8",
             "--trace-out", str(trace_path)]
        ) == 0
        assert "trace written to" in capsys.readouterr().out
        rows = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert rows[0]["type"] == "meta"
        roots = [
            row for row in rows
            if row["type"] == "span" and row["parent_id"] is None
        ]
        assert [row["name"] for row in roots] == ["cli.solve"]
        assert any(
            row["type"] == "metric" and row["name"] == "rothko.splits"
            for row in rows
        )

    def test_profile_requires_a_command(self):
        with pytest.raises(SystemExit):
            main(["profile"])

    def test_profile_rejects_itself(self):
        with pytest.raises(SystemExit):
            main(["profile", "profile", "datasets"])

    def test_profile_validates_wrapped_flags(self, karate_file):
        with pytest.raises(SystemExit):
            main(["profile", "color", karate_file])  # no stopping rule


class TestTraceOutFlag:
    def test_solve_trace_out_without_profile(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["solve", "--task", "maxflow", "--dataset", "tsukuba0",
             "--scale", "0.002", "--colors", "8",
             "--trace-out", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        # No summary table without profile — just the dump.
        assert "covered by direct child spans" not in out
        for line in trace_path.read_text().splitlines():
            json.loads(line)

    def test_color_trace_out(self, karate_file, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["color", karate_file, "--colors", "6",
             "--trace-out", str(trace_path)]
        ) == 0
        assert trace_path.exists()

    def test_update_trace_out(self, karate_file, tmp_path):
        import json

        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["update", karate_file, "--q", "2", "--n-updates", "20",
             "--trace-out", str(trace_path)]
        ) == 0
        rows = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert rows[0]["type"] == "meta"


class TestIngestCommand:
    def test_synthetic_ingest_and_mmap_color(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(
            ["ingest", str(store), "--synthetic", "500,4", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "arcs" in out and "index_dtype" in out
        assert main(
            ["color", str(store), "--mmap", "--colors", "8"]
        ) == 0
        assert "colors" in capsys.readouterr().out

    def test_edgelist_ingest(self, tmp_path, capsys):
        edges = tmp_path / "arcs.txt"
        edges.write_text("0 1 2.0\n1 2\n2 0 1.5\n")
        store = tmp_path / "store"
        assert main(["ingest", str(store), "--edgelist", str(edges)]) == 0
        assert "3" in capsys.readouterr().out

    def test_mmap_color_matches_resident(self, tmp_path, capsys):
        """--mmap must report the identical coloring the resident path
        reports for the same arcs."""
        import numpy as np

        from repro.graphs.edgestore import ingest_arrays

        rng = np.random.default_rng(9)
        # distinct arcs: duplicate handling differs by design between
        # the store (sums) and the line-by-line reader (replaces)
        codes = rng.choice(200 * 200, size=2_000, replace=False)
        src, dst = codes // 200, codes % 200
        weight = rng.integers(1, 5, size=2_000).astype(np.float64)
        store = tmp_path / "store"
        ingest_arrays(store, src, dst, weight, n_nodes=200)
        edges = tmp_path / "arcs.txt"
        edges.write_text(
            "\n".join(
                f"{s} {d} {w}" for s, d, w in zip(src, dst, weight)
            )
        )
        def stats_row(text):
            # last line is the data row; the trailing column is wall
            # time, the one field allowed to differ between the runs
            return text.strip().splitlines()[-1].split()[:-1]

        assert main(
            ["color", str(store), "--mmap", "--colors", "12"]
        ) == 0
        mmap_out = capsys.readouterr().out
        assert main(
            ["color", str(edges), "--directed", "--colors", "12"]
        ) == 0
        resident_out = capsys.readouterr().out
        assert stats_row(mmap_out) == stats_row(resident_out)

    def test_ingest_requires_exactly_one_source(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit):
            main(["ingest", str(store)])
        with pytest.raises(SystemExit):
            main([
                "ingest", str(store),
                "--edgelist", "x.txt", "--synthetic", "10,2",
            ])

    def test_ingest_rejects_bad_synthetic_spec(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "ingest", str(tmp_path / "store"), "--synthetic", "10",
            ])


class TestVerifyCommand:
    @pytest.fixture
    def store(self, tmp_path, capsys):
        path = tmp_path / "store"
        assert main(
            ["ingest", str(path), "--synthetic", "300,5", "--seed", "2"]
        ) == 0
        capsys.readouterr()
        return str(path)

    def test_verify_intact_store(self, store, capsys):
        assert main(["verify", store]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "checksums" in out

    def test_verify_missing_path_is_a_clean_one_liner(
        self, tmp_path, capsys
    ):
        assert main(["verify", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro verify:")
        assert len(err.strip().splitlines()) == 1

    def test_verify_corrupt_store(self, store, capsys):
        import pathlib

        target = pathlib.Path(store) / "weight.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        assert main(["verify", store]) == 2
        assert "checksum mismatch" in capsys.readouterr().err


class TestCleanCliErrors:
    def test_color_missing_edgelist(self, tmp_path, capsys):
        assert main(
            ["color", str(tmp_path / "nope.edges"), "--colors", "4"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro color:")
        assert len(err.strip().splitlines()) == 1

    def test_color_non_store_directory(self, tmp_path, capsys):
        empty = tmp_path / "not-a-store"
        empty.mkdir()
        assert main(
            ["color", str(empty), "--mmap", "--colors", "4"]
        ) == 2
        assert capsys.readouterr().err.startswith("repro color:")

    @pytest.mark.parametrize(
        "weight, reason",
        [("nan", "not finite"), ("inf", "not finite"),
         ("heavy", "not a number")],
    )
    def test_color_bad_weight_is_one_line(
        self, tmp_path, capsys, weight, reason
    ):
        edges = tmp_path / "bad.edges"
        edges.write_text(f"1 2 1.0\n2 3 {weight}\n")
        assert main(["color", str(edges), "--colors", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"repro color: {edges}:2: weight")
        assert reason in line

    @pytest.mark.parametrize(
        "flags, line",
        [(["--colors", "0"], "n_colors must be positive, got 0"),
         (["--colors", "-3"], "n_colors must be positive, got -3"),
         (["--q", "nan"], "q must be non-negative, got nan"),
         (["--q", "-1"], "q must be non-negative, got -1.0"),
         (["--eps", "nan"], "eps must be non-negative, got nan")],
    )
    def test_color_bad_stopping_rule_is_one_line(
        self, tmp_path, capsys, flags, line
    ):
        edges = tmp_path / "g.edges"
        edges.write_text("1 2 1.0\n2 3 2.0\n")
        assert main(["color", str(edges), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"repro color: {line}"]

    @pytest.mark.parametrize(
        "flags, line",
        [(["--colors", "-3"], "n_colors must be positive, got -3"),
         (["--colors", "4,0"], "n_colors must be positive, got 0"),
         (["--q", "nan"], "q must be non-negative, got nan"),
         (["--colors", "4", "--q", "-1"], "q must be non-negative, got -1.0"),
         (["--certify", "-1"], "eps must be non-negative, got -1.0"),
         (["--certify", "nan"], "eps must be non-negative, got nan")],
    )
    def test_solve_bad_stopping_rule_is_one_line(self, capsys, flags, line):
        assert main(
            ["solve", "--task", "maxflow", "--dataset", "tsukuba0",
             "--scale", "0.002", *flags]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"repro solve: {line}"]

    @pytest.mark.parametrize("scale", ["nan", "-1", "0", "inf"])
    def test_solve_bad_scale_exits_like_an_unknown_dataset(
        self, capsys, scale
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--task", "maxflow", "--dataset", "tsukuba0",
                  "--scale", scale, "--colors", "4"])
        assert exit_info.value.code == (
            f"scale must be finite and > 0, got {float(scale)}"
        )
        with pytest.raises(SystemExit) as unknown:
            main(["solve", "--task", "maxflow", "--dataset", "imaginary",
                  "--colors", "4"])
        assert str(unknown.value.code).startswith("unknown dataset")
        assert "Traceback" not in capsys.readouterr().err

    def test_zero_max_colors_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--task", "maxflow", "--dataset", "tsukuba0",
                  "--certify", "0.1", "--max-colors", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "argument --max-colors: must be a positive integer" in err

    def test_zero_workers_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--task", "centrality", "--dataset", "karate",
                  "--colors", "4", "--workers", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [row for row in err.splitlines() if "error:" in row]
        assert "argument --workers: must be a positive integer, got '0'" \
            in line

    @pytest.mark.parametrize(
        "task, dataset, value",
        [("centrality", "karate", "two"), ("maxflow", "tsukuba0", "0")],
    )
    def test_bad_repro_workers_is_one_line(
        self, capsys, monkeypatch, task, dataset, value
    ):
        monkeypatch.setenv("REPRO_WORKERS", value)
        assert main(
            ["solve", "--task", task, "--dataset", dataset,
             "--scale", "0.002", "--colors", "4"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"repro solve: REPRO_WORKERS must be a positive integer, "
            f"got '{value}'"
        ]

    @pytest.mark.parametrize("command", ["update", "stream"])
    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_nonpositive_batch_is_a_usage_error(self, capsys, command, batch):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--dataset", "karate", "--q", "2",
                  "--batch", batch])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [row for row in err.splitlines() if "error:" in row]
        assert f"argument --batch: must be a positive integer, got '{batch}'" \
            in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "STORE", "--synthetic", "30,2", "--seed", "-1"],
            ["update", "--dataset", "karate", "--q", "2", "--seed", "-1"],
            ["solve", "--task", "centrality", "--dataset", "karate",
             "--colors", "4", "--seed", "-1"],
        ],
        ids=["ingest", "update", "solve"],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path, argv):
        store = str(tmp_path / "store")
        with pytest.raises(SystemExit) as exit_info:
            main([store if arg == "STORE" else arg for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [row for row in err.splitlines() if "error:" in row]
        assert "argument --seed: must be a non-negative integer, got '-1'" \
            in line
        assert not os.path.exists(store)

    @pytest.mark.parametrize("n_updates", ["0", "-5"])
    def test_nonpositive_n_updates_is_a_usage_error(self, capsys, n_updates):
        with pytest.raises(SystemExit) as exit_info:
            main(["update", "--dataset", "karate", "--q", "2",
                  "--n-updates", n_updates])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = [row for row in captured.err.splitlines() if "error:" in row]
        assert "argument --n-updates: must be a positive integer, got " \
            f"'{n_updates}'" in line

    @pytest.mark.parametrize("command", ["update", "stream"])
    @pytest.mark.parametrize(
        "flags, named",
        [(["--q", "-1"], "q_tolerance"), (["--q", "nan"], "q_tolerance"),
         (["--q", "2", "--drift-budget", "0"], "drift_budget"),
         (["--q", "2", "--drift-budget", "nan"], "drift_budget")],
    )
    def test_bad_engine_params_are_one_line(
        self, capsys, monkeypatch, command, flags, named
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO("+ 1 2 1\n"))
        assert main([command, "--dataset", "karate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"repro {command}: {named} must be")
        assert f"got {float(flags[-1])}" in line

    @pytest.mark.parametrize("line", ["+ 0 1 nan", "~ 0 1 inf", "+ 0 1 abc"])
    def test_bad_stream_weight_is_one_line(self, capsys, monkeypatch, line):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["stream", "--dataset", "karate", "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (err,) = captured.err.strip().splitlines()
        assert err.startswith("repro stream: bad trace line: weight ")
        assert repr(line + "\n") in err

    def test_bad_update_trace_weight_is_one_line(self, capsys, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("+ 1 2 1\n~ 1 2 nan\n")
        assert main(["update", "--dataset", "karate", "--q", "2",
                     "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (err,) = captured.err.strip().splitlines()
        assert err.startswith(f"repro update: bad trace {trace}: weight 'nan'")

    def test_ingest_resume_without_journal(self, tmp_path):
        with pytest.raises(SystemExit, match="nothing to resume"):
            main(
                ["ingest", str(tmp_path / "store"),
                 "--synthetic", "300,5", "--resume"]
            )

    def test_faulted_ingest_then_resume_round_trip(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.graphs import edgestore

        store = tmp_path / "store"
        ingest = ["ingest", str(store), "--synthetic", "300,5", "--seed", "2"]
        with monkeypatch.context() as patch:
            patch.setattr(edgestore, "_merge_runs", _full_disk)
            with pytest.raises(SystemExit) as exit_info:
                main(ingest)
        assert exit_info.value.code == (
            f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        )
        assert not store.exists()
        assert (tmp_path / "store.ingest").exists()
        assert main([*ingest, "--resume"]) == 0
        capsys.readouterr()
        assert main(["verify", str(store)]) == 0

    def test_edgelist_resume_from_a_different_file(
        self, tmp_path, monkeypatch
    ):
        from repro.graphs import edgestore

        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_text("0 1 2.0\n1 2 1.0\n2 0 1.5\n")
        second.write_text("0 1 2.0\n1 2 1.0\n2 0 4.5\n")
        store = tmp_path / "store"
        with monkeypatch.context() as patch:
            patch.setattr(edgestore, "_merge_runs", _full_disk)
            with pytest.raises(SystemExit):
                main(["ingest", str(store), "--edgelist", str(first)])
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", str(store), "--edgelist", str(second),
                  "--resume"])
        (line,) = str(exit_info.value.code).splitlines()
        assert "re-fed input differs from the journaled ingest" in line
        assert not store.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--synthetic", "100,-1"], "out_degree must be >= 0, got -1"),
         (["--edgelist", "missing.txt"], "No such file or directory"),
         (["--synthetic", "50,2", "--n-nodes", "7"], "--n-nodes"),
         (["--synthetic", "50,2", "--undirected"], "--undirected")],
        ids=["negative-out-degree", "missing-edgelist",
             "n-nodes-with-synthetic", "undirected-with-synthetic"],
    )
    def test_bad_ingest_arguments_are_one_line(
        self, tmp_path, monkeypatch, flags, named
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", "out", *flags])
        (line,) = str(exit_info.value.code).splitlines()
        assert named in line
        assert not any(tmp_path.iterdir())  # no OUT, no OUT.ingest

    @pytest.mark.parametrize("edit, named", CORRUPT_META)
    @pytest.mark.parametrize(
        "command",
        [["verify", "STORE"],
         ["color", "STORE", "--mmap", "--colors", "4"],
         ["solve", "--task", "maxflow", "--dataset", "STORE", "--mmap",
          "--colors", "4"]],
        ids=["verify", "color", "solve"],
    )
    def test_corrupt_store_metadata_is_one_line(
        self, tmp_path, capsys, command, edit, named
    ):
        store = tmp_path / "store"
        assert main(["ingest", str(store), "--synthetic", "30,2"]) == 0
        corrupt_meta(store, edit)
        capsys.readouterr()
        argv = [str(store) if arg == "STORE" else arg for arg in command]
        try:
            assert main(argv) == 2
            err = capsys.readouterr().err
        except SystemExit as exit_info:  # solve: printed on exit, status 1
            err = str(exit_info.code)
        (line,) = err.strip().splitlines()
        assert named in line


class TestCertifyCli:
    @pytest.fixture
    def store(self, tmp_path, capsys):
        path = tmp_path / "store"
        assert main(
            ["ingest", str(path), "--synthetic", "300,5", "--seed", "2"]
        ) == 0
        capsys.readouterr()
        return str(path)

    def test_certify_reaches_the_dial(self, store, capsys):
        assert main(
            ["solve", "--task", "maxflow", "--dataset", store, "--mmap",
             "--certify", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out and "rel_error" in out

    def test_certify_unreachable_cap_exits_one(self, store, capsys):
        assert main(
            ["solve", "--task", "maxflow", "--dataset", store, "--mmap",
             "--certify", "0", "--max-colors", "4"]
        ) == 1
        assert "NOT certified" in capsys.readouterr().out

    def test_certify_rejects_explicit_budgets(self, store):
        with pytest.raises(SystemExit, match="certify"):
            main(
                ["solve", "--task", "maxflow", "--dataset", store,
                 "--mmap", "--certify", "0.1", "--colors", "8"]
            )
