"""Command-line surface: parsing, output formats, exit codes, census records."""

import concurrent.futures
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from normal7 import cli, coloring_solver, normal7_pipeline
from normal7.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    InputError,
    census_line,
    main,
    parse_graph_text,
)
from normal7.coloring_solver import SolverResult, exact_chi_n
from normal7.flows_trees import PackingError
from normal7.graph_core import parse_graph6, write_graph6
from normal7.matching import MatchingError

K4_G6 = "C~"
K4_EDGE_LIST = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
PETERSEN_G6 = "IheA@GUAo"
DOUBLE_GADGET_G6 = "Ir]?GGB?w"
PRISM_G6 = "E{Sw"
K5_G6 = "D~{"


@pytest.fixture
def pipeline_fails_on_prism(monkeypatch):
    """Make the census pipeline raise on the prism, a valid simple cubic
    line, the way an internal failure would."""
    real = cli.normal7_coloring

    def coloring(g, trace=None):
        if write_graph6(g) == PRISM_G6:
            raise RuntimeError("boom")
        return real(g, trace)

    monkeypatch.setattr(cli, "normal7_coloring", coloring)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestParsing:
    def test_single_line_without_spaces_is_graph6(self):
        assert parse_graph_text(K4_G6).num_vertices == 4

    def test_header_line_is_edge_list(self):
        g = parse_graph_text(K4_EDGE_LIST)
        assert g.num_vertices == 4 and g.num_edges == 6

    def test_bad_inputs(self):
        for text in ("", "not graph6 at all!!", "3 1\n0 9\n"):
            with pytest.raises(InputError):
                parse_graph_text(text)


class TestColor:
    def test_json_document(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(K4_G6 + "\n")
        rc, out, _ = run(capsys, ["color", str(path)])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 4 and doc["m"] == 6
        assert doc["verified"] is True
        assert set(doc["colors"]) == {str(e) for e in range(6)}
        assert all(1 <= c <= 7 for c in doc["colors"].values())
        assert doc["certificate"], "replay certificate must be present"
        step = doc["certificate"][0]
        assert set(step) == {"case", "fingerprint", "permutation"}

    def test_edge_list_on_stdin(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["color"], stdin=K4_EDGE_LIST, monkeypatch=monkeypatch)
        assert rc == EXIT_OK
        assert json.loads(out)["verified"] is True

    def test_g6_format_echoes_graph(self, capsys, monkeypatch):
        rc, out, _ = run(
            capsys, ["color", "--format", "g6"], stdin=K4_EDGE_LIST,
            monkeypatch=monkeypatch,
        )
        assert rc == EXIT_OK
        assert out.strip() == K4_G6

    def test_dot_output(self, capsys, monkeypatch):
        rc, out, _ = run(
            capsys, ["color", "--dot"], stdin=K4_G6, monkeypatch=monkeypatch
        )
        assert rc == EXIT_OK
        assert out.startswith("graph G {")

    def test_non_cubic_is_input_error(self, capsys, monkeypatch):
        rc, _, err = run(
            capsys, ["color"], stdin="3 3\n0 1\n1 2\n2 0\n", monkeypatch=monkeypatch
        )
        assert rc == EXIT_INPUT
        assert "vertex 0" in err and "degree 2" in err

    def test_cubic_multigraph_is_input_error(self, capsys, monkeypatch):
        rc, _, err = run(
            capsys, ["color"], stdin="2 3\n0 1\n0 1\n0 1\n", monkeypatch=monkeypatch
        )
        assert rc == EXIT_INPUT
        assert "loop or parallel edges" in err

    def test_vertex_count_beyond_the_edges_is_input_error(self, capsys, monkeypatch):
        rc, _, err = run(capsys, ["color"], stdin="1000000000 0\n", monkeypatch=monkeypatch)
        assert rc == EXIT_INPUT
        assert "1000000000 vertices" in err

    def test_bad_graph6_is_input_error(self, capsys, monkeypatch):
        rc, _, err = run(capsys, ["color"], stdin="!!!", monkeypatch=monkeypatch)
        assert rc == EXIT_INPUT
        assert "error" in err

    @pytest.mark.parametrize(
        "exc_type", [ValueError, MatchingError, PackingError, RuntimeError, RecursionError, KeyError]
    )
    def test_a_pipeline_failure_is_internal(self, capsys, monkeypatch, exc_type):
        def failing(g, trace):
            normal7_pipeline._record(trace, normal7_pipeline.CaseTag.Glue, g)
            raise exc_type("boom")

        monkeypatch.setattr(cli, "normal7_coloring", failing)
        rc, out, err = run(capsys, ["color"], stdin=K4_G6, monkeypatch=monkeypatch)
        assert rc == EXIT_VERIFY and not out
        assert f"{exc_type.__name__}: {exc_type('boom')}" in err  # a KeyError quotes its key
        assert '"case": "Glue"' in err  # the steps recorded before the failure
        rc, _, _ = run(capsys, ["color"], stdin="3 3\n0 1\n1 2\n2 0\n", monkeypatch=monkeypatch)
        assert rc == EXIT_INPUT


class TestExact:
    def test_k4(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, ["exact"], stdin=K4_G6, monkeypatch=monkeypatch)
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["chi_n"] == 3
        assert doc["witness"]

    def test_exceeds_max_k(self, capsys, monkeypatch):
        rc, out, _ = run(
            capsys, ["exact", "--max-k", "2"], stdin=K4_G6, monkeypatch=monkeypatch
        )
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["chi_n"] is None and doc["exceeds"] == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (K5_G6, "vertex 0 has degree 4"),
            ("2 3\n0 0\n0 1\n1 1\n", "loop"),
        ],
    )
    def test_solver_precondition_is_input_error(self, capsys, monkeypatch, text, message):
        rc, out, err = run(capsys, ["exact"], stdin=text, monkeypatch=monkeypatch)
        assert rc == EXIT_INPUT and not out
        assert err.startswith("error: ") and message in err

    def test_a_rejected_witness_is_internal(self, capsys, monkeypatch):
        monkeypatch.setattr(coloring_solver, "is_normal", lambda col: (False, {}))
        rc, out, err = run(capsys, ["exact"], stdin=K4_G6, monkeypatch=monkeypatch)
        assert rc == EXIT_VERIFY and not out
        assert err.startswith("internal failure: VerificationError: ")
        assert "Traceback" not in err

    def test_a_verdict_without_witness_is_internal(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "exact_chi_n", lambda g, k, b: SolverResult(3, None, 6, False))
        rc, out, err = run(capsys, ["exact"], stdin=K4_G6, monkeypatch=monkeypatch)
        assert rc == EXIT_VERIFY and not out
        assert err == "internal failure: VerificationError: the solver reported chi_n without a witness\n"

    def test_the_witness_check_survives_optimize(self, tmp_path):
        script = f"""
from normal7 import cli
from normal7.coloring_solver import SolverResult, exact_chi_n
assert False, "asserts are on"
cli.exact_chi_n = lambda g, k, b: SolverResult(3, None, 6, False)
print(cli.main(["exact", {str(tmp_path / "k4.g6")!r}]))
"""
        (tmp_path / "k4.g6").write_text(K4_G6 + "\n")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == f"{EXIT_VERIFY}\n"
        assert "without a witness" in out.stderr

    def test_budget_is_inconclusive(self, capsys, monkeypatch):
        rc, out, _ = run(
            capsys, ["exact", "--budget", "2"], stdin=PETERSEN_G6,
            monkeypatch=monkeypatch,
        )
        assert rc == EXIT_INCONCLUSIVE
        assert json.loads(out)["inconclusive"] is True


class TestCensus:
    def test_records_and_summary(self, capsys, tmp_path):
        path = tmp_path / "list.g6"
        path.write_text(f"{K4_G6}\nbroken line\n{PETERSEN_G6}\n")
        rc, out, _ = run(capsys, ["census", str(path), "--exact-up-to", "4"])
        assert rc == EXIT_INPUT  # the broken line fails the run
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert len(lines) == 4
        k4_rec, bad_rec, pet_rec, summary = lines
        assert k4_rec["graph6"] == K4_G6
        assert k4_rec["verified"] is True
        assert k4_rec["bridges"] == 0
        assert k4_rec["exact_chi"] == 3 and k4_rec["solver_nodes"] > 0
        assert k4_rec["elapsed_ms"] >= 0
        assert "error" in bad_rec
        assert pet_rec["exact_chi"] is None  # above the exact-up-to bound
        assert summary["summary"] is True
        assert summary["graphs"] == 3 and summary["failures"] == 1
        assert summary["exact_chi_histogram"] == {"3": 1}
        assert summary["solver_nodes"] == k4_rec["solver_nodes"] + pet_rec["solver_nodes"]
        # the latencies of every line, the failed one too, by nearest rank
        low, mid, high = sorted(rec["elapsed_ms"] for rec in (k4_rec, bad_rec, pet_rec))
        assert summary["elapsed_ms_p50"] == mid
        assert summary["elapsed_ms_p95"] == summary["elapsed_ms_max"] == high

    def test_summary_percentiles_by_nearest_rank(self):
        values = [float(v) for v in range(1, 21)]
        assert [cli._nearest_rank(values, p) for p in (50, 95, 100)] == [10.0, 19.0, 20.0]
        assert cli._nearest_rank([7.0], 50) == 7.0
        assert cli._nearest_rank([], 95) is None

    @pytest.mark.parametrize(
        "jobs, cpus, workers", [(1000, 8, [3]), (1000, 2, [2]), (2, None, []), (1, 8, [])]
    )
    def test_jobs_start_no_more_workers_than_lines_or_cpus(
        self, capsys, monkeypatch, tmp_path, jobs, cpus, workers
    ):
        started = []

        class InProcessPool:  # records the pool size, starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # _census_records imports the pool class from concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        path = tmp_path / "list.g6"
        path.write_text(f"{K4_G6}\n{PETERSEN_G6}\n{PRISM_G6}\n")
        rc, out, _ = run(capsys, ["census", str(path), "--jobs", str(jobs)])
        assert rc == EXIT_OK and len(out.splitlines()) == 4
        assert started == workers

    def test_a_serial_run_loads_no_process_pool(self, tmp_path):
        script = f"""
import sys
from normal7 import cli
print(cli.main(["census", {str(tmp_path / "list.g6")!r}]) == 0, file=sys.stderr)
print(sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent.futures.process"))), file=sys.stderr)
"""
        (tmp_path / "list.g6").write_text(f"{K4_G6}\n{PETERSEN_G6}\n")
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stderr == "True\n[]\n"

    def test_parallel_jobs_match_serial_order(self, capsys, tmp_path):
        path = tmp_path / "list.g6"
        path.write_text(f"{K4_G6}\n{PETERSEN_G6}\n{DOUBLE_GADGET_G6}\n")
        rc1, out1, _ = run(capsys, ["census", str(path)])
        rc2, out2, _ = run(capsys, ["census", str(path), "--jobs", "2"])
        assert rc1 == rc2 == EXIT_OK

        def strip_timing(text):
            rows = []
            for ln in text.splitlines():
                doc = json.loads(ln)
                # each line's elapsed_ms and the summary's percentiles of them
                rows.append({k: v for k, v in doc.items() if not k.startswith("elapsed_ms")})
            return rows

        assert strip_timing(out1) == strip_timing(out2)

    @pytest.mark.parametrize(
        "bad_lines, code",
        [
            (["broken line"], EXIT_INPUT),  # not graph6
            ([PRISM_G6], EXIT_VERIFY),  # a valid line the pipeline fails on
            (["broken line", PRISM_G6], EXIT_VERIFY),  # the higher code wins
        ],
    )
    def test_failed_lines_set_the_exit_code(
        self, capsys, tmp_path, pipeline_fails_on_prism, bad_lines, code
    ):
        path = tmp_path / "list.g6"
        path.write_text("\n".join([K4_G6, *bad_lines]) + "\n")
        rc, out, _ = run(capsys, ["census", str(path)])
        assert rc == code
        assert json.loads(out.splitlines()[-1])["failures"] == len(bad_lines)

    @pytest.mark.parametrize(
        "bad_lines, code",
        [
            ([], EXIT_INCONCLUSIVE),
            (["broken line"], EXIT_INCONCLUSIVE),  # 3 outranks 2
            ([PRISM_G6], EXIT_VERIFY),  # 4 outranks 3
        ],
    )
    def test_a_budget_exhausted_exact_run_is_inconclusive(
        self, capsys, tmp_path, pipeline_fails_on_prism, bad_lines, code
    ):
        path = tmp_path / "list.g6"
        path.write_text("\n".join([PETERSEN_G6, *bad_lines]) + "\n")
        rc, out, _ = run(
            capsys, ["census", str(path), "--exact-up-to", "10", "--budget", "2"]
        )
        assert rc == code
        lines = [json.loads(ln) for ln in out.splitlines()]
        pet_rec, summary = lines[0], lines[-1]
        assert pet_rec["inconclusive"] is True and pet_rec["exact_chi"] is None
        assert summary["inconclusive"] == 1 and summary["failures"] == len(bad_lines)

    def test_a_non_cubic_line_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "list.g6"
        path.write_text(f"{K4_G6}\n{K5_G6}\n")
        rc, out, err = run(capsys, ["census", str(path)])
        assert rc == EXIT_INPUT
        assert err == f"error: {K5_G6}: InputError: input graph is not cubic: vertex 0 has degree 4\n"
        k4_rec, k5_rec, summary = (json.loads(ln) for ln in out.splitlines())
        assert k4_rec["verified"] is True
        assert k5_rec["error"] == "InputError: input graph is not cubic: vertex 0 has degree 4"
        assert summary["failures"] == 1

    def test_census_line_isolates_failures(self):
        rec = census_line("garbage!!", exact_up_to=0, budget=None)
        assert "error" in rec and rec["graph6"] == "garbage!!"


class TestWitnessReuse:
    """A census line's verified pipeline coloring is the witness for
    chi'_N = colors_used once the solver refutes every smaller palette.  The
    double gadget has chi'_N = 7.  Its first bridge side refutes palettes 3,
    5 and 6 in 33, 124 and 151 nodes, as many as the whole-graph searches
    take, so the whole graph is not searched below 7.  At k = 7 both sides
    are colored, in 157 and 155 nodes, and the whole graph in 857."""

    def test_only_the_smaller_palettes_are_searched(self):
        rec = census_line(DOUBLE_GADGET_G6, exact_up_to=10, budget=None)
        assert rec["verified"] is True and rec["colors_used"] == 7
        assert (rec["exact_chi"], rec["solver_nodes"]) == (7, 33 + 124 + 151)

    @pytest.mark.parametrize(
        "budget, exact_chi", [(150, None), (151, 7)], ids=["k6-cut", "k6-refuted"]
    )
    def test_a_budget_cut_below_colors_used_is_inconclusive(self, budget, exact_chi):
        rec = census_line(DOUBLE_GADGET_G6, exact_up_to=10, budget=budget)
        assert rec["exact_chi"] == exact_chi
        assert rec.get("inconclusive", False) is (exact_chi is None)

    def test_an_unverified_coloring_is_no_witness(self, monkeypatch):
        # the record's verified field is the pipeline's own is_normal check:
        # a coloring that fails it never reaches the solver
        monkeypatch.setattr(normal7_pipeline, "is_normal", lambda col: (False, {}))
        calls = []
        monkeypatch.setattr(cli, "exact_chi_n", lambda *args: calls.append(args))
        rec = census_line(DOUBLE_GADGET_G6, exact_up_to=10, budget=None)
        assert rec["error"] == "PipelineVerificationError: assembled coloring is not normal"
        assert "verified" not in rec and "exact_chi" not in rec and not calls
        # without a witness the solver finds its own at k = 7
        res = exact_chi_n(parse_graph6(DOUBLE_GADGET_G6), 7, None)
        assert (res.chi, res.nodes_explored) == (7, 33 + 124 + 151 + 157 + 155 + 857)
        res = exact_chi_n(parse_graph6(DOUBLE_GADGET_G6), 7, 151)
        assert res.chi is None and res.timed_out


class TestNonAsciiInput:
    """The bytes C, 0xc3, 0xa9 ("C" then an e-acute in UTF-8) are not graph6."""

    RAW = b"C\xc3\xa9\n"

    @pytest.mark.parametrize("command", ["color", "exact", "census"])
    @pytest.mark.parametrize("source", ["file", "utf8_stdin", "ascii_stdin"])
    def test_is_an_input_error(self, capsys, monkeypatch, tmp_path, command, source):
        if source == "file":
            path = tmp_path / "g.g6"
            path.write_bytes(self.RAW)
            argv = [command, str(path)]
        else:
            encoding = "utf-8" if source == "utf8_stdin" else "ascii"
            stdin = io.TextIOWrapper(io.BytesIO(self.RAW), encoding=encoding)
            monkeypatch.setattr("sys.stdin", stdin)
            argv = [command, "-"]
        rc, _, err = run(capsys, argv)
        assert rc == EXIT_INPUT
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("raw,offset", [(RAW, 1), (b"C\xff\n", 1)])
    def test_census_file_rejects_only_the_bad_line(self, capsys, tmp_path, raw, offset):
        path = tmp_path / "census.g6"
        path.write_bytes(K4_G6.encode() + b"\n" + raw)
        rc, out, err = run(capsys, ["census", str(path)])
        assert rc == EXIT_INPUT
        good, bad, summary = [json.loads(ln) for ln in out.splitlines()]
        assert good["graph6"] == K4_G6 and good["verified"]
        assert bad["error"].startswith("Graph6Error:")
        assert f"offset {offset}" in bad["error"]
        assert summary["graphs"] == 2 and summary["failures"] == 1
        assert err.startswith("error:") and "Traceback" not in err


class TestCertify:
    def test_single_claim(self, capsys):
        rc, out, _ = run(capsys, ["certify", "fig6-flow-poor"])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["claim"] == "fig6-flow-poor"
        assert doc["verdict"] == "holds"

    def test_unknown_claim(self, capsys):
        rc, _, err = run(capsys, ["certify", "nonsense"])
        assert rc == EXIT_INPUT
        assert "unknown claims" in err

    def test_no_claims(self, capsys):
        rc, _, err = run(capsys, ["certify"])
        assert rc == EXIT_INPUT
        assert "--all" in err


class TestOptionRanges:
    """Counts out of range are usage errors, exit 2, before any input is read
    (a negative budget read as inconclusive, a negative --max-k as exceeded,
    --jobs below 1 as one job, and a negative --exact-up-to as no exact run)."""

    @pytest.mark.parametrize(
        "argv, option, message",
        [
            (["census", "--jobs", "0"], "--jobs", "must be at least 1, got 0"),
            (["census", "--jobs", "-2"], "--jobs", "must be at least 1, got -2"),
            (["census", "--budget", "-1"], "--budget", "must be at least 0, got -1"),
            (["exact", "--budget", "-1"], "--budget", "must be at least 0, got -1"),
            (["exact", "--max-k", "-3"], "--max-k", "must be at least 0, got -3"),
            (["exact", "--max-k", "three"], "--max-k", "invalid int value: 'three'"),
            (["census", "--exact-up-to", "-1"], "--exact-up-to", "must be at least 0, got -1"),
        ],
        ids=[
            "jobs-0", "jobs-negative", "census-budget", "exact-budget", "max-k", "max-k-text",
            "exact-up-to",
        ],
    )
    def test_out_of_range_is_a_usage_error(self, capsys, argv, option, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"argument {option}: {message}" in err

    @pytest.mark.parametrize(
        "argv", [["census", "--jobs", "1"], ["exact", "--max-k", "0"]], ids=["jobs-1", "max-k-0"]
    )
    def test_the_least_value_is_accepted(self, capsys, monkeypatch, argv):
        rc, out, _ = run(capsys, argv, stdin=K4_G6, monkeypatch=monkeypatch)
        assert rc == EXIT_OK and out
