import io
import json

import pytest

import trideg.cli as cli
import trideg.search as search
from trideg.bounds import BoundEntry, BoundsReport
from trideg.construction import CertificationError
from trideg.graph6 import encode
from trideg.graphs import complete_graph, cycle_graph
from trideg.search import SearchInterrupted


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_construct_graph6(capsys, g7):
    code, out, err = run(["construct", "--n", "7", "--emit", "graph6"], capsys)
    assert code == 0
    assert out.strip() == encode(g7.graph)


def test_construct_edges(capsys, g7):
    code, out, _ = run(["construct", "--n", "7", "--emit", "edges"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    assert all(len(line.split()) == 2 for line in lines)


def test_construct_json_and_out_file(capsys, tmp_path):
    target = tmp_path / "g.json"
    code, out, _ = run(
        ["construct", "--n", "9", "--emit", "json", "--out", str(target)], capsys
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["kind"] == "construct"
    assert payload["n"] == 9 and payload["m"] == 24
    assert payload["certificate"]["passed"] is True
    assert payload["rank_to_vertex_1based"][0] >= 1


def test_construct_bad_order(capsys):
    code, _, err = run(["construct", "--n", "5"], capsys)
    assert code == 2
    assert "smallest constructible order" in err


def test_construct_certification_failure_is_exit_4(capsys, monkeypatch):
    def broken(n):
        raise CertificationError("forced")

    monkeypatch.setattr(cli, "construct", broken)
    code, _, err = run(["construct", "--n", "7"], capsys)
    assert code == 4
    assert "certification" in err


def test_check_mixed_input(capsys, tmp_path, g7):
    src = tmp_path / "graphs.g6"
    src.write_text(
        "# comment line\n"
        ">>graph6<<%s\n"
        "\n"
        "%s\n" % (encode(g7.graph), encode(cycle_graph(5)))
    )
    report = tmp_path / "report.json"
    code, out, _ = run(["check", "--in", str(src), "--json", str(report)], capsys)
    assert code == 0
    assert "triangle-distinct, bounds hold" in out
    assert "not triangle-distinct" in out
    payload = json.loads(report.read_text())
    assert payload["kind"] == "check"
    assert payload["any_violation"] is False
    recs = payload["graphs"]
    assert [r["triangle_distinct"] for r in recs] == [True, False]
    assert recs[0]["bounds"]["entries"]
    assert recs[1]["bounds"] is None


def test_check_stdin(capsys, monkeypatch, g7):
    monkeypatch.setattr("sys.stdin", io.StringIO(encode(g7.graph) + "\n"))
    code, out, _ = run(["check", "--in", "-"], capsys)
    assert code == 0
    assert "bounds hold" in out


def test_check_parse_error_carries_line_number(capsys, tmp_path):
    src = tmp_path / "bad.g6"
    src.write_text("Bw\n*nope*\n")
    code, _, err = run(["check", "--in", str(src)], capsys)
    assert code == 3
    assert "line 2" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(["check", "--in", str(tmp_path / "absent.g6")], capsys)
    assert code == 3


def test_check_unknown_bound_name(capsys, tmp_path, g7):
    src = tmp_path / "g.g6"
    src.write_text(encode(g7.graph) + "\n")
    code, _, err = run(["check", "--in", str(src), "--bounds", "nope"], capsys)
    assert code == 2
    assert "unknown bound names" in err


def test_check_violation_is_exit_4(capsys, tmp_path, monkeypatch, g7):
    src = tmp_path / "g.g6"
    src.write_text(encode(g7.graph) + "\n")
    fake = BoundsReport(
        order=7,
        size=15,
        entries=(
            BoundEntry("max_degree_lb", 1, 2, ">", "violated", "forced"),
        ),
    )
    monkeypatch.setattr(cli.bounds_mod, "check_all", lambda g, names=None: fake)
    code, out, err = run(["check", "--in", str(src)], capsys)
    assert code == 4
    assert "VIOLATION" in out
    assert "bug signal" in err


def test_search_json_report(capsys, tmp_path):
    report = tmp_path / "search.json"
    code, out, _ = run(
        ["search", "--n", "4", "--workers", "1", "--json", str(report), "--quiet"],
        capsys,
    )
    assert code == 0
    assert "0 labeled triangle-distinct graphs" in out
    payload = json.loads(report.read_text())
    assert payload["kind"] == "search"
    assert payload["order"] == 4
    assert payload["td_labeled"] == 0


def test_search_stdout_byte_deterministic(capsys):
    code1, out1, _ = run(["search", "--n", "4", "--workers", "2", "--quiet"], capsys)
    code2, out2, _ = run(["search", "--n", "4", "--workers", "1", "--quiet"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_domain_errors(capsys):
    code, _, err = run(["search", "--n", "12", "--quiet"], capsys)
    assert code == 2
    code, _, err = run(["search", "--n", "9", "--quiet"], capsys)
    assert code == 2
    assert "long" in err.lower()


def test_search_negative_max_edges_is_exit_2(capsys):
    code, _, err = run(["search", "--n", "5", "--max-edges", "-1", "--quiet"], capsys)
    assert code == 2
    assert "max_edges" in err


def test_search_regular_with_max_edges_is_exit_2(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["search", "--n", "6", "--regular", "--max-edges", "9", "--quiet"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "--regular" in err and "--max-edges" in err


def test_search_worker_flag_validation(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["search", "--n", "4", "--workers", "0"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_search_bad_env_workers(capsys, monkeypatch):
    monkeypatch.setenv("TRIDEG_WORKERS", "lots")
    code, _, err = run(["search", "--n", "4", "--quiet"], capsys)
    assert code == 2
    assert "TRIDEG_WORKERS" in err


def test_search_interrupt_maps_to_exit_1(capsys, monkeypatch):
    def stopped(*args, **kwargs):
        raise SearchInterrupted("stopped after 1 chunks", "/tmp/ck", 64, 128)

    monkeypatch.setattr(cli, "enumerate_td", stopped)
    code, _, err = run(["search", "--n", "5", "--quiet"], capsys)
    assert code == 1
    assert "interrupted" in err


def test_search_regular_probe(capsys):
    code, out, _ = run(
        ["search", "--n", "6", "--regular", "--workers", "1", "--quiet"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regular_degrees"] == [4]
    assert payload["td_labeled"] == 0


def test_verify_small(capsys):
    code, out, err = run(
        ["verify", "--n-max", "3", "--samples", "5", "--pairs", "5", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "0 failed" in out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["kind"] == "verify"
    assert payload["failures"] == []
    totals = payload["totals"]
    # orders 1..3: 1 + 2 + 8 graphs, two identities per vertex
    exhaustive_vertices = 1 * 1 + 2 * 2 + 8 * 3
    assert totals["complement_sum"]["checked"] >= exhaustive_vertices
    assert totals["composition"]["checked"] > 0


def test_verify_rejects_large_cap(capsys):
    code, _, err = run(["verify", "--n-max", "7"], capsys)
    assert code == 2
    assert "order 6" in err


def test_compose_command(capsys, tmp_path):
    gfile = tmp_path / "g.g6"
    hfile = tmp_path / "h.g6"
    gfile.write_text(encode(complete_graph(3)) + "\n")
    hfile.write_text(encode(complete_graph(2)) + "\n")
    report = tmp_path / "compose.json"
    code, out, _ = run(
        ["compose", "--g", str(gfile), "--h", str(hfile), "--json", str(report)],
        capsys,
    )
    assert code == 0
    assert "composition: n=6 m=15" in out
    payload = json.loads(report.read_text())
    assert payload["all_hold"] is True
    assert len(payload["checks"]) == 6


def test_compose_empty_input(capsys, tmp_path):
    gfile = tmp_path / "g.g6"
    hfile = tmp_path / "h.g6"
    gfile.write_text("")
    hfile.write_text(encode(complete_graph(2)) + "\n")
    code, _, err = run(["compose", "--g", str(gfile), "--h", str(hfile)], capsys)
    assert code == 2


def test_json_files_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            ["search", "--n", "5", "--workers", "2", "--json", str(path), "--quiet"],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_unwritable_checkpoint_is_exit_3(capsys, tmp_path):
    target = tmp_path / "missing" / "scan.ckpt"
    code, _, err = run(
        ["search", "--n", "5", "--workers", "1", "--quiet", "--checkpoint", str(target)], capsys
    )
    assert code == 3
    assert str(target) in err


def test_search_unwritable_json_is_exit_3(capsys, tmp_path):
    target = tmp_path / "missing" / "search.json"
    code, _, err = run(
        ["search", "--n", "4", "--workers", "1", "--quiet", "--json", str(target)], capsys
    )
    assert code == 3
    assert str(target) in err


def test_construct_unwritable_out_is_exit_3(capsys, tmp_path):
    target = tmp_path / "missing" / "g.g6"
    code, out, err = run(["construct", "--n", "7", "--emit", "graph6", "--out", str(target)], capsys)
    assert code == 3 and out == ""
    assert str(target) in err


def test_check_unwritable_json_is_exit_3(capsys, tmp_path, g7):
    src = tmp_path / "g.g6"
    src.write_text(encode(g7.graph) + "\n")
    target = tmp_path / "missing" / "report.json"
    code, _, err = run(["check", "--in", str(src), "--json", str(target)], capsys)
    assert code == 3
    assert str(target) in err


# A checkpoint for `search --n 5`: one chunk of 2^10 counters, nothing scanned.
_CKPT_HEADER = [
    "trideg-checkpoint v1",
    "order=5",
    "regular=-1",
    "max_edges=-1",
    "range_start=0",
    "range_end=1024",
    "cursor=0",
    "visited=0",
    "candidates=0",
    "hits:",
]


def _resume(capsys, tmp_path, lines):
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text("\n".join(lines) + "\n")
    argv = ["search", "--n", "5", "--workers", "1", "--quiet", "--checkpoint", str(ckpt)]
    return (*run(argv, capsys), str(ckpt))


def test_checkpoint_resumes_with_old_prune_line(capsys, tmp_path):
    _, fresh, _ = run(["search", "--n", "5", "--workers", "1", "--quiet"], capsys)
    code, out, _, _ = _resume(capsys, tmp_path, _CKPT_HEADER[:4] + ["prune=1"] + _CKPT_HEADER[4:])
    assert code == 0 and out == fresh


def test_checkpoint_non_integer_value_is_exit_3(capsys, tmp_path):
    lines = [ln.replace("cursor=0", "cursor=abc") for ln in _CKPT_HEADER]
    code, _, err, path = _resume(capsys, tmp_path, lines)
    assert code == 3
    assert path in err and "line 7" in err and "cursor=abc" in err


def test_checkpoint_missing_key_is_exit_3(capsys, tmp_path):
    lines = [ln for ln in _CKPT_HEADER if not ln.startswith("visited=")]
    code, _, err, path = _resume(capsys, tmp_path, lines)
    assert code == 3
    assert path in err and "visited" in err


def test_checkpoint_undecodable_hit_is_exit_3(capsys, tmp_path):
    code, _, err, path = _resume(capsys, tmp_path, _CKPT_HEADER + ["D??", "D\x7f!"])
    assert code == 3
    assert path in err and "line 12" in err


def test_checkpoint_config_mismatch_stays_exit_2(capsys, tmp_path):
    lines = [ln.replace("max_edges=-1", "max_edges=3") for ln in _CKPT_HEADER]
    code, _, err, path = _resume(capsys, tmp_path, lines)
    assert code == 2
    assert path in err and "max_edges" in err


def test_search_miscounted_classes_is_exit_4(capsys, monkeypatch):
    def one_hit(args):
        _, start, end, _, _ = args
        return end - start, end - start, [start]  # one labeling, one class

    monkeypatch.setattr(search, "_scan_chunk", one_hit)
    with pytest.raises(CertificationError):
        search.enumerate_td(5, workers=1)
    code, out, err = run(["search", "--n", "5", "--workers", "1", "--quiet"], capsys)
    assert code == 4 and out == ""
    assert "certification" in err


def test_checkpoint_cursor_off_chunk_grid_is_exit_3(capsys, tmp_path):
    lines = [ln.replace("cursor=0", "cursor=512") for ln in _CKPT_HEADER]
    lines = [ln.replace("visited=0", "visited=512") for ln in lines]
    code, _, err, path = _resume(capsys, tmp_path, lines)
    assert code == 3
    assert path in err and "cursor=512" in err


def test_checkpoint_visited_off_cursor_is_exit_3(capsys, tmp_path):
    lines = [ln.replace("visited=0", "visited=7") for ln in _CKPT_HEADER]
    code, _, err, path = _resume(capsys, tmp_path, lines)
    assert code == 3
    assert path in err and "visited=7" in err


def test_progress_does_not_change_report_bytes(capsys, tmp_path):
    argv = ["search", "--n", "6", "--workers", "1"]
    code, quiet_out, quiet_err = run(argv + ["--quiet"], capsys)
    assert code == 0 and quiet_err == ""
    code, loud_out, loud_err = run(argv, capsys)
    assert code == 0 and loud_out == quiet_out
    assert loud_err.splitlines()[-1].startswith("scanned 32768 / 32768 counters")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + ["--quiet", "--json", str(a)], capsys)[0] == 0
    assert run(argv + ["--json", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_progress_is_rate_limited(capsys):
    now = [0.0]
    progress = cli._Progress(clock=lambda: now[0])
    total = 1 << 20
    for k in range(1, 257):  # 256 chunks 0.02 s apart, 5.12 s in all
        now[0] = 0.02 * k
        progress(k << 12, total)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 6  # one a second, then the final one
    assert lines[-1].startswith("scanned %d / %d counters, " % (total, total))
    assert "counters/s, ETA 0 s" in lines[-1]
    # a probe's next degree starts a new scan at a lower cursor
    now[0] += 0.02
    progress(1 << 12, total)
    now[0] += 2.0
    progress(1 << 13, total)
    line = capsys.readouterr().err.strip()
    assert line == "scanned 8192 / 1048576 counters, 2048 counters/s, ETA 508 s"
