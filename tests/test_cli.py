import io
import json
import os
import zlib

import pytest

import oracles
import trideg.bounds as bounds
import trideg.cli as cli
import trideg.search as search
from conftest import stop_after
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


def test_check_census_out_of_budget_is_undecided(capsys, tmp_path, monkeypatch, family40):
    src = tmp_path / "g.g6"
    src.write_text(encode(family40[40].graph) + "\n")
    report = tmp_path / "report.json"
    monkeypatch.setattr(bounds, "_CENSUS_NODE_BUDGET", 3)
    code, out, _ = run(["check", "--in", str(src), "--json", str(report)], capsys)
    assert code == 0
    assert "no violation found, census_bound undecided" in out and "bounds hold" not in out
    entries = json.loads(report.read_text())["graphs"][0]["bounds"]["entries"]
    (census,) = [e for e in entries if e["name"] == "census_bound"]
    assert census["status"] == "indeterminate" and census["extra"]["unfinished"]["node_budget"] == 3


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
    for n in ("12", "10", "1"):
        code, _, err = run(["search", "--n", n, "--quiet"], capsys)
        assert code == 2
        assert "orders 2..9" in err
    code, _, err = run(["search", "--n", "10", "--regular", "--quiet"], capsys)
    assert code == 2
    assert "orders 2..9" in err
    # order 9 needs no gate flag any more; the flag itself is gone
    with pytest.raises(SystemExit) as ei:
        cli.main(["search", "--n", "9", "--long-run"])
    assert ei.value.code == 2
    capsys.readouterr()


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


# A checkpoint for `search --n 5`: no slice extended, no class found.
_CKPT_HEADER = [
    "trideg-checkpoint v3",
    "order=5",
    "regular=-1",
    "max_edges=-1",
    "cursor=0",
    "classes:",
]


def _checkpoint_text(lines):
    """The checkpoint file holding these lines, closed by their checksum."""
    body = "\n".join(lines) + "\n"
    return body + "crc32 %08x\n" % zlib.crc32(body.encode())


def _resume(capsys, tmp_path, lines):
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text(_checkpoint_text(lines))
    argv = ["search", "--n", "5", "--workers", "1", "--quiet", "--checkpoint", str(ckpt)]
    return (*run(argv, capsys), str(ckpt))


def test_checkpoint_resumes(capsys, tmp_path):
    _, fresh, _ = run(["search", "--n", "5", "--workers", "1", "--quiet"], capsys)
    code, out, _, path = _resume(capsys, tmp_path, _CKPT_HEADER)
    assert code == 0 and out == fresh
    code, out, _, path = _resume(capsys, tmp_path, _CKPT_HEADER[:4] + ["prune=1"] + _CKPT_HEADER[4:])
    assert code == 0 and out == fresh  # unknown header keys are ignored


def test_checkpoint_counter_format_is_exit_3(capsys, tmp_path):
    # a checkpoint of the retired labeled counter scan cannot be resumed
    ckpt = tmp_path / "scan.ckpt"
    config = {"order": 5, "regular": -1, "max_edges": -1, "range_start": 0, "range_end": 1024}
    oracles.write_counter_checkpoint(str(ckpt), config, 0, 0, 0, [])
    argv = ["search", "--n", "5", "--workers", "1", "--quiet", "--checkpoint", str(ckpt)]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert str(ckpt) in err and "old counter format" in err
    assert ckpt.exists()  # left for the user to delete


def test_checkpoint_hit_count_format_is_exit_3(capsys, tmp_path):
    # a checkpoint of the extension by every G - v, one hit count per class
    lines = ["trideg-checkpoint v2"] + _CKPT_HEADER[1:]
    code, out, err, path = _resume(capsys, tmp_path, lines)
    assert code == 3 and out == ""
    assert path in err and "old hit-count format (trideg-checkpoint v2)" in err
    assert os.path.exists(path)


def test_checkpoint_non_integer_value_is_exit_3(capsys, tmp_path):
    lines = [ln.replace("cursor=0", "cursor=abc") for ln in _CKPT_HEADER]
    code, _, err, path = _resume(capsys, tmp_path, lines)
    assert code == 3
    assert path in err and "line 5" in err and "cursor=abc" in err


def test_checkpoint_missing_key_is_exit_3(capsys, tmp_path):
    lines = [ln for ln in _CKPT_HEADER if not ln.startswith("cursor=")]
    code, _, err, path = _resume(capsys, tmp_path, lines)
    assert code == 3
    assert path in err and "cursor" in err


def test_checkpoint_undecodable_hit_is_exit_3(capsys, tmp_path):
    code, _, err, path = _resume(capsys, tmp_path, _CKPT_HEADER + ["D\x7f!"])
    assert code == 3
    assert path in err and "line 7" in err


def test_checkpoint_non_distinct_class_is_exit_3(capsys, tmp_path):
    # D?? decodes (the empty graph of order 5) but is no triangle-distinct class
    code, _, err, path = _resume(capsys, tmp_path, _CKPT_HEADER + ["D??"])
    assert code == 3
    assert path in err and "line 7" in err and "not triangle-distinct" in err


def test_checkpoint_not_ascii_is_exit_3(capsys, tmp_path):
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_bytes("\n".join(_CKPT_HEADER).encode() + b"\n\xff\n")
    argv = ["search", "--n", "5", "--workers", "1", "--quiet", "--checkpoint", str(ckpt)]
    code, _, err = run(argv, capsys)
    assert code == 3
    assert str(ckpt) in err and "ASCII" in err


def test_checkpoint_config_mismatch_stays_exit_2(capsys, tmp_path):
    lines = [ln.replace("max_edges=-1", "max_edges=3") for ln in _CKPT_HEADER]
    code, _, err, path = _resume(capsys, tmp_path, lines)
    assert code == 2
    assert path in err and "max_edges" in err


def test_checkpoint_without_checksum_is_exit_3(capsys, tmp_path):
    # a checkpoint written before checkpoints carried a checksum line
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text("\n".join(_CKPT_HEADER) + "\n")
    argv = ["search", "--n", "5", "--workers", "1", "--quiet", "--checkpoint", str(ckpt)]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert str(ckpt) in err and "no checksum line" in err


def test_checkpoint_edited_class_line_is_exit_3(capsys, tmp_path, g7):
    # a class line edited to another labeling of a triangle-distinct graph
    # is well formed, so only the checksum tells it from the file the scan
    # wrote
    ckpt = tmp_path / "scan.ckpt"
    with pytest.raises(SearchInterrupted):
        search.enumerate_td(7, workers=1, checkpoint_path=str(ckpt), progress=stop_after(20))
    text = ckpt.read_text()
    head, body = text.split("classes:\n")
    (class_line, checksum) = body.splitlines()
    assert class_line != encode(g7.graph) and checksum.startswith("crc32 ")
    ckpt.write_text("%sclasses:\n%s\n%s\n" % (head, encode(g7.graph), checksum))
    argv = ["search", "--n", "7", "--workers", "1", "--quiet", "--checkpoint", str(ckpt)]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert str(ckpt) in err and "does not match its checksum" in err
    ckpt.write_text(text)  # the file as written resumes
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["td_classes"][0]["graph6"] == "FBnnw"


def test_search_miscounted_classes_is_exit_4(capsys, monkeypatch):
    # the order-7 class is hit once from its parent, which is made to
    # count two automorphisms
    real = search.automorphism_count
    monkeypatch.setattr(search, "automorphism_count", lambda h: real(h) + 1)
    for workers in (1, 2):
        with pytest.raises(CertificationError):
            search.enumerate_td(7, workers=workers)
        code, out, err = run(["search", "--n", "7", "--workers", str(workers), "--quiet"], capsys)
        assert code == 4 and out == ""
        assert "certification" in err and "reached 1 times from its parent" in err
        assert "not |Aut(H)| = 2" in err


def test_checkpoint_cursor_off_chunk_grid_is_exit_3(capsys, tmp_path):
    # an order-5 extension runs in one slice, so the cursor is 0 or 1
    for cursor in ("2", "-1"):
        lines = [ln.replace("cursor=0", "cursor=" + cursor) for ln in _CKPT_HEADER]
        code, _, err, path = _resume(capsys, tmp_path, lines)
        assert code == 3
        assert path in err and "cursor=" + cursor in err


def test_checkpoint_bad_class_line_is_exit_3(capsys, tmp_path, g7):
    header = [ln.replace("order=5", "order=7") for ln in _CKPT_HEADER]
    ckpt = tmp_path / "scan.ckpt"
    argv = ["search", "--n", "7", "--workers", "1", "--quiet", "--checkpoint", str(ckpt)]
    cases = (
        ("FBnnw 1", 7, "expected a graph6 class"),  # a class line of format v2
        ("FBnn", 7, "expected a graph6 class"),
        ("D??", 7, "class of order 5, expected 7"),
        ("FBnnw\n%s" % encode(g7.graph), 8, "repeats the class of FBnnw"),
    )
    for line, lineno, why in cases:
        ckpt.write_text(_checkpoint_text(header + [line]))
        code, _, err = run(argv, capsys)
        assert code == 3, line
        assert str(ckpt) in err and "line %d" % lineno in err and why in err


def test_progress_does_not_change_report_bytes(capsys, tmp_path):
    argv = ["search", "--n", "6", "--workers", "1"]
    code, quiet_out, quiet_err = run(argv + ["--quiet"], capsys)
    assert code == 0 and quiet_err == ""
    code, loud_out, loud_err = run(argv, capsys)
    assert code == 0 and loud_out == quiet_out
    lines = loud_err.splitlines()
    assert lines[0] == "building the graphs of orders 1..5"
    assert lines[-1].startswith("extended 34 / 34 graphs")
    assert lines[1].endswith(" s elapsed") and sum("elapsed" in line for line in lines) == 1
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
    # the first line also says how long the run has taken
    assert lines[0] == "extended 204800 / 1048576 graphs, 204800 graphs/s, ETA 4 s, 1.0 s elapsed"
    assert not any("elapsed" in line for line in lines[1:])
    assert lines[-1].startswith("extended %d / %d graphs, " % (total, total))
    assert "graphs/s, ETA 0 s" in lines[-1]
    # a probe's next degree starts a new scan at a lower cursor
    now[0] += 0.02
    progress(1 << 12, total)
    now[0] += 2.0
    progress(1 << 13, total)
    line = capsys.readouterr().err.strip()
    assert line == "extended 8192 / 1048576 graphs, 2048 graphs/s, ETA 508 s"


def test_check_tests_each_graph_once(capsys, monkeypatch, tmp_path, g7, family40):
    # one triangle-degree pass per input graph, whether it is
    # triangle-distinct or not: the bounds' facts pass, whose degrees the
    # record reads; no separate distinctness test and no second pass run
    graphs = [g7.graph, cycle_graph(5), family40[20].graph, complete_graph(4)]
    src = tmp_path / "graphs.g6"
    src.write_text("".join(encode(g) + "\n" for g in graphs))
    report = tmp_path / "report.json"
    calls = []

    def counted(real):
        def fn(g):
            calls.append(g)
            return real(g)

        return fn

    monkeypatch.setattr(bounds, "triangle_degrees", counted(bounds.triangle_degrees))
    monkeypatch.setattr(cli, "triangle_degrees", counted(cli.triangle_degrees))
    monkeypatch.setattr(cli, "is_triangle_distinct", counted(cli.is_triangle_distinct))
    code, out, _ = run(["check", "--in", str(src), "--json", str(report)], capsys)
    assert code == 0
    assert out.count("bounds hold") == 2 and out.count("not triangle-distinct") == 2
    assert calls == graphs
    recs = json.loads(report.read_text())["graphs"]
    assert [r["triangle_degrees"] for r in recs] == [
        sorted(oracles.triangle_list_slow(g), reverse=True) for g in graphs
    ]


def test_check_record_normalises_a_long_form_header(capsys, tmp_path, g7):
    # graph6 allows the four-byte header for any order; the record gives
    # the short form encode writes, with the line's own body behind it
    short = encode(g7.graph)
    long_form = "~??F" + short[1:]  # order 7 as 18 bits: 0, 0, 7
    src = tmp_path / "g.g6"
    src.write_text("%s\n%s\n" % (long_form, short))
    report = tmp_path / "report.json"
    code, _, _ = run(["check", "--in", str(src), "--json", str(report)], capsys)
    assert code == 0
    recs = json.loads(report.read_text())["graphs"]
    assert [r["graph6"] for r in recs] == [short, short]
    assert recs[0] == dict(recs[1], line=1)
