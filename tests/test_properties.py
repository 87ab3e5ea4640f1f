"""Property tests: graph6 decoding, search checkpoints and the CLI
subcommands take arbitrary input and fail only with their documented errors
and exit codes, and the canonical labeler agrees with its brute-force
definition."""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from conftest import stop_after  # noqa: E402
import trideg.bounds as bounds  # noqa: E402
import trideg.cli as cli  # noqa: E402
import trideg.search as search  # noqa: E402
from trideg.graph6 import Graph6Error, _decode_order, _encode_order, decode, encode  # noqa: E402
from trideg.graphs import Graph  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@example(b"~??FBnnw")  # order 7 under the four-byte and the eight-byte header
@example(b"~~?????FBnnw")
@given(st.binary(max_size=40))
def test_decode_arbitrary_bytes_raises_only_graph6_errors(data):
    try:
        g = decode(data)
    except Graph6Error:
        return
    # a header longer than the order needs is valid; encode writes the
    # shortest, with the input's body behind it
    text = encode(g).encode("ascii")
    assert decode(text) == g
    assert text[len(_encode_order(g.n)) :] == data[_decode_order(data)[1] :]


@st.composite
def graphs(draw, max_order=70):
    n = draw(st.integers(0, max_order))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    rows = [0] * n
    for i, j in chosen:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, rows)


@SETTINGS
@given(graphs())
def test_encode_decode_round_trip(g):
    assert decode(encode(g)) == g


CONFIG = {"order": 7, "regular": -1, "max_edges": -1}


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """A real order-7 checkpoint, interrupted after 20 of 32 slices, which
    holds the order-7 class."""
    path = str(tmp_path_factory.mktemp("ckpt") / "scan.ckpt")
    with pytest.raises(search.SearchInterrupted):
        search.enumerate_td(7, workers=1, checkpoint_path=path, progress=stop_after(20))
    with open(path, "rb") as fh:
        data = fh.read()
    cursor, classes = search._read_checkpoint(path, CONFIG)
    assert cursor == 20 and len(classes) == 1
    return data


mutations = st.lists(
    st.tuples(st.sampled_from(("replace", "insert", "delete")), st.integers(0, 10**6), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


@SETTINGS
@given(mutations)
def test_mutated_checkpoint_raises_only_checkpoint_or_config_errors(tmp_path_factory, checkpoint_bytes, edits):
    data = bytearray(checkpoint_bytes)
    for kind, pos, byte in edits:
        pos %= len(data) + (kind == "insert")
        if kind == "replace" and pos < len(data):
            data[pos] = byte
        elif kind == "insert":
            data.insert(pos, byte)
        elif data:
            del data[pos % len(data)]
    path = tmp_path_factory.mktemp("mut") / "scan.ckpt"
    path.write_bytes(bytes(data))
    try:
        cursor, classes = search._read_checkpoint(str(path), CONFIG)
    except search.CheckpointError as exc:
        assert str(path) in str(exc)
        return
    except ValueError as exc:
        assert type(exc) is ValueError and "does not match this run" in str(exc)
        return
    assert 0 <= cursor <= search._slice_count(7)
    for g in classes.values():
        assert g.n == 7 and search.is_triangle_distinct(g)


@settings(SETTINGS, max_examples=100)
@given(graphs(max_order=7), st.data())
def test_canonical_form_is_the_brute_force_string_under_relabeling(g, data):
    h = oracles.relabel(g, data.draw(st.permutations(range(g.n))))
    assert search.canonical_form(g) == oracles.canonical_form_brute(g) == search.canonical_form(h)
    assert search.automorphism_count(h) == oracles.automorphism_count_slow(g)


def run_cli(argv):
    """(exit code, stderr) of one in-process CLI run; argparse's usage
    errors exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


graph6_ish = st.text(st.sampled_from([chr(c) for c in range(63, 127)] + ["\n", "#", ">"]), max_size=120)


@pytest.fixture(scope="module")
def check_input(tmp_path_factory):
    return tmp_path_factory.mktemp("check") / "in.g6"


@SETTINGS
@given(st.one_of(st.binary(max_size=120), graph6_ish.map(str.encode)))
def test_check_arbitrary_file_exits_0_or_3(check_input, data):
    check_input.write_bytes(data)
    code, err = run_cli(["check", "--in", str(check_input)])
    assert code in (0, 3), err
    assert "Traceback" not in err
    assert (code == 3) == bool(err)


@settings(SETTINGS, max_examples=50)
@given(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12), st.sampled_from(sorted(bounds._ALL_CHECKS)))
def test_check_unknown_bound_name_exits_2(check_input, name, known):
    hypothesis.assume(name not in bounds._ALL_CHECKS and name != "all")
    check_input.write_text("FBnnw\n")  # the order-7 class: every bound applies
    for names in (name, "%s,%s" % (known, name)):
        code, err = run_cli(["check", "--in", str(check_input), "--bounds", names])
        assert code == 2 and "unknown bound names" in err


# ---------------------------------------------------------------------------
# exit codes: 0 success, 1 interrupted with a resumable checkpoint, 2 usage
# or domain errors, 3 I/O and parse errors (cli module docstring)

EXIT = {"ok": 0, "interrupted": 1, "usage": 2, "io": 3}


@settings(SETTINGS, max_examples=100)
@given(
    n=st.sampled_from([-1, 1, 2, 3, 4, 5, 6, 6, 10]),
    regular=st.booleans(),
    max_edges=st.sampled_from([None, None, -1, 0, 5, 9, 15]),
    workers=st.sampled_from([None, None, 1, 2, 0]),
    checkpoint=st.none() | st.binary(max_size=60),
    interrupt=st.booleans(),
    json_ok=st.booleans(),
)
def test_search_errors_map_to_exit_codes(n, regular, max_edges, workers, checkpoint, interrupt, json_ok):
    # checkpoint: the bytes of a file already at the checkpoint path (a probe
    # keeps one per degree); interrupt: a Ctrl-C during the extension
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "scan.ckpt")
        argv = ["search", "--n", str(n), "--quiet", "--checkpoint", ckpt]
        argv += ["--json", os.path.join(tmp, "report.json" if json_ok else "missing/report.json")]
        if regular:
            argv.append("--regular")
        if max_edges is not None:
            argv.append("--max-edges=%d" % max_edges)
        if workers is not None:
            argv.append("--workers=%d" % workers)
        degrees = search.regular_window_degrees(n) if regular and 2 <= n <= 9 else ()
        scans = len(degrees) if regular else 1
        if checkpoint is not None:
            for path in ["%s.d%d" % (ckpt, d) for d in degrees] if regular else [ckpt]:
                with open(path, "wb") as fh:
                    fh.write(checkpoint)
        if (workers is not None and workers < 1) or (regular and max_edges is not None):
            want = "usage"  # rejected by the argument parser
        elif not 2 <= n <= 9 or (max_edges is not None and max_edges < 0):
            want = "usage"
        elif checkpoint is not None and scans:
            want = "io"  # no real checkpoint: wrong magic line or checksum
        elif interrupt and scans:
            want = "interrupted"
        else:
            want = "ok" if json_ok else "io"
        stop = mock.patch.object(search, "_extend_slice", side_effect=KeyboardInterrupt)
        with stop if interrupt else contextlib.nullcontext():
            code, err = run_cli(argv)
        assert code == EXIT[want], (want, err)
        assert "Traceback" not in err
        if want == "interrupted":  # the first scan stopped, its checkpoint kept
            first = "%s.d%d" % (ckpt, degrees[0]) if regular else ckpt
            assert "resume from %s" % first in err and os.path.exists(first)


@settings(SETTINGS, max_examples=60)
@given(
    n_max=st.sampled_from([-1, 0, 1, 2, 3, 4, 7, 40]),
    samples=st.integers(-1, 4),
    pairs=st.integers(-1, 4),
    seed=st.integers(0, 2**32),
    json_ok=st.booleans(),
)
def test_verify_errors_map_to_exit_codes(n_max, samples, pairs, seed, json_ok):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", "--n-max=%d" % n_max, "--samples=%d" % samples, "--pairs=%d" % pairs]
        argv += ["--seed=%d" % seed, "--json", os.path.join(tmp, "ok.json" if json_ok else "missing/v.json")]
        if not 1 <= n_max <= 6 or samples < 0 or pairs < 0:
            want = "usage"
        else:
            want = "ok" if json_ok else "io"
        code, err = run_cli(argv)
        assert code == EXIT[want], (want, err)
        assert "Traceback" not in err


def graph6_file_kind(data):
    """What the CLI's graph6 reader makes of a file: 'io' when it is not
    UTF-8 text or a line does not decode, else 'empty' or 'graphs'."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return "io"
    found = False
    for line in text.splitlines():
        line = line.strip().removeprefix(">>graph6<<").strip()
        if line and not line.startswith("#"):
            try:
                decode(line)
            except Graph6Error:
                return "io"
            found = True
    return "graphs" if found else "empty"


graph6_files = st.one_of(
    st.binary(max_size=30),
    st.text(st.sampled_from([chr(c) for c in range(63, 127)] + ["\n", "#", ">"]), max_size=30).map(str.encode),
    st.tuples(st.sampled_from(["", "# a comment\n", ">>graph6<<"]), graphs(max_order=6)).map(
        lambda pair: (pair[0] + encode(pair[1]) + "\n").encode()
    ),
)


@settings(SETTINGS, max_examples=150)
@given(g_data=graph6_files, h_data=graph6_files, json_ok=st.booleans())
def test_compose_errors_map_to_exit_codes(g_data, h_data, json_ok):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in (("g.g6", g_data), ("h.g6", h_data)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "wb") as fh:
                fh.write(data)
        argv = ["compose", "--g", paths[0], "--h", paths[1]]
        argv += ["--json", os.path.join(tmp, "ok.json" if json_ok else "missing/c.json")]
        kinds = {graph6_file_kind(g_data), graph6_file_kind(h_data)}
        if "io" in kinds:
            want = "io"
        elif "empty" in kinds:
            want = "usage"
        else:
            want = "ok" if json_ok else "io"
        code, err = run_cli(argv)
        assert code == EXIT[want], (want, err)
        assert "Traceback" not in err
