"""Property tests: graph6 decoding, search checkpoints and `trideg check`
take arbitrary input and fail only with their documented errors, and the
canonical labeler agrees with its brute-force definition."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
import trideg.bounds as bounds  # noqa: E402
import trideg.cli as cli  # noqa: E402
import trideg.search as search  # noqa: E402
from trideg.graph6 import Graph6Error, decode, encode  # noqa: E402
from trideg.graphs import Graph  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(st.binary(max_size=40))
def test_decode_arbitrary_bytes_raises_only_graph6_errors(data):
    try:
        g = decode(data)
    except Graph6Error:
        return
    assert encode(g).encode("ascii") == data  # whatever decodes re-encodes to itself


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
        search.enumerate_td(7, workers=1, checkpoint_path=path, chunk_limit=20)
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
    for g, hits in classes.values():
        assert g.n == 7 and hits >= 1


@settings(SETTINGS, max_examples=100)
@given(graphs(max_order=7), st.data())
def test_canonical_form_is_the_brute_force_string_under_relabeling(g, data):
    h = oracles.relabel(g, data.draw(st.permutations(range(g.n))))
    assert search.canonical_form(g) == oracles.canonical_form_brute(g) == search.canonical_form(h)
    assert search.automorphism_count(h) == oracles.automorphism_count_slow(g)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
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
