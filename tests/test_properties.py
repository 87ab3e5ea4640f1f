"""Property tests: graph6 decoding and search checkpoints take arbitrary
input and fail only with their documented errors."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
def graphs(draw):
    n = draw(st.integers(0, 70))
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
