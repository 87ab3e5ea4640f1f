import random

import pytest

import oracles
from conftest import all_graphs
from trideg.construction import construct
from trideg.graph6 import (
    Graph6CharError,
    Graph6Error,
    Graph6PaddingError,
    Graph6TrailingError,
    Graph6TruncatedError,
    _decode_order,
    _encode_order,
    decode,
    edge_list_text,
    encode,
)
from trideg.graphs import complete_graph, empty_graph, from_edges, random_graph


def test_known_strings():
    assert encode(empty_graph(0)) == "?"
    assert decode("?").n == 0
    assert encode(complete_graph(3)) == "Bw"
    assert decode("Bw") == complete_graph(3)
    assert encode(complete_graph(2)) == "A_"
    assert decode("A?") == empty_graph(2)


def test_encode_matches_bitwise_oracle():
    rng = random.Random(41)
    # orders 62 and 63 drawn again: the header grows from one byte to four at 63
    graphs = [random_graph(rng, n, p) for n in list(range(81)) + [62, 63] for p in (0, 0.3, 0.7, 1)]
    graphs += [construct(200).graph, construct(2000).graph]
    for g in graphs:
        assert encode(g) == oracles.graph6_encode_bitwise(g), g.n


def test_roundtrip_all_order5():
    for g in all_graphs(5):
        assert decode(encode(g)) == g


def test_roundtrip_random_to_order100():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 100)
        g = random_graph(rng, n, rng.uniform(0.0, 1.0))
        text = encode(g)
        assert decode(text) == g
        # printable ASCII only
        assert all(63 <= ord(ch) <= 126 for ch in text)


def test_order_header_forms():
    # one byte up to 62, four bytes up to 258047, eight bytes beyond
    assert len(_encode_order(62)) == 1
    assert len(_encode_order(63)) == 4
    assert len(_encode_order(258047)) == 4
    assert len(_encode_order(258048)) == 8
    for n in (0, 1, 62, 63, 258047, 258048, 68719476735):
        text = _encode_order(n)
        value, used = _decode_order(text)
        assert (value, used) == (n, len(text))
    with pytest.raises(ValueError):
        _encode_order(68719476735 + 1)
    with pytest.raises(ValueError):
        _encode_order(-1)
    # a graph past the one byte header still round-trips end to end
    g = empty_graph(63)
    assert decode(encode(g)) == g


def test_decode_error_classes():
    with pytest.raises(Graph6TruncatedError):
        decode("")
    with pytest.raises(Graph6TruncatedError):
        decode("B")  # order 3 needs one body character
    with pytest.raises(Graph6TruncatedError):
        decode("~")  # long-form header cut short
    with pytest.raises(Graph6CharError):
        decode("B" + chr(175))
    with pytest.raises(Graph6CharError):
        decode("B\x1f")
    with pytest.raises(Graph6TrailingError):
        decode("Bww")
    with pytest.raises(Graph6PaddingError):
        decode("A@")  # order 2 uses only the top bit of the body
    # every error class is a Graph6Error, which is a ValueError
    for exc in (
        Graph6CharError,
        Graph6TruncatedError,
        Graph6TrailingError,
        Graph6PaddingError,
    ):
        assert issubclass(exc, Graph6Error)
    assert issubclass(Graph6Error, ValueError)


def test_encoding_is_column_major_upper_triangle():
    # single edge (0, 1) on 3 vertices: bit order (0,1), (0,2), (1,2)
    g = from_edges(3, [(0, 1)])
    body = encode(g)[1:]
    assert len(body) == 1
    bits = ord(body) - 63
    assert bits >> 5 == 1  # first bit, MSB first
    assert bits & 0b11111 == 0
    # decode agrees with a hand-built bit reading
    for g in all_graphs(4):
        assert oracles.edge_set(decode(encode(g))) == oracles.edge_set(g)


def test_edge_list_text():
    g = from_edges(3, [(1, 2), (0, 1)])
    assert edge_list_text(g) == "0 1\n1 2"
    assert edge_list_text(empty_graph(2)) == ""
