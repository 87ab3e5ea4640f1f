"""graph6 text encoding for simple graphs.

A graph6 string is a printable-ASCII packing of the upper adjacency triangle:

  header  N(n): one byte n+63 for n <= 62; byte 126 then three bytes holding
          n as 18 bits big-endian in 6-bit groups (each +63) for n <= 258047;
          two bytes 126 then six bytes holding 36 bits for n <= 68719476735.
  body    the bits x(0,1), x(0,2), x(1,2), x(0,3), x(1,3), x(2,3), ... read
          column by column, padded with zeros to a multiple of 6, packed
          big-endian into 6-bit groups, each +63.

All bytes of a valid string lie in 63..126.  Decoding is strict: a byte
outside that range, a body shorter or longer than the order requires, or a
nonzero padding bit are each rejected with their own error type, so a file
scanner can say exactly what is wrong with a line.  A longer header than the
order needs is valid input, since the format permits it; encode always
writes the shortest, so decode(encode(g)) == g, and encode(decode(s)) is s
with its header made shortest.
"""

from binascii import b2a_base64

from .graphs import Graph

_LOW = 63
_HIGH = 126
_MAX_ORDER = 68719476735  # 2**36 - 1, the largest order the header can carry
# base64 packs 6-bit groups big-endian as graph6 does, into another alphabet
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(_LOW, _HIGH + 1)),
)


class Graph6Error(ValueError):
    """Base class for malformed graph6 input."""


class Graph6CharError(Graph6Error):
    """A byte outside the printable graph6 range 63..126."""


class Graph6TruncatedError(Graph6Error):
    """The string ends before the adjacency bits for its order are complete."""


class Graph6TrailingError(Graph6Error):
    """Extra bytes after the adjacency bits for the declared order."""


class Graph6PaddingError(Graph6Error):
    """A set bit in the zero padding of the final 6-bit group."""


def _encode_order(n: int) -> bytes:
    if n < 0 or n > _MAX_ORDER:
        raise ValueError("order %d outside graph6 range 0..%d" % (n, _MAX_ORDER))
    if n <= 62:
        return bytes([n + _LOW])
    if n <= 258047:
        return bytes([_HIGH, (n >> 12) + _LOW, ((n >> 6) & 63) + _LOW, (n & 63) + _LOW])
    return bytes([_HIGH, _HIGH] + [((n >> s) & 63) + _LOW for s in range(30, -6, -6)])


def _decode_order(data: bytes) -> tuple[int, int]:
    """Return (order, number of header bytes consumed)."""
    if not data:
        raise Graph6TruncatedError("empty graph6 string")
    if data[0] != _HIGH:
        return data[0] - _LOW, 1
    if len(data) < 2:
        raise Graph6TruncatedError("order header cut short")
    if data[1] != _HIGH:
        if len(data) < 4:
            raise Graph6TruncatedError("order header cut short")
        n = ((data[1] - _LOW) << 12) | ((data[2] - _LOW) << 6) | (data[3] - _LOW)
        return n, 4
    if len(data) < 8:
        raise Graph6TruncatedError("order header cut short")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - _LOW)
    return n, 8


def encode(g: Graph) -> str:
    """graph6 string of g under its current labeling.  Column j of the body
    is bits 0..j-1 of row j, lowest first: the row's low j bits written in
    binary, reversed.  The body is zero-padded to a multiple of 24 bits,
    whole bytes and whole 6-bit groups, and packed by base64."""
    rows = g.rows
    bits = "".join([format(rows[j] & ((1 << j) - 1), "0%db" % j)[::-1] for j in range(1, g.n)])
    groups = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)
    body = b2a_base64(int("0" + bits, 2).to_bytes(len(bits) // 8, "big"), newline=False)
    return (_encode_order(g.n) + body[:groups].translate(_BASE64_TO_GRAPH6)).decode("ascii")


def decode(text) -> Graph:
    """Parse a graph6 string (str or bytes) back into a Graph."""
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6CharError(
                "non-ASCII character at position %d" % exc.start
            ) from None
    else:
        data = bytes(text)
    for pos, b in enumerate(data):
        if not _LOW <= b <= _HIGH:
            raise Graph6CharError("byte %d at position %d outside graph6 range" % (b, pos))
    n, offset = _decode_order(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[offset:]
    if len(body) < need:
        raise Graph6TruncatedError(
            "order %d needs %d body bytes, got %d" % (n, need, len(body))
        )
    if len(body) > need:
        raise Graph6TrailingError(
            "order %d needs %d body bytes, got %d extra" % (n, need, len(body) - need)
        )
    rows = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            group = body[t // 6] - _LOW
            if (group >> (5 - t % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    if need:
        pad = (body[-1] - _LOW) & ((1 << (need * 6 - nbits)) - 1)
        if pad:
            raise Graph6PaddingError("nonzero padding bits in final group")
    return Graph._trusted(n, rows)


def edge_list_text(g: Graph) -> str:
    """One 'i j' pair per line, i < j, ascending; vertex indices as stored."""
    return "\n".join("%d %d" % e for e in g.edges())
