"""graph6 reading and writing.

Header-less format: a size field, then the upper triangle of the adjacency
matrix packed column-by-column into 6-bit groups, big-endian, each group
biased by 63.  Sizes up to 62 use one byte; 63..258047 use '~' plus three
bytes of 18 bits.  The parser is strict: exact payload length and zero
padding bits are required.
"""

from __future__ import annotations

from .graphs import Graph

HEADER = ">>graph6<<"

# payload character -> its 6 bits, most significant first
_SIX_BITS = {chr(v + 63): format(v, "06b") for v in range(64)}


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    raise Graph6Error(f"vertex count {n} beyond supported graph6 range")


def _decode_size(text: str) -> tuple[int, int]:
    """Return (n, chars consumed)."""
    if not text:
        raise Graph6Error("empty graph6 string")
    first = ord(text[0]) - 63
    if first < 0 or first > 63:
        raise Graph6Error(f"size byte {text[0]!r} out of range")
    if first != 63:
        return first, 1
    if len(text) >= 2 and text[1] == "~":
        raise Graph6Error("8-byte graph6 size fields are not supported")
    if len(text) < 4:
        raise Graph6Error("truncated extended size field")
    n = 0
    for ch in text[1:4]:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise Graph6Error(f"size byte {ch!r} out of range")
        n = (n << 6) | val
    if n < 63:
        raise Graph6Error("non-canonical extended size field")
    return n, 4


def write_graph6(g: Graph) -> str:
    """Encode a graph; parse_graph6(write_graph6(g)) == g."""
    n = g.n
    out = [_encode_size(n)]
    acc = 0
    nbits = 0
    for col in range(1, n):
        colbits = g.rows[col]
        for row in range(col):
            acc = (acc << 1) | ((colbits >> row) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (an optional '>>graph6<<' header is accepted)."""
    text = text.strip()
    if text.startswith(HEADER):
        text = text[len(HEADER):]
    n, used = _decode_size(text)
    if n == 0:
        raise Graph6Error("graph6 string encodes an empty vertex set")
    payload = text[used:]
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    if len(payload) != need_chars:
        raise Graph6Error(
            f"payload length {len(payload)} != expected {need_chars} for n={n}"
        )
    try:
        bits = "".join(map(_SIX_BITS.__getitem__, payload))
    except KeyError:
        ch = next(ch for ch in payload if ch not in _SIX_BITS)
        raise Graph6Error(f"payload byte {ch!r} out of range") from None
    if "1" in bits[need_bits:]:
        raise Graph6Error("nonzero padding bits")
    # bit pos is pair (row, col) with pos = col (col - 1) / 2 + row, row < col
    rows = [0] * n
    col, start = 1, 0
    pos = bits.find("1")
    while pos >= 0:
        while pos >= start + col:
            start += col
            col += 1
        row = pos - start
        rows[row] |= 1 << col
        rows[col] |= 1 << row
        pos = bits.find("1", pos + 1)
    return Graph(n, rows, _validate=False)


def parse_graph6_lines(text: str) -> list[Graph]:
    """Parse a newline-separated corpus, skipping blank lines."""
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]
