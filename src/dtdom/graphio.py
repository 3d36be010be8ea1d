"""Graph file formats: edge-list text and graph6.

The graph6 codec follows the de-facto standard byte layout exactly (upper
triangle by columns, 6-bit groups offset by 63), so a canonical graph6
line, whose padding bits are zero, round-trips byte for byte.  The reader
ignores nonzero padding bits, as networkx does: ``Bx`` reads as the
triangle and is written back as ``Bw``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .graph import Graph, GraphInputError


# -- edge-list text ----------------------------------------------------------
# First line "n m", then m lines "u v" (0-based).  Blank lines and '#'
# comments are ignored.


def parse_edgelist(text: str) -> Graph:
    rows: List[Tuple[int, List[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise GraphInputError(f"line {lineno}: non-ASCII character")
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if not rows:
        raise GraphInputError("edge-list input is empty")
    lineno, header = rows[0]
    if len(header) != 2:
        raise GraphInputError(f"line {lineno}: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphInputError(f"line {lineno}: expected integer header 'n m'") from None
    edges = set()
    for lineno, fields in rows[1:]:
        if len(fields) != 2:
            raise GraphInputError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphInputError(f"line {lineno}: expected integer edge 'u v'") from None
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphInputError(f"line {lineno}: endpoint out of range: {u} {v}")
        if u == v:
            raise GraphInputError(f"line {lineno}: loop edge at vertex {u}")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise GraphInputError(f"line {lineno}: repeated edge {u} {v}")
        edges.add(edge)
    if len(edges) != m:
        raise GraphInputError(f"header says {m} edges, found {len(edges)}")
    return Graph(n, edges)


def format_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- graph6 ------------------------------------------------------------------


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise GraphInputError("graph6 order must be >= 0")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise GraphInputError("graph6 orders above 258047 are not supported")


def _decode_n(data: bytes) -> Tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise GraphInputError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 4 and data[1] != 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        return n, 4
    raise GraphInputError("unsupported or truncated graph6 order prefix")


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 line (without trailing newline)."""
    out = bytearray(_encode_n(g.n))
    bits = []
    for j in range(1, g.n):
        col = g.bits[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return out.decode("ascii")


def from_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' header tolerated)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s.isascii():
        raise GraphInputError("non-ASCII character in graph6 string")
    data = s.encode("ascii")
    n, used = _decode_n(data)
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[used:]
    if len(body) != need:
        raise GraphInputError(
            f"graph6 body length {len(body)} does not match order {n} (need {need})"
        )
    for byte in body:
        if not (63 <= byte <= 126):
            raise GraphInputError(f"invalid graph6 byte {byte}")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[idx // 6] - 63
            if (byte >> (5 - idx % 6)) & 1:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def _open(path: str, mode: str = "r"):
    """Open an ASCII text file, raising any ``OSError`` as ``GraphInputError``;
    a non-ASCII byte reads as a lone surrogate, which the parsers reject."""
    try:
        return open(path, mode, encoding="ascii", errors="surrogateescape")
    except OSError as exc:
        raise GraphInputError(f"cannot open {path}: {exc.strerror}") from None


def iter_graph6_file(path: str) -> Iterator[Graph]:
    """Stream the graphs of a one-per-line graph6 file."""
    with _open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                yield from_graph6(line)
            except GraphInputError as exc:
                raise GraphInputError(f"{path}:{lineno}: {exc}") from None


# -- format-dispatching helpers (shared by the CLI) --------------------------

FORMATS = ("edgelist", "graph6")


def load_graph(path: str, fmt: str = "edgelist") -> Graph:
    if fmt not in FORMATS:
        raise GraphInputError(f"unknown format: {fmt}")
    with _open(path) as handle:
        text = handle.read()
    try:
        if fmt == "edgelist":
            return parse_edgelist(text)
        for line in text.splitlines():
            if line.strip():
                return from_graph6(line)
        raise GraphInputError("no graph6 line found")
    except GraphInputError as exc:
        raise GraphInputError(f"{path}: {exc}") from None


def dump_graph(g: Graph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        return format_edgelist(g)
    if fmt == "graph6":
        return to_graph6(g) + "\n"
    raise GraphInputError(f"unknown format: {fmt}")
