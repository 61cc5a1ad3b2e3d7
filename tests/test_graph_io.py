"""Tests for graph serialization round trips."""

from __future__ import annotations

import gzip
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, GraphFormatError
from repro.graph import generators
from repro.graph.io import (
    read_adjacency,
    read_binary,
    read_edge_list,
    write_binary,
    write_edge_list,
)


class TestEdgeList:
    def test_round_trip(self, tmp_path, small_rmat):
        path = tmp_path / "graph.txt"
        write_edge_list(small_rmat, path)
        loaded = read_edge_list(path, num_vertices=small_rmat.num_vertices)
        assert loaded == small_rmat

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n% other comment\n0 1\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n")
        assert read_edge_list(path).num_edges == 1

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)


class TestBinary:
    def test_round_trip(self, tmp_path, small_rmat):
        path = tmp_path / "graph.bin"
        write_binary(small_rmat, path)
        assert read_binary(path) == small_rmat

    def test_round_trip_empty(self, tmp_path):
        from repro.graph.builder import GraphBuilder

        graph = GraphBuilder(3).build()
        path = tmp_path / "empty.bin"
        write_binary(graph, path)
        loaded = read_binary(path)
        assert loaded.num_vertices == 3
        assert loaded.num_edges == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxx")
        with pytest.raises(GraphFormatError):
            read_binary(path)

    def test_truncated(self, tmp_path, figure1):
        path = tmp_path / "graph.bin"
        write_binary(figure1, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(GraphFormatError):
            read_binary(path)


def _binary_file(path, num_vertices, num_entries, indptr, indices):
    """A binary CSR file with an arbitrary (possibly lying) header."""
    path.write_bytes(
        b"OPTG" + struct.pack("<IQQ", 1, num_vertices, num_entries)
        + np.asarray(indptr, dtype="<i8").tobytes()
        + np.asarray(indices, dtype="<i8").tobytes()
    )
    return path


class TestMalformedInputs:
    """Each defect raised an untyped error or loaded a wrong graph."""

    # One valid two-edge input per text format, so a reader can only
    # fail on the defect under test.
    TEXT_READERS = pytest.mark.parametrize("reader, text", [
        (read_edge_list, "0 1\n1 2\n"),
        (read_adjacency, "0: 1\n1: 0 2\n2: 1\n"),
    ], ids=["edge-list", "adjacency"])

    @TEXT_READERS
    def test_gz_that_is_not_gzip(self, tmp_path, reader, text):
        path = tmp_path / "g.txt.gz"
        path.write_text(text)
        with pytest.raises(GraphFormatError):
            reader(path)

    @TEXT_READERS
    def test_truncated_gzip(self, tmp_path, reader, text):
        path = tmp_path / "g.txt.gz"
        path.write_bytes(gzip.compress(text.encode())[:-6])
        with pytest.raises(GraphFormatError):
            reader(path)

    @TEXT_READERS
    def test_non_utf8_bytes(self, tmp_path, reader, text):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode() + b"\xff\xfe\n")
        with pytest.raises(GraphFormatError):
            reader(path)

    def test_vertex_id_beyond_int64(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 99999999999999999999\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_adjacency_negative_neighbour(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("0: 1 -2\n")
        with pytest.raises(GraphFormatError, match="negative"):
            read_adjacency(path)

    def test_binary_truncated_header(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"OPTG" + struct.pack("<IQQ", 1, 3, 4)[:9])
        with pytest.raises(GraphFormatError, match="header"):
            read_binary(path)

    def test_binary_forged_vertex_count(self, tmp_path):
        path = _binary_file(tmp_path / "g.bin", 2 ** 40, 2, [0, 1, 2], [1, 0])
        with pytest.raises(GraphFormatError, match="declares"):
            read_binary(path)

    def test_binary_index_out_of_range(self, tmp_path):
        path = _binary_file(tmp_path / "g.bin", 2, 2, [0, 1, 2], [5, 0])
        with pytest.raises(GraphFormatError, match="invalid CSR"):
            read_binary(path)

    def test_binary_non_monotone_indptr(self, tmp_path):
        path = _binary_file(tmp_path / "g.bin", 3, 2, [0, 2, 1, 2], [1, 0])
        with pytest.raises(GraphFormatError, match="invalid CSR"):
            read_binary(path)


# -- fuzz: every input raises a GraphError or matches an oracle parse ------

#: Ids stay small: a successful parse allocates O(max id) memory.
#: Negative ids come in through the garbage tokens.
_IDS = st.integers(min_value=0, max_value=12)
_MAX_ORACLE_ID = 10_000
_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _decode(data: bytes, gz: bool) -> str | None:
    """The text a reader sees in *data*, or None when undecodable."""
    try:
        if gz:
            data = gzip.decompress(data)
        text = data.decode("utf-8")
    except (OSError, EOFError, ValueError):
        return None
    # Text-mode files translate every newline convention to "\n".
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _records(text: str):
    """Non-blank, non-comment lines as token lists."""
    for line in text.split("\n"):
        tokens = line.split()
        if tokens and tokens[0][0] not in "#%":
            yield line, tokens


def _oracle_edge_list(text: str):
    """``(num_vertices, edge set)`` of an edge list, or None if invalid."""
    edges = set()
    for _line, tokens in _records(text):
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except (IndexError, ValueError):
            return None
        if u < 0 or v < 0:
            return None
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return max((v for _u, v in edges), default=-1) + 1, edges


def _oracle_adjacency(text: str):
    """``(num_vertices, edge set)`` of an adjacency file, or None."""
    edges, top = set(), -1
    for line, _tokens in _records(text):
        head, sep, rest = line.partition(":")
        try:
            ids = [int(head)] + [int(token) for token in rest.split()]
        except ValueError:
            return None
        if not sep or min(ids) < 0:
            return None
        u = ids[0]
        edges.update((u, v) for v in ids[1:] if u < v)
        top = max(top, *ids)
    return top + 1, edges


def _check(reader, oracle, path, text):
    expected = None if text is None else oracle(text)
    if expected is not None:
        assume(expected[0] <= _MAX_ORACLE_ID)
    try:
        graph = reader(path)
    except GraphError:
        assert expected is None
        return
    assert expected is not None, "reader accepted an invalid input"
    assert graph.num_vertices == expected[0]
    assert set(graph.edges()) == expected[1]


_TOKENS = st.one_of(_IDS.map(str), st.sampled_from(
    ["x", "1.5", "", "#", "%c", ":", "0x1", "+3", "-1", "\t", "9:", "-"]))
_SKIPPED = st.sampled_from(["", "  ", "# comment", "% 1 2"])
_GARBAGE = st.lists(_TOKENS, max_size=4).map(" ".join)


def _line_mix(valid):
    """Mostly well-formed records, some skipped lines, a little garbage."""
    return st.sampled_from("vvvvsg").flatmap(
        {"v": valid, "s": _SKIPPED, "g": _GARBAGE}.__getitem__)


_EDGE_LINES = _line_mix(st.tuples(_IDS, _IDS).map(lambda e: f"{e[0]} {e[1]}"))
_ADJ_LINES = _line_mix(st.tuples(_IDS, st.lists(_IDS, max_size=4)).map(
    lambda r: f"{r[0]}: " + " ".join(map(str, r[1]))))
_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])

_READERS = {
    "edge-list": (read_edge_list, _oracle_edge_list, _EDGE_LINES),
    "adjacency": (read_adjacency, _oracle_adjacency, _ADJ_LINES),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("io-fuzz")


@pytest.mark.parametrize("fmt", sorted(_READERS))
class TestTextReaderFuzz:
    @_FUZZ
    @given(data=st.data(), newline=_NEWLINES, gz=st.booleans())
    def test_line_mix(self, fuzz_dir, fmt, data, newline, gz):
        reader, oracle, lines = _READERS[fmt]
        text = newline.join(data.draw(st.lists(lines, min_size=1, max_size=8)))
        payload = text.encode("utf-8")
        path = fuzz_dir / ("g.txt.gz" if gz else "g.txt")
        path.write_bytes(gzip.compress(payload) if gz else payload)
        _check(reader, oracle, path, _decode(path.read_bytes(), gz))

    @_FUZZ
    @given(raw=st.binary(max_size=48), gz=st.booleans())
    def test_arbitrary_bytes(self, fuzz_dir, fmt, raw, gz):
        reader, oracle, _lines = _READERS[fmt]
        path = fuzz_dir / ("g.txt.gz" if gz else "g.txt")
        path.write_bytes(raw)
        _check(reader, oracle, path, _decode(raw, gz))

    @_FUZZ
    @given(data=st.data())
    def test_cut_gzip_stream(self, fuzz_dir, fmt, data):
        reader, oracle, lines = _READERS[fmt]
        text = "\n".join(data.draw(st.lists(lines, min_size=1, max_size=6)))
        packed = gzip.compress(text.encode("utf-8"))
        raw = packed[:data.draw(st.integers(0, len(packed)))]
        path = fuzz_dir / "g.txt.gz"
        path.write_bytes(raw)
        _check(reader, oracle, path, _decode(raw, True))


def _oracle_binary(raw: bytes):
    """``(num_vertices, edge set)`` of a binary CSR file, or None."""
    if len(raw) < 24 or raw[:4] != b"OPTG":
        return None
    version, n, m = struct.unpack("<IQQ", raw[4:24])
    if version != 1 or len(raw) != 24 + 8 * (n + 1 + m):
        return None
    words = struct.unpack(f"<{n + 1 + m}q", raw[24:])
    indptr, indices = words[:n + 1], words[n + 1:]
    if indptr[0] != 0 or indptr[-1] != m:
        return None
    entries = set()
    for u in range(n):
        if indptr[u + 1] < indptr[u]:
            return None
        row = indices[indptr[u]:indptr[u + 1]]
        if any(not 0 <= v < n or v == u for v in row) \
                or any(a >= b for a, b in zip(row, row[1:])):
            return None
        entries.update((u, v) for v in row)
    if m % 2 or any((v, u) not in entries for u, v in entries):
        return None
    return n, {(u, v) for u, v in entries if u < v}


class TestBinaryReaderFuzz:
    @_FUZZ
    @given(data=st.data())
    def test_mutated_file(self, fuzz_dir, data):
        graph = data.draw(st.sampled_from(
            [generators.figure1_graph(), generators.complete_graph(4),
             generators.cycle_graph(5)]))
        path = fuzz_dir / "g.bin"
        write_binary(graph, path)
        raw = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(raw) - 1))
            raw[at] = data.draw(st.integers(0, 255))
        raw = bytes(raw[:data.draw(st.integers(0, len(raw)))])
        path.write_bytes(raw)
        expected = _oracle_binary(raw)
        try:
            loaded = read_binary(path)
        except GraphError:
            assert expected is None
            return
        assert expected is not None, "reader accepted an invalid CSR"
        assert loaded.num_vertices == expected[0]
        assert set(loaded.edges()) == expected[1]
