"""The gateway's reply reader (`_read_reply`) against `http.client` on the
same bytes, received a few bytes at a time: the framings a server may send
(100 Continue, Content-Length, a single `Transfer-Encoding: chunked`, a body
that ends where the connection closes), malformed head and chunk lines,
replies cut short, and raw bytes.

`_read_reply` raises only `MalformedReply`. Where both readers parse a
reply, they give one status, and for a 200 one body. A whole 200 reply,
chunked ones through their trailer, leaves the reader at the next reply. `http.client` skips
only a 100 interim reply and reads the body of any status, so interim
replies are 100s and a body is compared only for a 200.
"""

from __future__ import annotations

import http.client
import io

from hypothesis import example, given, settings, strategies as st

from graphvqa.gateway import MalformedReply, _Reader, _read_reply

# Receive sizes, used in turn.
STEPS = st.lists(st.integers(1, 7), min_size=1, max_size=8)


class TrickleSocket:
    """Hands out `data` at most a step's worth of bytes per `recv`, the
    steps used in turn, then b"" as a closed connection does. `makefile`
    gives `http.client` the same bytes in the same steps."""

    def __init__(self, data: bytes, steps: list[int]):
        self.data, self.steps, self.pos, self.calls = data, steps, 0, 0

    def recv(self, size: int) -> bytes:
        step = min(size, self.steps[self.calls % len(self.steps)])
        self.calls += 1
        piece = self.data[self.pos:self.pos + step]
        self.pos += len(piece)
        return piece

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(_RawTrickle(self))


class _RawTrickle(io.RawIOBase):
    def __init__(self, sock: TrickleSocket):
        self.sock = sock

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        piece = self.sock.recv(len(buffer))
        buffer[:len(piece)] = piece
        return len(piece)


HEADER_LINES = st.sampled_from([
    b"Content-Type: application/json",
    b"Server:graphvqa-test",
    b"X-Empty:",
    b"Connection: close",
    # malformed
    b"no colon here",
    b" Folded: value",
    b"Spaced Name : value",
    b": no name",
    b"Content-Length: x1",
    b"Content-Length: -3",
    b"Content-Length: 1",
    b"Content-Length: " + b"9" * 5000,
    b"X-Split: a\nContent-Length: 1",
    b"X-Return: a\rb",
])


@st.composite
def chunked_bodies(draw, payload: bytes) -> bytes:
    cuts = sorted(draw(st.lists(st.integers(0, len(payload)), max_size=3)))
    bounds = [0, *cuts, len(payload)]
    chunks = []
    for start, end in zip(bounds, bounds[1:]):
        if end == start:
            continue
        size = end - start
        size_line = draw(st.sampled_from([
            b"%x" % size, b"%X" % size, b"%x;name=value" % size, b" %x " % size,
            b"%x" % (size + 1), b"zz", b"", b"0x%x" % size,  # the last four are malformed
        ]))
        chunk_end = draw(st.sampled_from([b"\r\n", b"\r\n", b"\r\n", b"XY"]))
        chunks.append(size_line + b"\r\n" + payload[start:end] + chunk_end)
    last = draw(st.sampled_from([b"0\r\n\r\n", b"0\r\nTrailer: x\r\n\r\n", b"0\r\n", b""]))
    return b"".join(chunks) + last


@st.composite
def replies(draw) -> bytes:
    """One reply as a server may frame it, malformed or cut short at times."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=120))
    interim = b"HTTP/1.1 100 Continue\r\n\r\n" * draw(st.integers(0, 2))
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1.1 "]))
    status = draw(st.sampled_from([200, 200, 200, 204, 404, 429, 500, 99]))
    reason = draw(st.sampled_from([b" OK", b"", b" Too Many Requests", b"\tOK"]))
    head = [version + b" %03d" % status + reason]
    payload = draw(st.binary(max_size=40))
    framing = draw(st.sampled_from(["length", "chunked", "close"]))
    lines = draw(st.lists(HEADER_LINES, max_size=2))
    if framing == "length":
        length = draw(st.sampled_from([len(payload), len(payload), max(len(payload) - 1, 0),
                                       len(payload) + 1]))
        lines.append(b"Content-Length: %d" % length)
        body = payload
    elif framing == "chunked":
        lines.append(b"Transfer-Encoding: chunked")
        body = draw(chunked_bodies(payload))
    else:
        body = payload
    head += draw(st.permutations(lines))
    data = interim + b"\r\n".join(head) + b"\r\n\r\n" + body
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


def ours(data: bytes, steps: list[int]):
    """(status, body) from `_read_reply`, or None if it found the reply malformed."""
    try:
        return _read_reply(_Reader(TrickleSocket(data, steps)))
    except MalformedReply:
        return None


def theirs(data: bytes, steps: list[int]):
    """(status, body) from `http.client`, the body read for a 200 only, or
    None if it could not parse the reply."""
    response = http.client.HTTPResponse(TrickleSocket(data, steps), method="POST")
    try:
        response.begin()
        return response.status, response.read() if response.status == 200 else b""
    except Exception:  # noqa: BLE001 - any failure means http.client did not parse it
        return None
    finally:
        response.close()


@settings(max_examples=300, deadline=None)
@given(replies(), STEPS)
@example(b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", [7])
@example(b"HTTP/1.1 200 OK\r\nX-Split: a\nContent-Length: 1\r\n\r\nab", [3])
def test_read_reply_agrees_with_http_client(data, steps):
    mine, reference = ours(data, steps), theirs(data, steps)
    if mine is not None and reference is not None:
        assert mine[0] == reference[0]
        if mine[0] == 200:
            assert mine[1] == reference[1]


@st.composite
def whole_200s(draw, body: bytes) -> bytes:
    """A well-formed 200 reply of `body`: Content-Length, or chunked with
    or without a trailer."""
    framing = draw(st.sampled_from(["length", "chunked", "trailer"]))
    if framing == "length":
        return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    cut = draw(st.integers(0, len(body)))
    chunks = b"".join(b"%x\r\n%s\r\n" % (len(part), part)
                      for part in (body[:cut], body[cut:]) if part)
    trailer = b"Expires: never\r\nX-Checksum: 0\r\n" if framing == "trailer" else b""
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunks + b"0\r\n"
            + trailer + b"\r\n")


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40), st.binary(max_size=40), STEPS, st.data())
def test_two_replies_back_to_back_on_one_reader_parse_whole(first, second, steps, data):
    data = b"".join(data.draw(whole_200s(body)) for body in (first, second))
    reader = _Reader(TrickleSocket(data, steps))
    assert _read_reply(reader) == (200, first)
    assert _read_reply(reader) == (200, second)
    assert reader.pos == len(data)
