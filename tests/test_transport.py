"""The gateway's HTTP/1.1 transport against a raw-socket server that writes
scripted reply bytes: body framing, malformed replies, the request it sends,
proxy refusal and HTTPS.

The HTTPS tests use the self-signed certificate and key for 127.0.0.1 under
`data/tls`, valid from 2000 to 2100, made with OpenSSL 3.5:

    openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:P-256 -nodes \\
        -not_before 20000101000000Z -not_after 21000101000000Z \\
        -subj "/CN=127.0.0.1" -addext "subjectAltName=IP:127.0.0.1" \\
        -addext "keyUsage=critical,digitalSignature,keyCertSign" \\
        -addext "extendedKeyUsage=serverAuth" -keyout key.pem -out cert.pem
"""

from __future__ import annotations

import json
import re
import socket
import ssl
import struct
import threading
import time
from pathlib import Path

import pytest

from conftest import remote_chat_config
from graphvqa import __version__
from graphvqa import gateway as gateway_module
from graphvqa.errors import GatewayConfigError, GatewayError
from graphvqa.gateway import ModelGateway

TLS = Path(__file__).parent / "data" / "tls"
BODY = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode("utf-8")


class RawServer:
    """A TCP server on 127.0.0.1 that reads each request whole, records it,
    and answers every connection with the same reply pieces, sent apart.
    `reset` ends each connection with a reset instead of a close; `tls` is a
    server-side SSL context to wrap each connection in."""

    def __init__(self, pieces, reset=False, tls=None):
        self.pieces, self.reset, self.tls = pieces, reset, tls
        self.requests: list[bytes] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.02)
        self.endpoint = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stopping.is_set():
            try:
                conn, _addr = self.listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(5)
            try:
                if self.tls is not None:
                    conn = self.tls.wrap_socket(conn, server_side=True)
                self._answer(conn)
            except OSError:  # a client that refused the certificate, or went away
                pass
            finally:
                conn.close()

    def _answer(self, conn):
        data = b""
        while b"\r\n\r\n" not in data:
            data += conn.recv(65536)
        length = int(re.search(rb"\r\nContent-Length: (\d+)\r\n", data).group(1))
        while len(data.partition(b"\r\n\r\n")[2]) < length:
            data += conn.recv(65536)
        self.requests.append(data)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for piece in self.pieces:
            conn.sendall(piece)
            time.sleep(0.005)  # so the client's reads see the pieces apart
        if self.reset:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    def close(self):
        self.stopping.set()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.listener.close()


@pytest.fixture
def raw_server():
    """Start a `RawServer` from reply pieces; every one started is closed."""
    servers = []

    def start(*pieces, **options):
        servers.append(RawServer(pieces, **options))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def chat_through(server, **overrides) -> str:
    with ModelGateway(chat=remote_chat_config(server.endpoint, **overrides)) as gateway:
        return gateway.chat([("user", "hi")])


# -- replies that decode ---------------------------------------------------------

@pytest.mark.parametrize("pieces", [
    [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(BODY), BODY],
    [b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\ncontent-length:%d\r\n\r\n%s"
     % (len(BODY), BODY)],
    [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s trailing bytes past the length"
     % (len(BODY), BODY)],
    [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
     b"a;ext=1\r\n" + BODY[:10] + b"\r\n%X\r\n" % (len(BODY) - 10), BODY[10:] + b"\r\n0\r\n",
     b"Trailer: x\r\n\r\n"],
    [b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"%x\r\n%s\r\n0\r\n\r\n" % (len(BODY), BODY)],
    [b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n", BODY[:7], BODY[7:]],
    [b"HTTP/1.1 100 Continue\r\n\r\n", b"HTTP/1.1 200\r\nContent-Length: %d\r\n\r\n%s"
     % (len(BODY), BODY)],
], ids=["content-length", "http-1.0-one-piece", "content-length-ignores-extra",
        "chunked-split-with-extension-and-trailer", "chunked-overrides-length",
        "close-delimited", "interim-100-then-200"])
def test_body_framings_decode(raw_server, pieces):
    server = raw_server(*pieces)
    assert chat_through(server) == "ok"
    assert len(server.requests) == 1


def test_error_status_is_returned_without_its_body(raw_server):
    # The body is never read: its length promises more than ever comes.
    server = raw_server(b"HTTP/1.1 404 Not Found\r\nContent-Length: 999\r\n\r\n{}")
    with pytest.raises(GatewayError, match="rejected with HTTP 404") as info:
        chat_through(server)
    assert info.value.attempts == 1


def test_a_200_that_is_not_json_is_not_retried(raw_server):
    server = raw_server(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
    with pytest.raises(GatewayError, match="not JSON") as info:
        chat_through(server)
    assert info.value.attempts == 1
    assert len(server.requests) == 1


# -- replies that do not ---------------------------------------------------------

@pytest.mark.parametrize("pieces,reset", [
    ([b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(BODY), BODY[:-3]], False),
    ([b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}"], False),
    ([b"HTTP/1.1 2000 OK\r\n\r\n{}"], False),
    ([b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n{}"], False),
    ([b"HTTP/1.1 200 OK\r\n folded: header\r\n\r\n{}"], False),
    ([b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}"], False),
    ([b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}"], False),
    ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0x2\r\n{}\r\n0\r\n\r\n"], False),
    ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}XX0\r\n\r\n"], False),
    ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{}"], False),
    ([b"HTTP/1.1 200 OK\r\nContent-"], False),
    ([], False),
    ([b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(BODY), BODY[:5]], True),
], ids=["truncated-body", "bad-status-line", "bad-status-code", "header-without-colon",
        "folded-header", "negative-length", "two-lengths", "bad-chunk-size",
        "chunk-without-crlf", "truncated-chunk", "closed-inside-head", "closed-at-once",
        "reset-mid-reply"])
def test_malformed_replies_are_retried_then_given_up(raw_server, pieces, reset):
    server = raw_server(*pieces, reset=reset)
    with pytest.raises(GatewayError, match="gave up after 2 attempts: transport error") as info:
        chat_through(server, max_retries=1)
    assert info.value.attempts == 2
    assert len(server.requests) == 2


# -- the request -----------------------------------------------------------------

def test_request_line_headers_and_body(raw_server, monkeypatch):
    monkeypatch.setenv("GRAPHVQA_TEST_KEY", "sk-test")
    server = raw_server(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY), BODY))
    host = server.endpoint.removeprefix("http://")
    server.endpoint += "/prefix"
    assert chat_through(server, api_key_env="GRAPHVQA_TEST_KEY") == "ok"
    assert chat_through(server) == "ok"
    for request, key_lines in zip(server.requests, [["Authorization: Bearer sk-test"], []]):
        head, _, body = request.partition(b"\r\n\r\n")
        assert head.decode("ascii").split("\r\n") == [
            "POST /prefix/v1/chat/completions HTTP/1.1",
            f"Host: {host}",
            "Content-Type: application/json",
            *key_lines,
            f"Content-Length: {len(body)}",
            "Accept-Encoding: identity",
            f"User-Agent: graphvqa/{__version__}",
            "Connection: close",
        ]
        assert json.loads(body)["messages"] == [{"role": "user", "content": "hi"}]


def test_the_key_is_read_once_when_the_gateway_is_built(raw_server, monkeypatch):
    monkeypatch.setenv("GRAPHVQA_TEST_KEY", "sk-built")
    server = raw_server(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY), BODY))
    with ModelGateway(chat=remote_chat_config(server.endpoint,
                                              api_key_env="GRAPHVQA_TEST_KEY")) as gateway:
        monkeypatch.setenv("GRAPHVQA_TEST_KEY", "sk-changed")
        assert gateway.chat([("user", "one")]) == "ok"
        monkeypatch.delenv("GRAPHVQA_TEST_KEY")
        assert gateway.chat([("user", "two")]) == "ok"
    assert [b"\r\nAuthorization: Bearer sk-built\r\n" in r for r in server.requests] == [True] * 2


def test_no_repr_shows_the_key(monkeypatch):
    monkeypatch.setenv("GRAPHVQA_TEST_KEY", "sk-secret")
    with ModelGateway(chat=remote_chat_config("http://127.0.0.1:9",
                                              api_key_env="GRAPHVQA_TEST_KEY")) as gateway:
        request = gateway._request("chat", [("user", "hi")], None)
    assert b"sk-secret" in request.remote.request_head
    assert "sk-secret" not in repr(request.remote) and "sk-secret" not in repr(request)


# -- proxies ---------------------------------------------------------------------

PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy", "HTTP_PROXY", "HTTPS_PROXY",
                   "NO_PROXY")


@pytest.fixture
def no_proxy_environment(monkeypatch):
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


@pytest.mark.parametrize("variable,endpoint", [
    ("http_proxy", "http://127.0.0.1:9"),
    ("HTTPS_PROXY", "https://api.example.com"),
])
def test_an_endpoint_a_proxy_would_carry_is_refused(no_proxy_environment, variable,
                                                    endpoint):
    no_proxy_environment.setenv(variable, "http://proxy.example.com:3128")
    no_proxy_environment.setenv("no_proxy", "other.example.com")
    scheme = endpoint.partition(":")[0]
    with pytest.raises(GatewayConfigError, match=f"the {scheme}_proxy environment variable"):
        ModelGateway(embed=remote_chat_config(endpoint, kind="RemoteEmbed"))


def test_a_no_proxy_host_is_reached_directly(no_proxy_environment, raw_server):
    proxy = raw_server(b"HTTP/1.1 502 Bad Gateway\r\n\r\n")
    server = raw_server(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY), BODY))
    no_proxy_environment.setenv("http_proxy", proxy.endpoint)
    no_proxy_environment.setenv("no_proxy", "localhost,127.0.0.1")
    assert chat_through(server) == "ok"
    assert len(server.requests) == 1 and proxy.requests == []


# -- HTTPS -------------------------------------------------------------------------

@pytest.fixture
def tls_server(raw_server):
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS / "cert.pem", TLS / "key.pem")
    server = raw_server(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY), BODY),
                        tls=context)
    server.endpoint = server.endpoint.replace("http://", "https://")
    return server


def test_https_checks_the_certificate_against_the_system_store(tls_server):
    context = gateway_module._tls_context()
    assert context is gateway_module._tls_context()
    assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname
    # It would fail the same way again, so it is not retried.
    with pytest.raises(GatewayError, match="TLS certificate check failed: .*"
                                           "certificate verify failed") as info:
        chat_through(tls_server, max_retries=1)
    assert info.value.attempts == 1
    assert tls_server.requests == []


def test_https_to_a_trusted_certificate(tls_server, monkeypatch):
    trusting = ssl.create_default_context(cafile=TLS / "cert.pem")
    monkeypatch.setattr(gateway_module, "_tls_context", lambda: trusting)
    assert chat_through(tls_server) == "ok"
    assert len(tls_server.requests) == 1
