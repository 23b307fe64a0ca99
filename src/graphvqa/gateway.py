"""Uniform access to chat, captioning, and embedding backends.

A gateway's lane table gives each lane (chat, caption, embed) a provider or
none. `ModelGateway._request` builds the remote kinds' requests, and
`ModelGateway._local` answers the local kinds:

- RemoteChat (chat, caption) / RemoteEmbed (embed): OpenAI-compatible
  endpoints. Chat POSTs to {endpoint}/v1/chat/completions with model,
  messages, temperature and reads the first choice's message content;
  embeddings POST to {endpoint}/v1/embeddings. The API key is read from the
  configured environment variable once, when the gateway is built, and sent
  as a bearer token. Transient failures (connection errors, timeouts, HTTP
  429/5xx) retry with exponential backoff up to max_retries, but a failed
  TLS certificate check does not; every decode failure surfaces as a
  GatewayError.
- PrecomputedCaption (caption) / PrecomputedEmbed (embed), local: served from
  a video bundle's tables.
- Scripted (chat, embed), local: deterministic stand-ins for tests. Scripted
  chat replays the first matching script entry; scripted embeddings are
  seeded hashes of the input expanded to the configured dimension and
  unit-normalized.

Every gateway memoizes remote responses by a hash of (provider id, request
body) for its whole life, so one `run` or `eval` command sends each distinct
request at most once, even when parallel sessions ask for it at the same
moment. The memo answers a repeated identical chat prompt with the first
reply, also at temperature > 0. A cache path only makes the memo persist,
as an append-only log (see `lines`), so eval reruns cost nothing. A body is
rendered from its lane's constants (`_Remote`), computed when the gateway
is built, around the rendered input text or message list. Those constants
are all of a lane's wire form: the host and port, the request head up to
its length, the JSON of the model and temperature, and the cache key's
prefix. A body's bytes are those of
``json.dumps(body, sort_keys=True, ensure_ascii=False)``, so keys and cache
files written before still match. The memo holds decoded values, a text or
an `Embedding`, and a cache file holds them exactly (see `ResponseCache`),
so a hit decodes nothing. A record that an older file holds as the whole
reply is decoded by its lane on its key's first hit, and its value takes
its place in memory. An embedding's dimension is checked against the
bundle on every hit.

Requests go out through a small HTTP/1.1 client on `socket` and `ssl`: one
connection per request, closed once its reply is read. HTTPS certificates
and host names are checked against the system CA store. Proxies are not
supported: building a gateway whose remote endpoint the proxy environment
variables would route through a proxy raises GatewayConfigError, as does a
remote lane whose API key variable is unset, and a ProviderConfig whose
remote endpoint is not a plain http(s) URL. So a bad config fails before
any request.

Each remote lane has its own in-flight bound, its `max_inflight`, even when
two lanes name one endpoint and model.

`ModelGateway.gather` serves one round's caption and embedding requests.
Cache hits and local lanes are answered on the calling thread; two or more
misses go out concurrently on a thread pool, at most `max_inflight` per
lane at a time. The pool has as many threads as the largest `max_inflight`
of the caption and embed lanes, and a gateway shares it with its session
views, so `eval --parallel N` keeps at most pool size + N requests in
flight. A pool per session would be simpler, but a server with Python's
default listen backlog of 5 stalled new connections for 1 s (SYN retries)
at 8 concurrent connections and reset them at 16. Results come back in
request order. When a caption fails, the later requests of the same call may
already have been sent and cached.
"""

from __future__ import annotations

import base64
import copy
import functools
import hashlib
import json
import logging
import math
import os
import re
import socket
import ssl
import struct
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _string  # a str as JSON, with ensure_ascii=False
from pathlib import Path
from typing import Callable, Optional, Sequence, Union
from urllib.parse import urlsplit

from . import __version__
from .errors import (
    DataFormatError,
    GatewayConfigError,
    GatewayError,
    MissingCaptionError,
    MissingEmbeddingError,
    DimensionError,
    check_field_types,
)
from .graph import Embedding, all_finite, json_vector, vector_norm
from .lines import Log, read_log, read_objects
from .store import VideoBundle, read_record

logger = logging.getLogger(__name__)

REMOTE_CHAT = "RemoteChat"
REMOTE_EMBED = "RemoteEmbed"
PRECOMPUTED_CAPTION = "PrecomputedCaption"
PRECOMPUTED_EMBED = "PrecomputedEmbed"
SCRIPTED = "Scripted"

_KINDS = {REMOTE_CHAT, REMOTE_EMBED, PRECOMPUTED_CAPTION, PRECOMPUTED_EMBED, SCRIPTED}
# The provider kinds that can serve each lane.
_LANE_KINDS = {
    "chat": (REMOTE_CHAT, SCRIPTED),
    "caption": (REMOTE_CHAT, PRECOMPUTED_CAPTION),
    "embed": (REMOTE_EMBED, PRECOMPUTED_EMBED, SCRIPTED),
}
_REMOTE_KINDS = (REMOTE_CHAT, REMOTE_EMBED)
_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

Message = tuple[str, str]
Lane = str  # "chat", "caption" or "embed"

@dataclass
class ProviderConfig:
    """Configuration for one backend lane (chat, caption, or embed)."""

    kind: str
    endpoint: str = ""
    model_name: str = ""
    api_key_env: str = ""
    timeout: float = 60.0
    max_retries: int = 3
    temperature: float = 0.0
    script_path: str = ""
    embed_dim: int = 64
    seed: int = 0
    retry_backoff: float = 0.25
    max_inflight: int = 4

    def __post_init__(self):
        check_field_types(self, GatewayConfigError)
        if self.kind not in _KINDS:
            raise GatewayConfigError(f"unknown provider kind {self.kind!r}")
        if self.kind in _REMOTE_KINDS:
            if not (self.endpoint and self.model_name):
                raise GatewayConfigError(f"{self.kind} requires endpoint and model_name")
            _check_endpoint(self.endpoint)
        if not 0 < self.timeout < math.inf:
            raise GatewayConfigError(f"timeout must be finite and > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise GatewayConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.retry_backoff < math.inf:
            raise GatewayConfigError(
                f"retry_backoff must be finite and >= 0, got {self.retry_backoff}")
        if not math.isfinite(self.temperature):
            raise GatewayConfigError(f"temperature must be finite, got {self.temperature}")
        if self.embed_dim < 1:
            raise GatewayConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.max_inflight < 1:
            raise GatewayConfigError(f"max_inflight must be >= 1, got {self.max_inflight}")

    @property
    def provider_id(self) -> str:
        return f"{self.kind}:{self.endpoint}:{self.model_name}:{self.seed}"

    def api_key(self) -> Optional[str]:
        if not self.api_key_env:
            return None
        key = os.environ.get(self.api_key_env)
        if not key:
            raise GatewayConfigError(
                f"API key environment variable {self.api_key_env!r} is not set"
            )
        if not _TOKEN.fullmatch(key):
            raise GatewayConfigError(f"API key environment variable {self.api_key_env!r} "
                                     "holds a space or a character that is not printable ASCII")
        return key


# Printable ASCII without spaces: what a URL or a bearer token may hold.
_TOKEN = re.compile(r"[!-~]+")


def _check_endpoint(endpoint: str) -> None:
    """Raise GatewayConfigError unless `endpoint` is an http(s) URL of a host
    (with a port perhaps, and a path prefix) that the transport can reach."""
    if not _TOKEN.fullmatch(endpoint):
        raise GatewayConfigError(f"endpoint {endpoint!r} holds a space or a character that is "
                                 "not printable ASCII (write a host name in its xn-- form)")
    parts = urlsplit(endpoint)
    try:
        port = parts.port
    except ValueError:
        port = 0
    if parts.scheme not in ("http", "https"):
        problem = "is not an http:// or https:// URL"
    elif not parts.hostname:
        problem = "names no host"
    elif port == 0:
        problem = "has a bad port"
    elif "@" in parts.netloc:
        problem = "holds user info (send credentials with api_key_env)"
    elif parts.query or parts.fragment or endpoint.endswith(("?", "#")):
        problem = "holds a query or a fragment"
    else:
        return
    raise GatewayConfigError(f"endpoint {endpoint!r} {problem}")


@dataclass(frozen=True)
class ScriptEntry:
    """One scripted chat reply; matched in order, first hit wins."""

    reply: str
    round: Optional[int] = None
    contains: Optional[str] = None
    contains_all: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.contains_all, list):  # as a JSON array reads
            object.__setattr__(self, "contains_all", tuple(self.contains_all))

    def validate(self) -> "ScriptEntry":
        check_field_types(self, GatewayConfigError)
        return self

    @property
    def is_catch_all(self) -> bool:
        return self.round is None and self.contains is None and not self.contains_all

    def matches(self, call_index: int, prompt: str) -> bool:
        if self.round is not None and call_index != self.round:
            return False
        if self.contains is not None and self.contains not in prompt:
            return False
        if self.contains_all and not all(s in prompt for s in self.contains_all):
            return False
        return True


def load_script(path: Union[str, Path]) -> list[ScriptEntry]:
    """Read a script file, a line file (see `lines`) of one `ScriptEntry` per
    line: a JSON object of its fields, of which only `reply` is required (see
    `store.read_record`). A fault is a GatewayConfigError naming the line."""
    return [read_record(ScriptEntry, obj, f"{path}:{line_no}", GatewayConfigError)
            for line_no, obj in read_objects(path, GatewayConfigError)]


def pseudo_embedding(text: str, dim: int, seed: int = 0) -> Embedding:
    """Deterministic unit-norm vector derived from a hash of the input."""
    if dim < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {dim}")
    values: list[float] = []
    block = 0
    while len(values) < dim:
        digest = hashlib.sha256(f"{seed}:{block}:{text}".encode("utf-8")).digest()
        for i in range(0, len(digest) - 3, 4):
            values.append(int.from_bytes(digest[i:i + 4], "big") / 2**31 - 1.0)
        block += 1
    values = values[:dim]
    norm = vector_norm(values)
    if norm == 0.0:
        values[0] = 1.0
        norm = 1.0
    return Embedding(v / norm for v in values)


class ResponseCache:
    """Thread-safe response cache, optionally persisted as a log (see `lines`).

    It holds decoded values: a reply's text, or its vector as an
    `Embedding`. Each put appends one line holding a one-entry object
    ``{key: value}``, where a text is a JSON string and a vector is
    ``{"f64": <base64 of its little-endian float64 bytes>}``, so it loads
    back exactly; earlier lines are never rewritten. The loader merges
    every record in order, so a file holding one object with many entries
    on a single line loads as well, and decodes each vector once. A value
    in any other form, such as the whole reply that older files hold, is
    kept as it is, for its gateway to decode on its first hit (see
    `replace`). A fault reading or writing the file, a record that is not
    an object or holds a null, or a vector that is empty, not finite, not
    base64 or not a whole number of doubles raises DataFormatError.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        self._data: dict[str, object] = {}
        if self.path and self.path.exists():
            for line_no, record in read_log(self.path, DataFormatError):
                if not isinstance(record, dict):
                    raise DataFormatError(f"{self.path}:{line_no}: cache record is not a JSON object")
                for key, value in record.items():
                    if type(value) is dict and value.keys() == {_F64}:
                        value = _unpack(value[_F64], f"{self.path}:{line_no}")
                    elif value is None:  # would be sent again on every call, never cached
                        raise DataFormatError(f"{self.path}:{line_no}: cache record holds a null")
                    self._data[key] = value

    def get(self, key: str):
        with self._lock:
            return self._data.get(key)

    def put(self, key: str, value) -> None:
        """Store `value` unless `key` is already cached (a request that
        another gateway sharing this cache sent at the same time), so the
        file holds one record per key. None, which `get` returns for a miss
        and a load rejects, raises ValueError."""
        if value is None:
            raise ValueError(f"cannot cache None under key {key!r}")
        with self._lock:
            if key in self._data:
                return
            self._data[key] = value
            if self.path:
                with Log(self.path, DataFormatError) as log:
                    log.append({key: _pack(value) if isinstance(value, Embedding) else value})

    def replace(self, key: str, value) -> None:
        """Keep `value`, the decoded form of the value under `key`, in its
        place in memory; the file is not rewritten."""
        with self._lock:
            self._data[key] = value


_F64 = "f64"  # the one key of a vector's cache value


def _pack(vector: Embedding) -> dict:
    """A vector's cache value: its doubles' bytes, little-endian, in base64."""
    return {_F64: base64.b64encode(struct.pack(f"<{len(vector)}d", *vector)).decode("ascii")}


def _unpack(text, where: str) -> Embedding:
    """The vector that `_pack` wrote as `text`; DataFormatError naming
    `where` unless it is a nonempty whole number of finite doubles."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # not a string, or not base64
        raise DataFormatError(f"{where}: cache vector is not base64: {exc}") from exc
    if not raw or len(raw) % 8:
        raise DataFormatError(
            f"{where}: cache vector holds {len(raw)} bytes, not a nonempty whole number of doubles")
    vector = Embedding(struct.unpack(f"<{len(raw) // 8}d", raw))
    if not all_finite(vector):
        raise DataFormatError(f"{where}: cache vector holds a non-finite value")
    return vector


@dataclass(frozen=True)
class _Remote:
    """A remote lane's wire form, built once per gateway when its key and
    proxies are checked: where its requests go, the request head up to
    `Content-Length`, the lane's in-flight bound, the rendered JSON around
    each body's variable part (the input text, or the message list), the
    cache key's prefix, how a reply decodes and the type of what it
    decodes to. A body is `head`, the
    variable part, then `tail`: the bytes of
    ``json.dumps(body, sort_keys=True, ensure_ascii=False)``. A request's
    cache key is the sha256 of `key_prefix` and its body, so that rendering
    is fixed: it must match the keys of every cache file written before."""

    lane: Lane
    cfg: ProviderConfig
    https: bool
    host: str
    port: int
    # The request line, Host, Content-Type and the bearer token if any; kept
    # out of the repr, which would show the key.
    request_head: bytes = field(repr=False)
    inflight: threading.Semaphore
    head: str
    tail: str
    key_prefix: bytes  # the provider id and a NUL, UTF-8
    decode: Callable[[object], object]
    value_type: type  # str or Embedding

    @classmethod
    def of(cls, lane: Lane, cfg: ProviderConfig, proxies: dict[str, str]) -> "_Remote":
        """`lane`'s constants; GatewayConfigError if its API key variable is
        unset or not a token, or if `proxies` would carry its endpoint."""
        key = cfg.api_key()
        _refuse_proxy(lane, cfg.endpoint, proxies)
        model = json.dumps(cfg.model_name, ensure_ascii=False)
        if cfg.kind == REMOTE_EMBED:
            path, head, tail = "/v1/embeddings", '{"input": ', f', "model": {model}}}'
            decode, value_type = _embedding, Embedding
        else:
            path, head = "/v1/chat/completions", '{"messages": '
            tail = f', "model": {model}, "temperature": {json.dumps(cfg.temperature)}}}'
            decode, value_type = functools.partial(_completion_text, lane), str
        url = urlsplit(f"{cfg.endpoint.rstrip('/')}{path}")
        https = url.scheme == "https"
        request_head = (f"POST {url.path} HTTP/1.1\r\nHost: {url.netloc}\r\n"
                        "Content-Type: application/json\r\n")
        if key:
            request_head += f"Authorization: Bearer {key}\r\n"
        return cls(lane, cfg, https, url.hostname, url.port or (443 if https else 80),
                   request_head.encode("ascii"), threading.Semaphore(cfg.max_inflight),
                   head, tail, f"{cfg.provider_id}\x00".encode("utf-8"), decode, value_type)


@dataclass
class _Request:
    """One remote request, as `ModelGateway._request` builds it: its lane's
    constants, its body, its cache key, and the dimension its reply's
    embedding must have (a bundle's; any when None or 0)."""

    remote: _Remote
    body: bytes
    key: str
    dim: Optional[int]


def _completion_text(lane: Lane, payload) -> str:
    """The first choice's text of a chat completion reply."""
    try:
        content = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise GatewayError(f"malformed {lane} payload: missing {exc!r}") from exc
    if not isinstance(content, str):
        raise GatewayError(f"malformed {lane} payload: content is {type(content).__name__}")
    return content


def _embedding(payload) -> Embedding:
    """The vector of an embeddings reply."""
    try:
        vector = json_vector(payload["data"][0]["embedding"])
    except (KeyError, IndexError, TypeError) as exc:
        raise GatewayError(f"malformed embeddings payload: {exc!r}") from exc
    if vector is None:
        raise GatewayError("malformed embeddings payload: embedding must be a "
                           "nonempty list of finite numbers")
    return vector


def _checked(request: _Request, value):
    """`value`, the decoded reply to `request`, once its embedding is known
    to have the request's dimension."""
    if request.dim and len(value) != request.dim:
        raise DimensionError(
            f"remote embedding dim {len(value)} does not match bundle dim {request.dim}")
    return value


class ModelGateway:
    """One object bundling the chat, caption, and embed lanes.

    Its lane table maps each lane to a ProviderConfig, or to None when the
    lane is unset. Every call takes one dispatch: `_request` builds a remote
    lane's request, and `_local` answers a local lane. Safe for concurrent
    use across sessions; remote calls are limited by a per-lane in-flight
    semaphore, and concurrent misses on one request are merged so only the
    first caller sends it. Without a `cache` the gateway keeps its responses
    in memory. Scripted chat counts calls per gateway, so `VideoAgent.run`
    gives each session a view of its own. `close` stops the threads
    that `gather` started. A lane given a provider kind that cannot serve it
    raises GatewayConfigError here, as does a chat script that is empty or
    does not end in a catch-all.
    """

    def __init__(
        self,
        chat: Optional[ProviderConfig] = None,
        caption: Optional[ProviderConfig] = None,
        embed: Optional[ProviderConfig] = None,
        cache: Optional[ResponseCache] = None,
        chat_script: Optional[Sequence[ScriptEntry]] = None,
    ):
        self._lanes = {"chat": chat, "caption": caption, "embed": embed}
        for lane, cfg in self._lanes.items():
            if cfg is not None and cfg.kind not in _LANE_KINDS[lane]:
                raise GatewayConfigError(f"provider kind {cfg.kind} cannot serve {lane}")
        remote = {lane: cfg for lane, cfg in self._lanes.items()
                  if cfg is not None and cfg.kind in _REMOTE_KINDS}
        # Scans the whole environment (0.25 ms with 75 variables): once, not per lane.
        proxies = urllib.request.getproxies() if remote else {}
        self._remote = {lane: _Remote.of(lane, cfg, proxies) for lane, cfg in remote.items()}
        self.cache = cache if cache is not None else ResponseCache()
        self._script: list[ScriptEntry] = []
        self._chat_calls = 0  # the 1-based counter that a script entry's `round` matches
        if chat is not None and chat.kind == SCRIPTED:
            if not (chat_script or chat.script_path):
                raise GatewayConfigError("scripted chat provider needs script_path")
            self._script = list(chat_script) if chat_script else load_script(chat.script_path)
            if not self._script:
                raise GatewayConfigError("scripted chat needs at least one entry")
            if not self._script[-1].is_catch_all:
                raise GatewayConfigError("the final script entry must be a catch-all")
        # Cache key -> event set once its sender has finished, successful or not.
        self._inflight: dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        # The fan-out pool of `gather`, shared with the session views. Its
        # threads start on the first fan-out and mark themselves, because a
        # pool thread that waited on the pool could deadlock it.
        fanned_out = [remote[lane].max_inflight for lane in ("caption", "embed") if lane in remote]
        self._pool_thread = threading.local()
        self._pool = ThreadPoolExecutor(
            max(fanned_out, default=1), thread_name_prefix="graphvqa-gateway",
            initializer=setattr, initargs=(self._pool_thread, "member", True),
        )

    def for_session(self) -> "ModelGateway":
        """A view for one agent session: it shares this gateway's cache,
        in-flight limits, merged misses and fan-out pool but counts scripted
        chat calls from 1 again."""
        view = copy.copy(self)
        view._chat_calls = 0
        return view

    def close(self) -> None:
        """Stop the fan-out pool's threads, after the requests they run."""
        self._pool.shutdown()

    def __enter__(self) -> "ModelGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- entry points ---------------------------------------------------------------

    def chat(self, messages: Sequence[Message]) -> str:
        """Return the assistant's reply text for a message list."""
        if not messages:
            raise ValueError("messages must be nonempty")
        return self._serve("chat", messages, None)

    def can_caption(self, frame_index: int, bundle: VideoBundle) -> bool:
        cfg = self._lanes["caption"]
        if cfg is None:
            return False
        return cfg.kind != PRECOMPUTED_CAPTION or frame_index in bundle.captions

    def caption(self, frame_index: int, bundle: VideoBundle) -> str:
        """Caption one frame from the bundle table or the remote captioner."""
        return self._serve("caption", frame_index, bundle)

    @property
    def has_embedder(self) -> bool:
        return self._lanes["embed"] is not None

    def embed(self, text_or_frame: Union[str, int], bundle: Optional[VideoBundle] = None) -> Embedding:
        """Embed a query string or a frame index. Same input, same vector:
        the local lanes return a frame's vector from the bundle itself."""
        return self._serve("embed", text_or_frame, bundle)

    # -- one round's requests -----------------------------------------------------

    def gather(self, requests: Sequence[tuple[Lane, Union[str, int]]],
               bundle: VideoBundle) -> list:
        """Serve each `(lane, item)` request ("caption" a frame, "embed" a
        frame or a text) for one bundle; results come back in request order.

        Cache hits and local lanes are served on the calling thread, and so
        is a single miss. Two or more misses go out concurrently on the
        shared pool, each through `caption` or `embed`. A GatewayError is
        returned as that request's result. Any other exception is raised
        once every request has finished, the first in request order.
        """
        serve = {"caption": self.caption, "embed": self.embed}
        results: list = [None] * len(requests)
        misses: list[int] = []
        for i, (lane, item) in enumerate(requests):
            try:
                if lane not in serve:
                    raise ValueError(f"unknown lane {lane!r}")
                request = self._request(lane, item, bundle)
                if request is None:
                    results[i] = serve[lane](item, bundle)
                    continue
                cached = self.cache.get(request.key)
                if cached is None:
                    misses.append(i)
                else:
                    results[i] = self._hit(request, cached)
            except Exception as exc:  # noqa: BLE001 - sorted out below
                results[i] = exc

        def send(i: int):
            lane, item = requests[i]
            try:
                return serve[lane](item, bundle)
            except Exception as exc:  # noqa: BLE001 - sorted out below
                return exc

        fan_out = len(misses) > 1 and not getattr(self._pool_thread, "member", False)
        for i, outcome in zip(misses, (self._pool.map if fan_out else map)(send, misses)):
            results[i] = outcome
        for result in results:
            if isinstance(result, Exception) and not isinstance(result, GatewayError):
                raise result
        return results

    # -- the dispatch ---------------------------------------------------------------

    def _serve(self, lane: Lane, item, bundle: Optional[VideoBundle]):
        request = self._request(lane, item, bundle)
        if request is None:
            return self._local(lane, item, bundle)
        return self._post_with_retries(request)

    def _request(self, lane: Lane, item, bundle: Optional[VideoBundle]) -> Optional[_Request]:
        """The remote request that serves `item` on `lane` (chat messages, a
        frame to caption, or a text or frame to embed), rendered between its
        lane's constants; None when the lane's provider is local. An unset
        lane raises GatewayConfigError."""
        remote = self._remote.get(lane)
        if remote is None:
            if self._lanes[lane] is None:
                raise GatewayConfigError(f"no {lane} provider configured")
            return None
        dim = None
        if lane == "embed":
            value = _string(str(item))
            dim = bundle.embedding_dim if bundle is not None else None
        else:
            messages = item if lane == "chat" else [
                ("user", f"Caption frame {item} of video {bundle.video_id}.")]
            # Each message's keys in sorted order, as json.dumps would write them.
            value = "[" + ", ".join(f'{{"content": {_string(text)}, "role": {_string(role)}}}'
                                    for role, text in messages) + "]"
        body = f"{remote.head}{value}{remote.tail}".encode("utf-8")
        return _Request(remote, body, hashlib.sha256(remote.key_prefix + body).hexdigest(), dim)

    def _local(self, lane: Lane, item, bundle: Optional[VideoBundle]):
        """Answer `item` on a local lane: scripted chat replays the first
        entry that matches, a precomputed caption or embedding comes from
        the bundle, and a scripted embedding is the bundle's frame vector
        or else a pseudo-embedding."""
        if lane == "chat":
            self._chat_calls += 1
            prompt = "\n".join(text for _, text in item)
            # The last entry is a catch-all, so one always matches.
            return next(entry.reply for entry in self._script
                        if entry.matches(self._chat_calls, prompt))
        if lane == "caption":
            if item not in bundle.captions:
                raise MissingCaptionError(
                    f"no caption for frame {item} of video {bundle.video_id!r}")
            return bundle.captions[item]
        cfg = self._lanes["embed"]
        is_frame = isinstance(item, int)
        if is_frame and bundle is not None and item in bundle.embeddings:
            return bundle.embeddings[item]
        if cfg.kind == PRECOMPUTED_EMBED:
            raise MissingEmbeddingError(
                f"no embedding for frame {item}" if is_frame
                else "precomputed embeddings cover frames only, not query text"
            )
        token = f"frame:{item}" if is_frame else f"text:{item}"
        dim = bundle.embedding_dim if bundle is not None and bundle.embedding_dim else cfg.embed_dim
        return pseudo_embedding(token, dim, cfg.seed)

    # -- wire plumbing ---------------------------------------------------------

    def _post_with_retries(self, request: _Request):
        """Serve `request` from the cache (see `_hit`), or send it, decode the
        reply and cache the value.

        While one caller sends a request, others asking for the same one wait
        and then read the cache. If sending or decoding fails nothing is
        cached, and the next waiter sends the request itself.
        """
        while True:
            with self._inflight_lock:
                cached = self.cache.get(request.key)
                pending = self._inflight.get(request.key)
                if cached is None and pending is None:
                    done = self._inflight[request.key] = threading.Event()
                    break
            if cached is not None:
                return self._hit(request, cached)
            pending.wait()
        try:
            result = _checked(request, request.remote.decode(self._send(request)))
            self.cache.put(request.key, result)
            return result
        finally:
            with self._inflight_lock:
                del self._inflight[request.key]
            done.set()

    def _hit(self, request: _Request, value):
        """`value`, cached for `request`, checked on every hit. A value not
        of the lane's type (an older file's whole reply) is decoded on its
        first hit, and the cache keeps the result in its place; two threads
        hitting it at once may both decode it, to equal values."""
        if not isinstance(value, request.remote.value_type):
            value = request.remote.decode(value)
            self.cache.replace(request.key, value)
        return _checked(request, value)

    def _send(self, request: _Request) -> dict:
        remote = request.remote
        cfg = remote.cfg
        last_error, last_status = "unknown error", None
        with remote.inflight:
            for attempts in range(1, cfg.max_retries + 2):
                try:
                    status, raw = _post_once(remote, request.body)
                except ssl.SSLCertVerificationError as exc:
                    # An untrusted certificate, or one for another host name,
                    # fails every attempt alike, so it is not retried.
                    raise GatewayError(f"TLS certificate check failed: {exc}",
                                       attempts=attempts) from exc
                except (OSError, ValueError) as exc:
                    # Timeouts, resets, other TLS failures and malformed replies
                    # are OSErrors; ValueError is a host name that does not encode.
                    last_error = f"transport error: {exc}"
                    logger.warning("gateway attempt %d failed: %s", attempts, last_error)
                else:
                    last_status = status
                    if status == 200:
                        try:
                            return json.loads(raw)
                        except ValueError as exc:
                            raise GatewayError(f"malformed response body (not JSON): {exc}",
                                               status=200, attempts=attempts) from exc
                    if status not in _RETRYABLE_STATUS:
                        raise GatewayError(f"request rejected with HTTP {status}",
                                           status=status, attempts=attempts)
                    last_error = f"HTTP {status}"
                    logger.warning("gateway attempt %d failed: %s", attempts, last_error)
                if attempts <= cfg.max_retries:
                    time.sleep(cfg.retry_backoff * (2 ** (attempts - 1)))
        raise GatewayError(f"gave up after {attempts} attempts: {last_error}",
                           status=last_status, attempts=attempts)


def _refuse_proxy(lane: str, endpoint: str, proxies: dict[str, str]) -> None:
    """Raise GatewayConfigError if `proxies` (see `urllib.request.getproxies`)
    route `endpoint` through a proxy, which the transport would not use."""
    parts = urlsplit(endpoint)
    proxy = proxies.get(parts.scheme)
    if proxy and not urllib.request.proxy_bypass(parts.netloc):
        raise GatewayConfigError(
            f"the {parts.scheme}_proxy environment variable routes the {lane} endpoint "
            f"{endpoint} through {proxy}, but graphvqa does not support proxies: "
            f"add {parts.hostname} to no_proxy or unset {parts.scheme}_proxy"
        )


class MalformedReply(OSError):
    """A reply that is not HTTP/1.x or ends before its body does. An OSError,
    so `_send` retries it as it retries a reset or a timeout."""


@functools.lru_cache(maxsize=None)
def _tls_context() -> ssl.SSLContext:
    """The one HTTPS context of the process: the system CA store, with
    certificates and host names checked."""
    return ssl.create_default_context()


_FIXED_HEADERS = (f"Accept-Encoding: identity\r\nUser-Agent: graphvqa/{__version__}\r\n"
                  "Connection: close\r\n").encode("ascii")
_STATUS_LINE = re.compile(rb"HTTP/1\.[01] ([0-9]{3})(?: [^\r\n]*)?")
_DIGITS = re.compile(rb"[0-9]{1,18}")  # int() refuses a decimal string of over 4300 digits
_HEX_DIGITS = re.compile(rb"[0-9A-Fa-f]+")
_MAX_HEAD = 65536  # bytes of a status line and headers, or of a chunk-size line


def _post_once(remote: _Remote, body: bytes) -> tuple[int, bytes]:
    """POST `body` once on a new connection and return (status, reply body);
    a status other than 200 is returned with an empty body, which is not
    read."""
    request = b"".join((remote.request_head, b"Content-Length: %d\r\n" % len(body),
                        _FIXED_HEADERS, b"\r\n", body))
    sock = socket.create_connection((remote.host, remote.port), remote.cfg.timeout)
    try:
        if remote.https:
            sock = _tls_context().wrap_socket(sock, server_hostname=remote.host)
        sock.sendall(request)
        return _read_reply(_Reader(sock))
    finally:
        sock.close()


class _Reader:
    """One reply's bytes, received into one buffer as they are needed."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()
        self.pos = 0  # the first byte not yet consumed

    def _receive(self, what: str) -> None:
        data = self.sock.recv(65536)
        if not data:
            raise MalformedReply(f"connection closed inside the {what}")
        self.buf += data

    def until(self, mark: bytes, what: str) -> bytes:
        """Consume the bytes up to and including the next `mark`; return
        those before it."""
        while (end := self.buf.find(mark, self.pos)) < 0:
            if len(self.buf) - self.pos > _MAX_HEAD:
                raise MalformedReply(f"{what} is longer than {_MAX_HEAD} bytes")
            self._receive(what)
        return self.take(end + len(mark) - self.pos, what)[:-len(mark)]

    def take(self, size: int, what: str) -> bytes:
        """Consume and return the next `size` bytes."""
        while len(self.buf) - self.pos < size:
            self._receive(what)
        self.pos += size
        return bytes(self.buf[self.pos - size:self.pos])

    def rest(self) -> bytes:
        """Consume and return everything until the server closes."""
        while data := self.sock.recv(65536):
            self.buf += data
        return bytes(self.buf[self.pos:])


def _read_reply(reader: _Reader) -> tuple[int, bytes]:
    """(status, body) of one reply, after any interim 1xx replies. A 200
    reply is read to its last byte, a chunked one through its trailer, so
    the reader is left at the next reply's first byte. Any other reply's
    body is left unread, which holds only while a connection carries one
    reply (a kept connection must read it, or close)."""
    status = 100
    while 100 <= status < 200:
        status, chunked, length = _parse_head(reader.until(b"\r\n\r\n", "reply head"))
    if status != 200:
        return status, b""
    if chunked:
        return status, _read_chunked(reader)
    return status, reader.rest() if length is None else reader.take(length, "body")


def _parse_head(head: bytes) -> tuple[int, bool, Optional[int]]:
    """The status of a reply head, whether its body is chunked, and its
    Content-Length: None when the body ends where the server closes."""
    status_line, *lines = head.split(b"\r\n")
    match = _STATUS_LINE.fullmatch(status_line)
    if match is None:
        raise MalformedReply(f"bad status line {status_line[:80]!r}")
    codings, length = [], None
    for line in lines:
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip() or b"\r" in line or b"\n" in line:
            raise MalformedReply(f"bad header line {line[:80]!r}")
        name, value = name.lower(), value.strip()
        if name == b"transfer-encoding":
            codings.extend(value.split(b","))
        elif name == b"content-length":
            if not _DIGITS.fullmatch(value) or length not in (None, int(value)):
                raise MalformedReply(f"bad Content-Length {value[:80]!r}")
            length = int(value)
    if codings:  # a Transfer-Encoding overrides any Content-Length
        return int(match.group(1)), codings[-1].strip().lower() == b"chunked", None
    return int(match.group(1)), False, length


def _read_chunked(reader: _Reader) -> bytes:
    """A chunked body, read through its trailer (whose fields are ignored)
    and the blank line that ends it; a trailer of over `_MAX_HEAD` bytes is
    malformed."""
    chunks = []
    while True:
        size_text = reader.until(b"\r\n", "chunk size").partition(b";")[0].strip()
        if not _HEX_DIGITS.fullmatch(size_text):
            raise MalformedReply(f"bad chunk size {size_text[:80]!r}")
        size = int(size_text, 16)
        if size == 0:
            trailer = 0
            while line := reader.until(b"\r\n", "trailer"):
                trailer += len(line) + 2
                if trailer > _MAX_HEAD:
                    raise MalformedReply(f"trailer is longer than {_MAX_HEAD} bytes")
            return b"".join(chunks)
        chunks.append(reader.take(size, "chunk"))
        if reader.take(2, "chunk end") != b"\r\n":
            raise MalformedReply("a chunk does not end with CRLF")
