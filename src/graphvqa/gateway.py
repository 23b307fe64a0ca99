"""Uniform access to chat, captioning, and embedding backends.

Provider kinds:

- RemoteChat / RemoteEmbed: OpenAI-compatible endpoints. Chat POSTs to
  {endpoint}/v1/chat/completions with model, messages, temperature and reads
  the first choice's message content; embeddings POST to
  {endpoint}/v1/embeddings. The API key is read from the configured
  environment variable and sent as a bearer token. Transient failures
  (connection errors, timeouts, HTTP 429/5xx) retry with exponential backoff
  up to max_retries; every decode failure surfaces as a GatewayError.
- PrecomputedCaption / PrecomputedEmbed: served from a video bundle's tables.
- Scripted: deterministic stand-ins for tests. Scripted chat replays the
  first matching script entry; scripted embeddings are seeded hashes of the
  input expanded to the configured dimension and unit-normalized.

Every gateway memoizes remote responses by a hash of (provider id, request
body) for its whole life, so one `run` or `eval` command sends each distinct
request at most once, even when parallel sessions ask for it at the same
moment. The memo answers a repeated identical chat prompt with the first
reply, also at temperature > 0. A cache path only makes the memo persist,
as an append-only log (see `lines`), so eval reruns cost nothing. Requests go
out through the standard library's
``urllib.request``, which takes proxies from the standard environment
variables and verifies HTTPS against the default SSL context.

Each lane (chat, caption, embed) has its own in-flight bound, its
`max_inflight`, even when two lanes name one endpoint and model.

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

import copy
import hashlib
import http.client
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .errors import (
    DataFormatError,
    GatewayConfigError,
    GatewayError,
    MissingCaptionError,
    MissingEmbeddingError,
    DimensionError,
    check_field_types,
)
from .graph import Embedding, json_vector, vector_norm
from .lines import append_record, read_log, read_objects
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
_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

Message = tuple[str, str]
Lane = str  # "caption" or "embed"

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
        if self.kind in (REMOTE_CHAT, REMOTE_EMBED) and not (self.endpoint and self.model_name):
            raise GatewayConfigError(f"{self.kind} requires endpoint and model_name")
        if not self.timeout > 0:
            raise GatewayConfigError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise GatewayConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.retry_backoff >= 0:
            raise GatewayConfigError(f"retry_backoff must be >= 0, got {self.retry_backoff}")
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
        return key


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


class ScriptedChat:
    """Replays script entries; keeps a per-instance 1-based call counter."""

    def __init__(self, entries: Sequence[ScriptEntry]):
        if not entries:
            raise GatewayConfigError("scripted chat needs at least one entry")
        if not entries[-1].is_catch_all:
            raise GatewayConfigError("the final script entry must be a catch-all")
        self.entries = list(entries)
        self.calls = 0

    def reply(self, prompt: str) -> str:
        self.calls += 1
        for entry in self.entries:
            if entry.matches(self.calls, prompt):
                return entry.reply
        # unreachable: the last entry matches everything
        return self.entries[-1].reply


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

    Each put appends one line holding a one-entry object ``{key: value}``;
    earlier lines are never rewritten. The loader merges every record in
    order, so a file holding one object with many entries on a single line
    loads as well. A fault reading or writing the file raises DataFormatError.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        self._data: dict[str, object] = {}
        if self.path and self.path.exists():
            for line_no, record in read_log(self.path, DataFormatError):
                if not isinstance(record, dict):
                    raise DataFormatError(f"{self.path}:{line_no}: cache record is not a JSON object")
                self._data.update(record)

    @staticmethod
    def key(provider_id: str, request_body: str) -> str:
        return hashlib.sha256(f"{provider_id}\x00{request_body}".encode("utf-8")).hexdigest()

    def get(self, key: str):
        with self._lock:
            return self._data.get(key)

    def put(self, key: str, value) -> None:
        """Store `value` unless `key` is already cached (a request that
        another gateway sharing this cache sent at the same time), so the
        file holds one record per key."""
        with self._lock:
            if key in self._data:
                return
            self._data[key] = value
            if self.path:
                append_record(self.path, {key: value}, DataFormatError)


@dataclass(frozen=True)
class _Request:
    """One remote request: its lane, where it goes, its body, its cache key
    and how its reply decodes. The body doubles as the cache key, so its
    rendering is fixed."""

    cfg: ProviderConfig
    lane: str
    url: str
    body: str
    key: str
    decode: Callable[[object], object]

    @classmethod
    def build(cls, cfg: ProviderConfig, lane: str, path: str, body: dict,
              decode: Callable[[object], object]) -> "_Request":
        text = json.dumps(body, sort_keys=True, ensure_ascii=False)
        return cls(cfg, lane, f"{cfg.endpoint.rstrip('/')}{path}", text,
                   ResponseCache.key(cfg.provider_id, text), decode)


class ModelGateway:
    """One object bundling the chat, caption, and embed lanes.

    Safe for concurrent use across sessions; remote calls are limited by a
    per-lane in-flight semaphore, and concurrent misses on one request
    are merged so only the first caller sends it. Without a `cache` the
    gateway keeps its responses in memory. Scripted chat counts calls per
    gateway, so concurrent sessions each take their own view from
    `for_session`. `close` stops the threads that `gather` started. A lane
    given a provider kind that cannot serve it raises GatewayConfigError here.
    """

    def __init__(
        self,
        chat: Optional[ProviderConfig] = None,
        caption: Optional[ProviderConfig] = None,
        embed: Optional[ProviderConfig] = None,
        cache: Optional[ResponseCache] = None,
        chat_script: Optional[Sequence[ScriptEntry]] = None,
    ):
        lanes = {"chat": chat, "caption": caption, "embed": embed}
        for lane, cfg in lanes.items():
            if cfg is not None and cfg.kind not in _LANE_KINDS[lane]:
                raise GatewayConfigError(f"provider kind {cfg.kind} cannot serve {lane}")
        self.chat_cfg = chat
        self.caption_cfg = caption
        self.embed_cfg = embed
        self.cache = cache if cache is not None else ResponseCache()
        self._scripted_chat: Optional[ScriptedChat] = None
        if chat is not None and chat.kind == SCRIPTED:
            if chat_script:
                entries = list(chat_script)
            elif chat.script_path:
                entries = load_script(chat.script_path)
            else:
                raise GatewayConfigError("scripted chat provider needs script_path")
            self._scripted_chat = ScriptedChat(entries)
        # Lane -> its own in-flight bound, even when lanes share an endpoint.
        self._semaphores = {
            lane: threading.Semaphore(cfg.max_inflight)
            for lane, cfg in lanes.items() if cfg is not None
        }
        # Cache key -> event set once its sender has finished, successful or not.
        self._inflight: dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()
        # The fan-out pool of `gather`, shared with the session views. Its
        # threads start on the first fan-out and mark themselves, because a
        # pool thread that waited on the pool could deadlock it.
        fanned_out = [
            cfg.max_inflight for cfg in (caption, embed)
            if cfg is not None and cfg.kind in (REMOTE_CHAT, REMOTE_EMBED)
        ]
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
        if self._scripted_chat is not None:
            view._scripted_chat = ScriptedChat(self._scripted_chat.entries)
        return view

    def close(self) -> None:
        """Stop the fan-out pool's threads, after the requests they run."""
        self._pool.shutdown()

    def __enter__(self) -> "ModelGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- chat and captions --------------------------------------------------------

    def chat(self, messages: Sequence[Message]) -> str:
        """Return the assistant's reply text for a message list."""
        if not messages:
            raise ValueError("messages must be nonempty")
        cfg = self._require(self.chat_cfg, "chat")
        if cfg.kind == SCRIPTED:
            prompt = "\n".join(text for _, text in messages)
            return self._scripted_chat.reply(prompt)
        return self._post_with_retries(self._completion_request(cfg, messages, "chat"))

    def can_caption(self, frame_index: int, bundle: VideoBundle) -> bool:
        if self.caption_cfg is None:
            return False
        if self.caption_cfg.kind == PRECOMPUTED_CAPTION:
            return frame_index in bundle.captions
        return True

    def caption(self, frame_index: int, bundle: VideoBundle) -> str:
        """Caption one frame from the bundle table or the remote captioner."""
        cfg = self._require(self.caption_cfg, "caption")
        if cfg.kind == PRECOMPUTED_CAPTION:
            if frame_index not in bundle.captions:
                raise MissingCaptionError(
                    f"no caption for frame {frame_index} of video {bundle.video_id!r}"
                )
            return bundle.captions[frame_index]
        return self._post_with_retries(self._caption_request(cfg, frame_index, bundle))

    def _caption_request(self, cfg: ProviderConfig, frame_index: int,
                         bundle: VideoBundle) -> _Request:
        prompt = f"Caption frame {frame_index} of video {bundle.video_id}."
        return self._completion_request(cfg, [("user", prompt)], "caption")

    def _completion_request(self, cfg: ProviderConfig, messages: Sequence[Message],
                            lane: str) -> _Request:
        """A chat completion whose reply decodes to the first choice's text."""
        body = {
            "model": cfg.model_name,
            "messages": [{"role": role, "content": text} for role, text in messages],
            "temperature": cfg.temperature,
        }

        def text(payload) -> str:
            try:
                content = payload["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise GatewayError(f"malformed {lane} payload: missing {exc!r}") from exc
            if not isinstance(content, str):
                raise GatewayError(f"malformed {lane} payload: content is {type(content).__name__}")
            return content

        return _Request.build(cfg, lane, "/v1/chat/completions", body, text)

    # -- embeddings ---------------------------------------------------------------

    @property
    def has_embedder(self) -> bool:
        return self.embed_cfg is not None

    def embed(self, text_or_frame: Union[str, int], bundle: Optional[VideoBundle] = None) -> Embedding:
        """Embed a query string or a frame index. Same input, same vector:
        the local lanes return a frame's vector from the bundle itself."""
        cfg = self._require(self.embed_cfg, "embed")
        if cfg.kind == REMOTE_EMBED:
            return self._post_with_retries(self._embed_request(cfg, text_or_frame, bundle))
        is_frame = isinstance(text_or_frame, int)
        if is_frame and bundle is not None and text_or_frame in bundle.embeddings:
            return bundle.embeddings[text_or_frame]
        if cfg.kind == PRECOMPUTED_EMBED:
            raise MissingEmbeddingError(
                f"no embedding for frame {text_or_frame}" if is_frame
                else "precomputed embeddings cover frames only, not query text"
            )
        token = f"frame:{text_or_frame}" if is_frame else f"text:{text_or_frame}"
        dim = bundle.embedding_dim if bundle is not None and bundle.embedding_dim else cfg.embed_dim
        return pseudo_embedding(token, dim, cfg.seed)

    def _embed_request(self, cfg: ProviderConfig, text_or_frame: Union[str, int],
                       bundle: Optional[VideoBundle]) -> _Request:
        """An embedding whose reply must match the bundle's dimension."""
        dim = bundle.embedding_dim if bundle is not None else None

        def floats(payload) -> Embedding:
            try:
                vector = json_vector(payload["data"][0]["embedding"])
            except (KeyError, IndexError, TypeError) as exc:
                raise GatewayError(f"malformed embeddings payload: {exc!r}") from exc
            if vector is None:
                raise GatewayError("malformed embeddings payload: embedding must be a "
                                   "nonempty list of finite numbers")
            if dim and len(vector) != dim:
                raise DimensionError(
                    f"remote embedding dim {len(vector)} does not match bundle dim {dim}"
                )
            return vector

        body = {"model": cfg.model_name, "input": str(text_or_frame)}
        return _Request.build(cfg, "embed", "/v1/embeddings", body, floats)

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
                request = self._request(lane, item, bundle)
                if request is None:
                    results[i] = serve[lane](item, bundle)
                    continue
                cached = self.cache.get(request.key)
                if cached is None:
                    misses.append(i)
                else:
                    results[i] = request.decode(cached)
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

    def _request(self, lane: Lane, item: Union[str, int],
                 bundle: VideoBundle) -> Optional[_Request]:
        """The remote request for `(lane, item)`; None when a local lane serves it."""
        if lane == "caption":
            cfg = self._require(self.caption_cfg, "caption")
            return self._caption_request(cfg, item, bundle) if cfg.kind == REMOTE_CHAT else None
        if lane == "embed":
            cfg = self._require(self.embed_cfg, "embed")
            return self._embed_request(cfg, item, bundle) if cfg.kind == REMOTE_EMBED else None
        raise ValueError(f"unknown lane {lane!r}")

    # -- wire plumbing ---------------------------------------------------------

    def _require(self, cfg: Optional[ProviderConfig], lane: str) -> ProviderConfig:
        if cfg is None:
            raise GatewayConfigError(f"no {lane} provider configured")
        return cfg

    def _post_with_retries(self, request: _Request):
        """Decode the cached payload of `request`, or send it and cache the reply.

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
                return request.decode(cached)
            pending.wait()
        try:
            payload = self._send(request)
            result = request.decode(payload)
            self.cache.put(request.key, payload)
            return result
        finally:
            with self._inflight_lock:
                del self._inflight[request.key]
            done.set()

    def _send(self, request: _Request) -> dict:
        cfg = request.cfg
        headers = {"Content-Type": "application/json"}
        key = cfg.api_key()  # raises before any network traffic if misconfigured
        if key:
            headers["Authorization"] = f"Bearer {key}"

        data = request.body.encode("utf-8")
        attempts = 0
        last_error = "unknown error"
        last_status = None
        with self._semaphores[request.lane]:
            while attempts <= cfg.max_retries:
                attempts += 1
                try:
                    status, raw = _post_once(request.url, data, headers, cfg.timeout)
                except (OSError, ValueError, http.client.HTTPException) as exc:
                    # URLError and timeouts are OSErrors; ValueError is a
                    # malformed URL or header value.
                    last_error = f"transport error: {exc}"
                    logger.warning("gateway attempt %d failed: %s", attempts, last_error)
                else:
                    last_status = status
                    if status == 200:
                        try:
                            payload = json.loads(raw)
                        except ValueError as exc:
                            raise GatewayError(
                                f"malformed response body (not JSON): {exc}",
                                status=200,
                                attempts=attempts,
                            ) from exc
                        return payload
                    if status not in _RETRYABLE_STATUS:
                        raise GatewayError(
                            f"request rejected with HTTP {status}",
                            status=status,
                            attempts=attempts,
                        )
                    last_error = f"HTTP {status}"
                    logger.warning("gateway attempt %d failed: %s", attempts, last_error)
                if attempts <= cfg.max_retries:
                    time.sleep(cfg.retry_backoff * (2 ** (attempts - 1)))
        raise GatewayError(
            f"gave up after {attempts} attempts: {last_error}",
            status=last_status,
            attempts=attempts,
        )


def _post_once(url: str, data: bytes, headers: dict[str, str],
               timeout: float) -> tuple[int, bytes]:
    """POST once and return (status, body); an HTTP error status is returned
    with an empty body instead of raised."""
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        return exc.code, b""
