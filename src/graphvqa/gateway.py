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
as an append-only JSON-lines file, so eval reruns cost nothing. Requests go
out through the standard library's
``urllib.request``, which takes proxies from the standard environment
variables and verifies HTTPS against the default SSL context.
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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, Union

from .errors import (
    DataFormatError,
    GatewayConfigError,
    GatewayError,
    MissingCaptionError,
    MissingEmbeddingError,
    DimensionError,
)
from .graph import vector_norm
from .store import VideoBundle

logger = logging.getLogger(__name__)

REMOTE_CHAT = "RemoteChat"
REMOTE_EMBED = "RemoteEmbed"
PRECOMPUTED_CAPTION = "PrecomputedCaption"
PRECOMPUTED_EMBED = "PrecomputedEmbed"
SCRIPTED = "Scripted"

_KINDS = {REMOTE_CHAT, REMOTE_EMBED, PRECOMPUTED_CAPTION, PRECOMPUTED_EMBED, SCRIPTED}
_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

Message = tuple[str, str]
T = TypeVar("T")


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
    """Read a script file: one JSON object per line, `#` comments allowed.

    Keys: reply (required), round (int), contains (str), contains_all (list).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GatewayConfigError(f"cannot read script {path}: {exc.strerror}") from exc
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GatewayConfigError(f"{path}:{line_no}: invalid script entry: {exc}") from exc
        if not isinstance(obj, dict) or "reply" not in obj:
            raise GatewayConfigError(f"{path}:{line_no}: script entry needs a 'reply' field")
        entries.append(
            ScriptEntry(
                reply=str(obj["reply"]),
                round=obj.get("round"),
                contains=obj.get("contains"),
                contains_all=tuple(obj.get("contains_all", ())),
            )
        )
    return entries


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


def pseudo_embedding(text: str, dim: int, seed: int = 0) -> list[float]:
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
    return [v / norm for v in values]


class ResponseCache:
    """Thread-safe response cache, optionally persisted as JSON lines.

    Each put appends one line holding a one-entry object ``{key: value}``;
    earlier lines are never rewritten. The loader merges every line in
    order, so a file holding one object with many entries on a single line
    loads as well. A truncated last line (an interrupted append) is cut off
    the file so the next append starts on a line of its own; any other
    malformed line raises DataFormatError.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        self._data: dict[str, object] = {}
        if self.path and self.path.exists():
            self._load()

    def _load(self) -> None:
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        tail = lines.pop()  # empty when the file ends with a newline
        for line_no, line in enumerate(lines, start=1):
            self._merge(line, line_no)
        if not tail:
            return
        try:
            self._merge(tail, len(lines) + 1)
        except DataFormatError as exc:
            logger.warning("dropping truncated last line of %s: %s", self.path, exc)
            with self.path.open("r+b") as handle:
                handle.truncate(len(raw) - len(tail))
        else:
            with self.path.open("ab") as handle:
                handle.write(b"\n")

    def _merge(self, line: bytes, line_no: int) -> None:
        try:
            record = json.loads(line)
        except ValueError as exc:  # also covers invalid UTF-8
            raise DataFormatError(f"{self.path}:{line_no}: malformed cache record: {exc}") from exc
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
                line = json.dumps({key: value}, sort_keys=True, ensure_ascii=False) + "\n"
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("ab") as handle:
                    handle.write(line.encode("utf-8"))


class ModelGateway:
    """One object bundling the chat, caption, and embed lanes.

    Safe for concurrent use across sessions; remote calls are limited by a
    per-provider in-flight semaphore, and concurrent misses on one request
    are merged so only the first caller sends it. Without a `cache` the
    gateway keeps its responses in memory. Scripted chat counts calls per
    gateway, so concurrent sessions each take their own view from
    `for_session`.
    """

    def __init__(
        self,
        chat: Optional[ProviderConfig] = None,
        caption: Optional[ProviderConfig] = None,
        embed: Optional[ProviderConfig] = None,
        cache: Optional[ResponseCache] = None,
        chat_script: Optional[Sequence[ScriptEntry]] = None,
    ):
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
        self._semaphores: dict[str, threading.Semaphore] = {}
        # Cache key -> event set once its sender has finished, successful or not.
        self._inflight: dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()

    def for_session(self) -> "ModelGateway":
        """A view for one agent session: it shares this gateway's cache,
        in-flight limits and merged misses but counts scripted chat calls
        from 1 again."""
        view = copy.copy(self)
        if self._scripted_chat is not None:
            view._scripted_chat = ScriptedChat(self._scripted_chat.entries)
        return view

    # -- chat and captions --------------------------------------------------------

    def chat(self, messages: Sequence[Message]) -> str:
        """Return the assistant's reply text for a message list."""
        if not messages:
            raise ValueError("messages must be nonempty")
        cfg = self._require(self.chat_cfg, "chat")
        if cfg.kind == SCRIPTED:
            prompt = "\n".join(text for _, text in messages)
            return self._scripted_chat.reply(prompt)
        return self._complete(cfg, messages, "chat")

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
        prompt = f"Caption frame {frame_index} of video {bundle.video_id}."
        return self._complete(cfg, [("user", prompt)], "caption")

    def _complete(self, cfg: ProviderConfig, messages: Sequence[Message], lane: str) -> str:
        """POST one chat completion and return the first choice's text.

        The request body doubles as the cache key, so its rendering is fixed.
        """
        if cfg.kind != REMOTE_CHAT:
            raise GatewayConfigError(f"provider kind {cfg.kind} cannot serve {lane}")
        body = json.dumps(
            {
                "model": cfg.model_name,
                "messages": [{"role": role, "content": text} for role, text in messages],
                "temperature": cfg.temperature,
            },
            sort_keys=True,
            ensure_ascii=False,
        )

        def text(payload) -> str:
            try:
                content = payload["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise GatewayError(f"malformed {lane} payload: missing {exc!r}") from exc
            if not isinstance(content, str):
                raise GatewayError(f"malformed {lane} payload: content is {type(content).__name__}")
            return content

        return self._post_with_retries(
            cfg, f"{cfg.endpoint.rstrip('/')}/v1/chat/completions", body, text
        )

    # -- embeddings ---------------------------------------------------------------

    @property
    def has_embedder(self) -> bool:
        return self.embed_cfg is not None

    def embed(self, text_or_frame: Union[str, int], bundle: Optional[VideoBundle] = None) -> list[float]:
        """Embed a query string or a frame index. Same input, same vector."""
        cfg = self._require(self.embed_cfg, "embed")
        if cfg.kind == PRECOMPUTED_EMBED:
            if not isinstance(text_or_frame, int):
                raise MissingEmbeddingError(
                    "precomputed embeddings cover frames only, not query text"
                )
            if bundle is None or text_or_frame not in bundle.embeddings:
                raise MissingEmbeddingError(f"no embedding for frame {text_or_frame}")
            return list(bundle.embeddings[text_or_frame])
        if cfg.kind == SCRIPTED:
            token = f"frame:{text_or_frame}" if isinstance(text_or_frame, int) else f"text:{text_or_frame}"
            if bundle is not None and isinstance(text_or_frame, int) and text_or_frame in bundle.embeddings:
                return list(bundle.embeddings[text_or_frame])
            dim = cfg.embed_dim
            if bundle is not None and bundle.embedding_dim:
                dim = bundle.embedding_dim
            return pseudo_embedding(token, dim, cfg.seed)
        if cfg.kind != REMOTE_EMBED:
            raise GatewayConfigError(f"provider kind {cfg.kind} cannot serve embeddings")
        body = json.dumps(
            {"model": cfg.model_name, "input": str(text_or_frame)},
            sort_keys=True,
            ensure_ascii=False,
        )

        def floats(payload) -> list[float]:
            try:
                return [float(x) for x in payload["data"][0]["embedding"]]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise GatewayError(f"malformed embeddings payload: {exc!r}") from exc

        vector = self._post_with_retries(
            cfg, f"{cfg.endpoint.rstrip('/')}/v1/embeddings", body, floats
        )
        if bundle is not None and bundle.embedding_dim and len(vector) != bundle.embedding_dim:
            raise DimensionError(
                f"remote embedding dim {len(vector)} does not match bundle dim {bundle.embedding_dim}"
            )
        return vector

    # -- wire plumbing ---------------------------------------------------------

    def _require(self, cfg: Optional[ProviderConfig], lane: str) -> ProviderConfig:
        if cfg is None:
            raise GatewayConfigError(f"no {lane} provider configured")
        return cfg

    def _semaphore(self, cfg: ProviderConfig) -> threading.Semaphore:
        sem = self._semaphores.get(cfg.provider_id)
        if sem is None:
            sem = self._semaphores.setdefault(cfg.provider_id, threading.Semaphore(cfg.max_inflight))
        return sem

    def _post_with_retries(self, cfg: ProviderConfig, url: str, body: str,
                           decode: Callable[[object], T]) -> T:
        """Decode the cached payload for `body`, or send it and cache the reply.

        While one caller sends a request, others asking for the same one wait
        and then read the cache. If sending or `decode` fails nothing is
        cached, and the next waiter sends the request itself.
        """
        cache_key = ResponseCache.key(cfg.provider_id, body)
        while True:
            with self._inflight_lock:
                cached = self.cache.get(cache_key)
                pending = self._inflight.get(cache_key)
                if cached is None and pending is None:
                    done = self._inflight[cache_key] = threading.Event()
                    break
            if cached is not None:
                return decode(cached)
            pending.wait()
        try:
            payload = self._send(cfg, url, body)
            result = decode(payload)
            self.cache.put(cache_key, payload)
            return result
        finally:
            with self._inflight_lock:
                del self._inflight[cache_key]
            done.set()

    def _send(self, cfg: ProviderConfig, url: str, body: str) -> dict:
        headers = {"Content-Type": "application/json"}
        key = cfg.api_key()  # raises before any network traffic if misconfigured
        if key:
            headers["Authorization"] = f"Bearer {key}"

        data = body.encode("utf-8")
        attempts = 0
        last_error = "unknown error"
        last_status = None
        with self._semaphore(cfg):
            while attempts <= cfg.max_retries:
                attempts += 1
                try:
                    status, raw = _post_once(url, data, headers, cfg.timeout)
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
