"""What each lane returns or raises for every provider kind, and unset.

One table row per (lane, kind): the outcome of every entry point that serves
the lane (`chat`, `caption`, `embed`) and of `gather`, as a value or as the
error's type and message, and how many requests reached the wire. A kind that
cannot serve a lane fails when the gateway is built. Remote lanes talk to
`model_stub`, whose replies are derived from each request body, so a changed
body changes the pinned value.
"""

from __future__ import annotations

import pytest

from conftest import make_bundle
from graphvqa.gateway import ModelGateway, ProviderConfig, ScriptEntry

MESSAGES = [("system", "be brief"), ("user", "a dog appears")]
SCRIPT = [ScriptEntry(reply="first", round=1), ScriptEntry(reply="dog", contains="dog"),
          ScriptEntry(reply="fallback")]


def shown(result):
    """A result as the table writes it: a vector rounded to 6 places, an
    error as (type name, message), a gather result as a list of those."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    if isinstance(result, list):
        return [shown(r) for r in result]
    if isinstance(result, tuple):
        return tuple(round(v, 6) for v in result)
    return result


def outcome(call):
    try:
        return shown(call())
    except Exception as exc:  # noqa: BLE001 - the table pins it
        return shown(exc)


def served(gateway, lane):
    # Captions on frames 0 and 2 only; 8-dim vectors on frames 0-3, as the stub's.
    bundle = make_bundle(total_frames=4, caption_every=2, dim=8)
    if lane == "chat":
        return {
            "chat": [outcome(lambda: gateway.chat(MESSAGES)) for _ in range(3)],
            "chat []": outcome(lambda: gateway.chat([])),
            "gather": outcome(lambda: gateway.gather([("chat", "x")], bundle)),
        }
    if lane == "caption":
        return {
            "caption 0": outcome(lambda: gateway.caption(0, bundle)),
            "caption 1": outcome(lambda: gateway.caption(1, bundle)),
            "can_caption": [gateway.can_caption(frame, bundle) for frame in (0, 1)],
            "gather": outcome(lambda: gateway.gather([("caption", 0), ("caption", 1)], bundle)),
        }
    return {
        "embed 0": outcome(lambda: gateway.embed(0, bundle)),
        "embed 99": outcome(lambda: gateway.embed(99, bundle)),
        "embed text": outcome(lambda: gateway.embed("a dog", bundle)),
        "embed text, no bundle": outcome(lambda: gateway.embed("a dog")),
        "embed text, 4-dim bundle": outcome(lambda: gateway.embed("a cat", make_bundle(dim=4))),
        "has_embedder": gateway.has_embedder,
        "gather": outcome(lambda: gateway.gather([("embed", 0), ("embed", 99), ("embed", "a dog")],
                                                 bundle)),
    }


def lane_outcomes(lane, kind, model_stub):
    """Every outcome the table pins for `lane` served by `kind` (None: unset)."""
    endpoint, state = model_stub
    cfg = None
    if kind is not None:
        remote = kind.startswith("Remote")
        cfg = ProviderConfig(kind=kind, endpoint=endpoint if remote else "",
                             model_name="stub-model" if remote else "", retry_backoff=0.001,
                             timeout=5.0, max_retries=0, embed_dim=5, seed=3)
    try:
        gateway = ModelGateway(**{lane: cfg}, chat_script=SCRIPT if lane == "chat" else None)
    except Exception as exc:  # noqa: BLE001 - the table pins it
        return {"build": shown(exc)}
    with gateway:
        return {**served(gateway, lane), "sent": len(state.requests)}


# The vectors the table expects: the stub's replies, bundle frame 0, and
# scripted pseudo-embeddings (seed 3) at the bundle's dim 8 or the lane's 5.
STUB_0 = (0.505882, 0.278431, 0.87451, -0.32549, -0.615686, -0.756863, 0.082353, 0.309804)
STUB_99 = (-0.654902, 0.364706, -0.32549, -0.333333, 0.278431, -0.058824, -0.223529, 0.882353)
STUB_DOG = (0.631373, -0.952941, 0.129412, 0.411765, -0.764706, -0.607843, 0.294118, 0.678431)
BUNDLE_0 = (-0.268622, -0.884002, 0.014871, -0.925009, -0.132709, -0.860289, -0.818574,
            -0.150962)
PSEUDO_99 = (-0.559533, -0.329597, -0.274289, -0.050659, -0.209838, -0.594089, 0.142147,
             -0.288631)
PSEUDO_DOG = (-0.139571, -0.007326, 0.345839, 0.267933, -0.396866, 0.295587, -0.527408,
              -0.515791)
PSEUDO_DOG_5 = (-0.229942, -0.012069, 0.569766, 0.441417, -0.653834)
PSEUDO_CAT_4 = (0.547544, 0.32398, -0.771451, 0.00983)

NOT_CHAT = "ValueError", "unknown lane 'chat'"
NO_TEXT = "MissingEmbeddingError", "precomputed embeddings cover frames only, not query text"
NO_CAPTION_1 = "MissingCaptionError", "no caption for frame 1 of video 'vid'"
UNSET = {lane: ("GatewayConfigError", f"no {lane} provider configured")
         for lane in ("chat", "caption", "embed")}

EXPECTED = {
    ("chat", "RemoteChat"): {
        "chat": ["echo:1696a825bc38"] * 3,  # the memo answers a repeated prompt
        "chat []": ("ValueError", "messages must be nonempty"),
        "gather": NOT_CHAT,
        "sent": 1,
    },
    ("chat", "Scripted"): {
        "chat": ["first", "dog", "dog"],
        "chat []": ("ValueError", "messages must be nonempty"),
        "gather": NOT_CHAT,
        "sent": 0,
    },
    ("chat", None): {
        "chat": [UNSET["chat"]] * 3,
        "chat []": ("ValueError", "messages must be nonempty"),
        "gather": NOT_CHAT,
        "sent": 0,
    },
    ("caption", "RemoteChat"): {
        "caption 0": "echo:04bf45dc59bf",
        "caption 1": "echo:3d3fcd9f8edf",
        "can_caption": [True, True],
        "gather": ["echo:04bf45dc59bf", "echo:3d3fcd9f8edf"],
        "sent": 2,
    },
    ("caption", "PrecomputedCaption"): {
        "caption 0": "the book chases the dog",
        "caption 1": NO_CAPTION_1,
        "can_caption": [True, False],
        "gather": ["the book chases the dog", NO_CAPTION_1],
        "sent": 0,
    },
    ("caption", None): {
        "caption 0": UNSET["caption"],
        "caption 1": UNSET["caption"],
        "can_caption": [False, False],
        "gather": [UNSET["caption"]] * 2,
        "sent": 0,
    },
    ("embed", "RemoteEmbed"): {
        "embed 0": STUB_0,
        "embed 99": STUB_99,
        "embed text": STUB_DOG,
        "embed text, no bundle": STUB_DOG,
        "embed text, 4-dim bundle": ("DimensionError",
                                     "remote embedding dim 8 does not match bundle dim 4"),
        "has_embedder": True,
        "gather": [STUB_0, STUB_99, STUB_DOG],
        "sent": 4,
    },
    ("embed", "PrecomputedEmbed"): {
        "embed 0": BUNDLE_0,
        "embed 99": ("MissingEmbeddingError", "no embedding for frame 99"),
        "embed text": NO_TEXT,
        "embed text, no bundle": NO_TEXT,
        "embed text, 4-dim bundle": NO_TEXT,
        "has_embedder": True,
        "gather": [BUNDLE_0, ("MissingEmbeddingError", "no embedding for frame 99"), NO_TEXT],
        "sent": 0,
    },
    ("embed", "Scripted"): {
        "embed 0": BUNDLE_0,
        "embed 99": PSEUDO_99,
        "embed text": PSEUDO_DOG,
        "embed text, no bundle": PSEUDO_DOG_5,
        "embed text, 4-dim bundle": PSEUDO_CAT_4,
        "has_embedder": True,
        "gather": [BUNDLE_0, PSEUDO_99, PSEUDO_DOG],
        "sent": 0,
    },
    ("embed", None): {
        **{call: UNSET["embed"] for call in ("embed 0", "embed 99", "embed text",
                                            "embed text, no bundle", "embed text, 4-dim bundle")},
        "has_embedder": False,
        "gather": [UNSET["embed"]] * 3,
        "sent": 0,
    },
}


@pytest.mark.parametrize("lane", ["chat", "caption", "embed"])
@pytest.mark.parametrize("kind", ["RemoteChat", "RemoteEmbed", "PrecomputedCaption",
                                  "PrecomputedEmbed", "Scripted", None])
def test_lane_outcome_for_each_provider_kind(model_stub, lane, kind):
    expected = EXPECTED.get((lane, kind), {
        "build": ("GatewayConfigError", f"provider kind {kind} cannot serve {lane}")})
    assert lane_outcomes(lane, kind, model_stub) == expected
