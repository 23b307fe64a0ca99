"""Graph-guided long-video question answering.

A dynamic entity-relation graph built from frame captions drives iterative
frame retrieval for a self-reflecting multiple-choice QA agent. Models sit
behind a gateway (OpenAI-compatible wire clients, precomputed bundles, or
deterministic scripted providers), so the whole pipeline runs offline.
"""

# Set before the submodule imports: the gateway's User-Agent names it.
__version__ = "0.1.0"

from .agent import (
    AgentAction,
    AgentConfig,
    AgentSession,
    RoundLog,
    Termination,
    VideoAgent,
    decide_action,
    uniform_sample,
)
from .gateway import ModelGateway, ProviderConfig, ResponseCache, ScriptEntry
from .graph import (
    Embedding,
    EntityNode,
    GraphConfig,
    RelationEdge,
    VideoGraph,
)
from .harness import EvalReport, bucket_by_entity_count, run_eval
from .parsing import (
    CaptionParse,
    EntityType,
    ExtractedTriple,
    Lexicon,
    Mention,
    QueryParse,
    RelationCategory,
    default_lexicon,
    load_lexicon,
    parse_caption,
    parse_question,
)
from .selector import SelectorConfig, identify_segments, select_frames
from .store import (
    QAItem,
    VideoBundle,
    load_bundle,
    load_graph,
    load_qa,
    save_bundle,
    save_graph,
    save_transcript,
)
