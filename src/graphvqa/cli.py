"""Command-line interface.

Subcommands:
    run      answer one question about one bundle
    eval     batch-evaluate a QA file, writing transcripts and a report
    graph    build a bundle's entity-relation graph without the agent
    extract  parse captions only (mentions / triples / state events)

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 gateway exhaustion.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Optional

from .agent import AgentConfig, VideoAgent
from .errors import (
    DataFormatError,
    GatewayConfigError,
    GatewayError,
    GraphVQAError,
    LexiconError,
)
from .gateway import ModelGateway, ProviderConfig, ResponseCache
from .graph import FrameRecord, GraphConfig, VideoGraph
from .harness import run_eval
from .parsing import Lexicon, default_lexicon, load_lexicon, parse_caption
from .selector import SelectorConfig
from .store import load_bundle, save_graph, save_transcript

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GATEWAY = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphvqa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--provider", help="named provider block from the config")
        p.add_argument("--seed", type=int, help="override the scripted-embedding seed")
        p.add_argument("--out", help="output directory")

    p_run = sub.add_parser("run", help="answer one question about one bundle")
    common(p_run)
    p_run.add_argument("--bundle", required=True, help="bundle directory")
    p_run.add_argument("--question", required=True)
    p_run.add_argument("--options", nargs="+", default=[], help="answer options (up to 5)")

    p_eval = sub.add_parser("eval", help="batch-evaluate a QA file")
    common(p_eval)
    p_eval.add_argument("--qa", required=True, help="QA file (one JSON record per line)")
    p_eval.add_argument("--bundle", required=True, help="root directory of bundles")
    p_eval.add_argument("--parallel", type=int, default=1)

    p_graph = sub.add_parser("graph", help="build and dump a bundle's graph")
    common(p_graph)
    p_graph.add_argument("--bundle", required=True, help="bundle directory")

    p_extract = sub.add_parser("extract", help="parse captions without the agent")
    common(p_extract)
    p_extract.add_argument("--bundle", help="bundle directory to take captions from")
    p_extract.add_argument("--caption", action="append", default=[],
                           help="caption text (repeatable)")
    return parser


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    config_path = Path(path)
    if not config_path.is_file():
        raise CliUsageError(f"config file not found: {path}")
    try:
        return json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"config file {path} is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def _bad_config():
    """Report an unknown key or an out-of-range value in a config section
    as a usage error."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise CliUsageError(f"bad config: {exc}") from exc


def agent_config_from(config: dict) -> AgentConfig:
    with _bad_config():
        return AgentConfig(
            **config.get("agent", {}),
            selector=SelectorConfig(**config.get("selector", {})),
            graph=GraphConfig(**config.get("graph", {})),
        )


def lexicon_from(config: dict) -> Lexicon:
    directory = config.get("lexicon_dir")
    return load_lexicon(directory) if directory else default_lexicon()


def _provider_block(config: dict, name: Optional[str]) -> dict:
    providers = config.get("providers", {})
    if name:
        if name not in providers:
            raise CliUsageError(
                f"provider {name!r} not in config (have: {sorted(providers)})"
            )
        return providers[name]
    if "default" in providers:
        return providers["default"]
    if len(providers) == 1:
        return next(iter(providers.values()))
    if not providers:
        return {}
    raise CliUsageError(
        f"multiple providers configured ({sorted(providers)}); pick one with --provider"
    )


def build_gateway(config: dict, provider_name: Optional[str],
                  seed: Optional[int]) -> ModelGateway:
    block = _provider_block(config, provider_name)

    def provider(lane: str) -> Optional[ProviderConfig]:
        spec = block.get(lane)
        if spec is None:
            return None
        try:
            cfg = ProviderConfig(**spec)
        except TypeError as exc:
            raise GatewayConfigError(f"bad {lane} provider config: {exc}") from exc
        if seed is not None:
            cfg.seed = seed
        return cfg

    return ModelGateway(
        chat=provider("chat"),
        caption=provider("caption"),
        embed=provider("embed"),
        cache=ResponseCache(config.get("cache_path")),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = load_config(args.config)
    cfg = agent_config_from(config)
    lexicon = lexicon_from(config)
    bundle = load_bundle(args.bundle)
    gateway = build_gateway(config, args.provider, args.seed)
    agent = VideoAgent(bundle, gateway, cfg, lexicon)
    session, graph = agent.run(args.question, args.options)

    letter = chr(ord("A") + session.final_answer) if session.options else str(session.final_answer)
    chosen = session.options[session.final_answer] if session.options else "(no options)"
    print(f"answer: {letter}  {chosen}")
    print(f"terminated_by: {session.terminated_by.value}")
    print(f"frames used: {len(session.selected_frames)}  rounds: {len(session.rounds)}")
    for entry in session.rounds:
        print(
            f"  round {entry.round}: prediction={entry.prediction} "
            f"confidence={entry.confidence} frames_added={entry.frames_added}"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_transcript(session, out / "transcripts.jsonl")
        (out / "graph.json").write_bytes(save_graph(graph))
        print(f"transcript and graph written to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = load_config(args.config)
    cfg = agent_config_from(config)
    lexicon = lexicon_from(config)
    out_dir = Path(args.out) if args.out else Path("eval_out")
    gateway = build_gateway(config, args.provider, args.seed)

    def gateway_factory(_item):
        return gateway.for_session()

    report = run_eval(
        args.qa, args.bundle, cfg, gateway_factory, out_dir,
        parallel=args.parallel, lexicon=lexicon,
    )
    print(report.render_text())
    print(f"report written to {out_dir / 'report.json'}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    config = load_config(args.config)
    lexicon = lexicon_from(config)
    with _bad_config():
        graph_cfg = GraphConfig(**config.get("graph", {}))
    bundle = load_bundle(args.bundle)

    graph = VideoGraph(config=graph_cfg)
    records, parses = [], []
    for frame, text in sorted(bundle.captions.items()):
        records.append(FrameRecord(frame, bundle.embeddings.get(frame)))
        parses.append(parse_caption(text, frame, lexicon))
    if records:
        graph.update_graph(records, parses)

    print(
        f"graph for {bundle.video_id}: {len(graph.nodes)} entities, "
        f"{len(graph.edges)} relations, {len(graph.processed_frames)} frames, "
        f"version {graph.version}"
    )
    entity_summary, relation_summary, temporal_summary = graph.summarize(None, 4096)
    print("entities:")
    print("  " + entity_summary.replace("\n", "\n  "))
    print("relations:")
    print("  " + relation_summary.replace("\n", "\n  "))
    print("state changes:")
    print("  " + temporal_summary.replace("\n", "\n  "))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "graph.json").write_bytes(save_graph(graph))
        print(f"graph written to {out / 'graph.json'}")
    return EXIT_OK


def _cmd_extract(args) -> int:
    config = load_config(args.config)
    lexicon = lexicon_from(config)
    captions: list[tuple[int, str]] = []
    if args.bundle:
        bundle = load_bundle(args.bundle)
        captions.extend(sorted(bundle.captions.items()))
    captions.extend(enumerate(args.caption))
    if not captions:
        raise CliUsageError("extract needs --bundle and/or --caption")
    for frame, text in captions:
        parse = parse_caption(text, frame, lexicon)
        print(json.dumps(
            {
                "frame_index": parse.frame_index,
                "caption": text,
                "mentions": [
                    {
                        "lemma": m.lemma,
                        "surface": m.surface,
                        "entity_type": m.entity_type.value,
                        "char_span": list(m.char_span),
                    }
                    for m in parse.mentions
                ],
                "triples": [
                    [t.subject.lemma, t.predicate, t.category.value, t.object.lemma]
                    for t in parse.triples
                ],
                "state_events": [[m.lemma, label] for m, label in parse.state_events],
            },
            sort_keys=True,
            ensure_ascii=False,
        ))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "eval": _cmd_eval,
    "graph": _cmd_graph,
    "extract": _cmd_extract,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GatewayConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, LexiconError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return EXIT_GATEWAY
    except GraphVQAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
