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
import functools
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
from .gateway import SCRIPTED, ModelGateway, ProviderConfig, ResponseCache
from .graph import GraphConfig, VideoGraph
from .harness import run_eval
from .lines import Log, parse_object
from .parsing import Lexicon, default_lexicon, load_lexicon, parse_caption
from .selector import SelectorConfig
from .store import load_bundle, replace_text, save_graph, save_transcript

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GATEWAY = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use: parsing leaves it
    as it was, and no default it hands out is changed in place."""
    parser = _Parser(prog="graphvqa", description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--provider": {"help": "named provider block from the config"},
        "--seed": {"type": int, "help": "override the seed of Scripted lanes"},
        "--out": {"help": "output directory"},
    }

    def common(p, *names):
        """`--config`, and those of `flags` the subcommand reads."""
        p.add_argument("--config", help="JSON config file")
        for name in names:
            p.add_argument(name, **flags[name])

    p_run = sub.add_parser("run", help="answer one question about one bundle")
    common(p_run, *flags)
    p_run.add_argument("--bundle", required=True, help="bundle directory")
    p_run.add_argument("--question", required=True)
    p_run.add_argument("--options", nargs="+", default=[], help="answer options (up to 5)")

    p_eval = sub.add_parser("eval", help="batch-evaluate a QA file")
    common(p_eval, *flags)
    p_eval.add_argument("--qa", required=True, help="QA file (one JSON record per line)")
    p_eval.add_argument("--bundle", required=True, help="root directory of bundles")
    p_eval.add_argument("--parallel", type=int, default=1)

    p_graph = sub.add_parser("graph", help="build and dump a bundle's graph")
    common(p_graph, "--out")
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

_CONFIG_KEYS = ("agent", "selector", "graph", "providers", "lexicon_dir", "cache_path")


def load_config(path: Optional[str]) -> dict:
    """The config file's object, whose every top-level key is one of
    `_CONFIG_KEYS`, so a misspelled key is refused rather than ignored."""
    if not path:
        return {}
    config_path = Path(path)
    if not config_path.is_file():
        raise CliUsageError(f"config file not found: {path}")
    config = parse_object(config_path.read_bytes(), f"bad config: {path}", CliUsageError)
    unknown = sorted(set(config) - set(_CONFIG_KEYS))
    if unknown:
        raise CliUsageError(f"bad config: unknown key {', '.join(map(repr, unknown))} "
                            f"(keys: {', '.join(_CONFIG_KEYS)})")
    for key in ("agent", "selector", "graph"):
        if not isinstance(config.get(key, {}), dict):
            raise CliUsageError(f"bad config: {key} must be an object, got {config[key]!r}")
    providers = config.get("providers", {})
    if not isinstance(providers, dict) or not all(isinstance(b, dict) for b in providers.values()):
        raise CliUsageError("bad config: providers must map each name to an object")
    for key in ("lexicon_dir", "cache_path"):
        if not isinstance(config.get(key), (str, type(None))):
            raise CliUsageError(f"bad config: {key} must be a path, got {config[key]!r}")
    return config


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


_LANES = ("chat", "caption", "embed")


def build_gateway(config: dict, provider_name: Optional[str],
                  seed: Optional[int]) -> ModelGateway:
    """The gateway of the chosen provider block, whose keys must be lanes:
    `chat` and `caption` are required, `embed` is optional. `seed`, if
    given, replaces the seed of its Scripted lanes."""
    block = _provider_block(config, provider_name)
    unknown = sorted(set(block) - set(_LANES))
    if unknown:
        raise GatewayConfigError(f"provider block holds {', '.join(map(repr, unknown))}, "
                                 f"which are not lanes (lanes: {', '.join(_LANES)})")
    missing = [lane for lane in ("chat", "caption") if block.get(lane) is None]
    if missing:
        raise GatewayConfigError(f"provider block has no {' or '.join(missing)} lane")

    def provider(lane: str) -> Optional[ProviderConfig]:
        spec = block.get(lane)
        if spec is None:
            return None
        try:
            cfg = ProviderConfig(**spec)
        except TypeError as exc:
            raise GatewayConfigError(f"bad {lane} provider config: {exc}") from exc
        # a remote lane's cache keys name its seed, which its replies ignore
        if seed is not None and cfg.kind == SCRIPTED:
            cfg.seed = seed
        return cfg

    return ModelGateway(**{lane: provider(lane) for lane in _LANES},
                        cache=ResponseCache(config.get("cache_path")))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _out_dir(path: Optional[str]) -> Optional[Path]:
    """The --out directory, if given, checked before any work is done: it
    may not exist yet, but neither it nor its nearest existing parent is a
    file."""
    if not path:
        return None
    out = Path(path)
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise CliUsageError(f"--out {path}: {existing} is not a directory")
    return out


def _cmd_run(args) -> int:
    out = _out_dir(args.out)
    if not args.question:
        raise CliUsageError("--question must be nonempty")
    if len(args.options) > 5:
        raise CliUsageError(f"--options takes at most 5 options, got {len(args.options)}")
    config = load_config(args.config)
    cfg = agent_config_from(config)
    lexicon = lexicon_from(config)
    bundle = load_bundle(args.bundle)
    with build_gateway(config, args.provider, args.seed) as gateway:
        session, graph = VideoAgent(bundle, gateway, cfg, lexicon).run(args.question, args.options)

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
    if out:  # opening the transcript log makes the directory
        with Log(out / "transcripts.jsonl", DataFormatError) as log:
            save_transcript(session, log)
        replace_text(out / "graph.json", save_graph(graph).decode("utf-8"))
        print(f"transcript and graph written to {out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    out_dir = _out_dir(args.out or "eval_out")
    if args.parallel < 1:
        raise CliUsageError(f"--parallel must be >= 1, got {args.parallel}")
    config = load_config(args.config)
    cfg = agent_config_from(config)
    lexicon = lexicon_from(config)
    with build_gateway(config, args.provider, args.seed) as gateway:
        report = run_eval(args.qa, args.bundle, cfg, gateway, out_dir,
                          parallel=args.parallel, lexicon=lexicon)
    print(report.render_text())
    print(f"report written to {out_dir / 'report.json'}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    out = _out_dir(args.out)
    config = load_config(args.config)
    lexicon = lexicon_from(config)
    with _bad_config():
        graph_cfg = GraphConfig(**config.get("graph", {}))
    bundle = load_bundle(args.bundle)

    graph = VideoGraph(config=graph_cfg)
    frames = [
        (parse_caption(bundle.captions[frame], frame, lexicon), bundle.embeddings.get(frame))
        for frame in sorted(bundle.captions)
    ]
    if frames:
        graph.update_graph(frames)

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
    if out:
        replace_text(out / "graph.json", save_graph(graph).decode("utf-8"))
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
    except GatewayConfigError as exc:
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
