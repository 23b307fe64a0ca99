"""graphvqa benchmark: two closed-loop workloads run through ``graphvqa.cli.main``.

    python3 bench/run.py --workload remote-eval --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.

Workloads (see ``layers.json`` for why each was chosen and which per-layer
metric should move which end-to-end metric):

- ``remote-eval``: ``graphvqa eval --parallel 2`` over 20k-frame videos, all
  three model lanes remote against the stub server, no response cache.
- ``cache-rerun``: the same at ``--parallel 1`` with ``cache_path`` set: a
  cold pass from an empty cache file, then warm passes served from it.

Each run starts the stub model server once, then repeats rounds of the
workload's passes until ``--seconds`` is used up, at least ``min_passes``
times; every round first sets up its inputs afresh (``setup_s`` is the
median set-up time). Every pass is checked: exit code 0, outputs
byte-identical across passes, and the semantic outcome of every question
(final answer, selected frames, termination, rounds) equal to
``reference.json``. With ``--trace 1`` the run measures once untraced and
once with every layer wrapped (``spans.py``), reports per-layer metrics and
the tracing overhead, and writes the spans to
``.bench_spans/<workload>-seed<n>.jsonl``. The last line of stdout is one
JSON object.

``--write-reference`` recomputes ``reference.json`` over every question of
the input pool with the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
DATA_DIR = SRC / "graphvqa" / "data"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_spans"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
import spans  # noqa: E402

SETUPS_PER_ROUND = 3
LANES = ("chat", "caption", "embed")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n_min: int) -> int:
    """Highest whole percentile with at least 10 of `n_min` samples beyond it."""
    return math.floor(100.0 * (1.0 - 10.0 / n_min))


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per(count: float, base: float) -> float:
    return count / base if base else 0.0


class Stub:
    """The stub model server, in a child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--data-dir", str(DATA_DIR)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.endpoint + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        request = urllib.request.Request(self.endpoint + "/reset", data=b"{}", method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class LatencyTimer:
    """Wall time of every ``VideoAgent.run`` call: the only wrapper in
    untraced runs."""

    def __init__(self):
        from graphvqa.agent import VideoAgent

        self.owner = VideoAgent
        self.original = VideoAgent.__dict__["run"]
        self.samples: list[float] = []
        original, samples = self.original, self.samples

        def run(agent, *args, **kwargs):
            started = time.perf_counter()
            result = original(agent, *args, **kwargs)
            samples.append(time.perf_counter() - started)
            return result

        VideoAgent.run = run

    def take(self) -> list[float]:
        taken = list(self.samples)
        self.samples.clear()
        return taken

    def close(self) -> None:
        self.owner.run = self.original


@dataclass
class Pass:
    kind: str  # "eval", "cold" or "warm"
    wall_s: float
    items: int  # questions
    latencies: list[float] = field(default_factory=list)
    stub: Optional[dict] = None
    outputs: tuple = ()
    failed: int = 0
    cache_bytes: int = 0


@dataclass
class Measurement:
    passes: list[Pass]
    peak_rss_mb: float
    problems: list[str]
    setup_s: list[float]

    def of(self, *kinds) -> list[Pass]:
        return [p for p in self.passes if p.kind in kinds]


def repeat_rounds(seconds: float, min_rounds: int, run_round) -> list[Pass]:
    """Run `run_round(index)` at least `min_rounds` times, then for as long
    as the next round is expected to end within `seconds`."""
    passes: list[Pass] = []
    started = time.perf_counter()
    rounds = 0
    while True:
        passes.extend(run_round(rounds))
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return passes


def call_cli(argv: list[str]) -> tuple[int, str]:
    from graphvqa import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)  # looked up at call time, so a traced wrapper is used
    return code, buffer.getvalue()


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB on
    Linux); the stub server is a child process and not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Eval workloads
# ---------------------------------------------------------------------------

class EvalWorkload:
    def __init__(self, name: str, parallel: int, cached: bool, min_passes: int,
                 warm_passes: int = 0):
        self.name = name
        self.parallel = parallel
        self.cached = cached
        self.min_passes = min_passes  # cold passes when cached
        self.warm_passes = warm_passes
        self.stub: Optional[Stub] = None
        self.directory: Optional[Path] = None

    @property
    def n_items(self) -> int:
        return len(self.items)

    def start(self) -> None:
        """Import the program and start the stub server: once per run,
        before anything is timed."""
        import graphvqa.cli  # noqa: F401

        self.stub = Stub()

    def setup(self, seed: int, directory: Path, items: Optional[list[dict]] = None) -> None:
        """Generate the inputs, write them where ``graphvqa eval`` reads them,
        and load them with the program's own loaders, as eval does before
        its first question."""
        from graphvqa import cli, parsing, store

        self.items = items or inputs.eval_selection(
            seed, inputs.eval_videos(inputs.Vocabulary(DATA_DIR)))
        directory.mkdir(parents=True)
        videos = sorted({item["video_id"] for item in self.items})
        for video_id in videos:
            inputs.write_manifest(directory / "bundles" / video_id, video_id, inputs.EVAL_FRAMES)
        inputs.write_qa(directory / "qa.jsonl", self.items)
        remote = {"endpoint": self.stub.endpoint, "model_name": "stub", "timeout": 30.0,
                  "max_retries": 3, "retry_backoff": 0.05}
        config = {"providers": {"default": {
            "chat": {"kind": "RemoteChat", **remote},
            "caption": {"kind": "RemoteChat", **remote},
            "embed": {"kind": "RemoteEmbed", **remote},
        }}}
        if self.cached:
            config["cache_path"] = str(directory / "cache.json")
        (directory / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")

        loaded = cli.load_config(str(directory / "config.json"))
        cli.agent_config_from(loaded)
        parsing.load_lexicon(DATA_DIR)
        cli.build_gateway(loaded, None, None)
        store.load_qa(directory / "qa.jsonl")
        for video_id in videos:
            store.load_bundle(directory / "bundles" / video_id)
        self.directory = directory

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    def _pass(self, kind: str, timer: LatencyTimer, tag: str) -> Pass:
        out = self.directory / f"out-{tag}"
        argv = ["eval", "--qa", str(self.directory / "qa.jsonl"),
                "--bundle", str(self.directory / "bundles"),
                "--config", str(self.directory / "config.json"),
                "--out", str(out), "--parallel", str(self.parallel)]
        self.stub.reset()
        timer.take()
        started = time.perf_counter()
        code, _ = call_cli(argv)
        wall = time.perf_counter() - started
        stub = self.stub.stats()
        cache = self.directory / "cache.json"
        cache_bytes = cache.stat().st_size if kind == "cold" and cache.exists() else 0
        report = (out / "report.json").read_bytes() if code == 0 else b""
        transcripts = (out / "transcripts.jsonl").read_bytes() if code == 0 else b""
        shutil.rmtree(out, ignore_errors=True)
        failed = self.n_items if code != 0 else len(json.loads(report)["failures"])
        return Pass(kind, wall, self.n_items, timer.take(), stub, (code, report, transcripts), failed,
                    cache_bytes)

    def _round(self, timer: LatencyTimer, index: int) -> list[Pass]:
        if not self.cached:
            return [self._pass("eval", timer, str(index))]
        (self.directory / "cache.json").unlink(missing_ok=True)
        cold = self._pass("cold", timer, f"{index}-cold")
        return [cold] + [self._pass("warm", timer, f"{index}-warm{w}") for w in range(self.warm_passes)]

    def measure(self, seconds: float, seed: Optional[int] = None) -> Measurement:
        """Repeat rounds of passes for `seconds`. Given a seed, every round
        first sets up its inputs afresh, SETUPS_PER_ROUND times, each timed,
        so set-up is sampled across the whole run rather than in one burst;
        without one, the rounds reuse the last set-up."""
        timer = LatencyTimer()
        setup_s: list[float] = []

        def run_round(index: int) -> list[Pass]:
            for repeat in range(SETUPS_PER_ROUND if seed is not None else 0):
                if self.directory is not None:
                    shutil.rmtree(self.directory)
                started = time.perf_counter()
                self.setup(seed, WORK / f"setup-{index}-{repeat}")
                setup_s.append(time.perf_counter() - started)
            return self._round(timer, index)

        try:
            passes = repeat_rounds(seconds, self.min_passes, run_round)
        finally:
            timer.close()
        return Measurement(passes, peak_rss_mb(), self.check(passes), setup_s)

    def check(self, passes: list[Pass]) -> list[str]:
        problems = []
        first = passes[0].outputs
        for index, p in enumerate(passes):
            code, report, transcripts = p.outputs
            if code != 0:
                problems.append(f"pass {index} ({p.kind}): exit code {code}")
            elif (report, transcripts) != first[1:]:
                problems.append(f"pass {index} ({p.kind}): report.json or transcripts.jsonl "
                                "differs from pass 0")
            if p.kind == "warm" and sum(p.stub["requests"].values()):
                problems.append(f"pass {index} (warm): {p.stub['requests']} requests reached the stub")
        if first[0] == 0:
            problems.extend(self._check_reference(first[2]))
        return problems

    def _check_reference(self, transcripts: bytes) -> list[str]:
        reference = load_reference()
        records = [json.loads(line) for line in transcripts.decode("utf-8").splitlines()]
        problems = []
        if len(records) != len(self.items):
            problems.append(f"{len(records)} transcripts for {len(self.items)} questions")
        for record in records:
            key = f"{record['video_id']}|{record['question']}"
            if reference.get(key) != semantic(record):
                problems.append(f"{key}: {semantic(record)} != reference {reference.get(key)}")
        return problems

    def end_to_end(self, m: Measurement) -> tuple[dict, list[str]]:
        timed = m.of("eval", "cold")
        latencies = [x for p in timed for x in p.latencies]
        tail_p = tail_percentile(self.n_items * self.min_passes)
        questions = sum(p.items for p in timed)
        requests = sum(sum(p.stub["requests"].values()) for p in timed)
        chars = sum(p.stub["prompt_chars"] for p in timed)
        eval_rate = statistics.median(p.items / p.wall_s for p in timed)
        lines = [
            ("eval_items_per_s", eval_rate, "items/s", f"median over {len(timed)} {'cold ' if self.cached else ''}"
             f"passes of {self.n_items} questions at --parallel {self.parallel}"),
        ]
        items_per_s = eval_rate
        if self.cached:
            warm = m.of("warm")
            items_per_s = statistics.median(p.items / p.wall_s for p in warm)
            lines.append(("warm_items_per_s", items_per_s, "items/s", f"median over {len(warm)} warm passes"))
        p50 = statistics.median(latencies) * 1000.0
        tail = percentile(latencies, tail_p) * 1000.0
        lines += [
            ("question_latency_p50_ms", p50, "ms", f"n={len(latencies)}"),
            ("question_latency_tail_ms", tail, "ms",
             f"p{tail_p}, n={len(latencies)}, {len(latencies) - math.ceil(tail_p / 100 * len(latencies))} beyond"),
            ("model_requests_per_question", requests / questions, "requests", "counted at the stub"),
            ("prompt_chars_per_question", chars / questions, "chars", "chat messages at the stub"),
        ]
        metrics = {"items_per_s": items_per_s, "latency_p50_ms": p50, "latency_tail_ms": tail}
        return metrics, lines


def semantic(record: dict) -> dict:
    """The fields of a transcript record a performance change must not move."""
    return {
        "final_answer": record["final_answer"],
        "selected_frames": record["selected_frames"],
        "terminated_by": record["terminated_by"],
        "rounds": len(record["rounds"]),
    }


@functools.lru_cache(maxsize=None)
def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


WORKLOADS = {
    "remote-eval": lambda: EvalWorkload("remote-eval", parallel=2, cached=False, min_passes=4),
    "cache-rerun": lambda: EvalWorkload("cache-rerun", parallel=1, cached=True, min_passes=3,
                                        warm_passes=8),
}


@functools.lru_cache(maxsize=None)
def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    return {metric["name"]: metric["unit"] for metric in load_spec()[kind]}


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced measurement
# ---------------------------------------------------------------------------

def layer_metrics(m: Measurement, tracer: spans.Tracer, untraced: dict,
                  traced: dict) -> tuple[list, list[str]]:
    """Rows (name, value, unit, samples) of every per-layer metric, and any
    disagreement between traced request counts and the stub's wire counters."""
    named = tracer.named
    ms = lambda name: [s.duration * 1000.0 for s in named(name)]  # noqa: E731
    rows: list[tuple] = []  # (name, value, unit, samples)
    problems: list[str] = []

    def add(name, value, unit, samples=""):
        rows.append((name, value, unit, samples))

    timed = m.of("eval", "cold")
    questions = sum(p.items for p in timed)
    wall = sum(p.wall_s for p in m.passes)

    captions = [s.duration * 1e6 for s in named("parsing.parse_caption")]
    add("parsing.parse_caption_us", median_or_zero(captions), "us", f"p50, n={len(captions)}")
    add("parsing.captions", len(captions) / len(m.passes), "count", "per pass")

    updates = named("graph.update_graph")
    frames = sum(s.attrs["frames"] for s in updates)
    add("graph.update_graph_us_per_frame", per(sum(s.duration for s in updates) * 1e6, frames), "us",
        f"n={frames} frames in {len(updates)} calls")
    add("graph.update_graph_ms", median_or_zero(ms("graph.update_graph")), "ms", f"p50 per call, n={len(updates)}")
    add("graph.summarize_ms", median_or_zero(ms("graph.summarize")), "ms", f"p50, n={len(named('graph.summarize'))}")
    sessions = named("agent.run")
    add("graph.nodes", sum(s.attrs["nodes"] for s in sessions) / len(m.passes), "count",
        "final graphs of one pass, summed")
    add("graph.edges", sum(s.attrs["edges"] for s in sessions) / len(m.passes), "count",
        "final graphs of one pass, summed")

    selections = named("selector.select_frames")
    add("selector.select_frames_ms", median_or_zero(ms("selector.select_frames")), "ms",
        f"p50 per round, n={len(selections)}")
    add("selector.segments_ms", median_or_zero(ms("selector.identify_segments"))
        + median_or_zero(ms("selector.candidate_frames")), "ms",
        "p50 identify_segments + p50 candidate_frames")
    add("selector.candidates_per_round", per(sum(s.attrs["candidates"] for s in selections), len(selections)),
        "count", f"n={len(selections)} rounds")

    add("agent.rounds_per_question", per(sum(s.attrs["rounds"] for s in sessions), len(sessions)), "count",
        f"n={len(sessions)}")
    add("agent.frames_per_question", per(sum(s.attrs["frames"] for s in sessions), len(sessions)), "count",
        f"n={len(sessions)}")
    add("agent.self_ms", median_or_zero([s.self_s * 1000.0 for s in sessions]), "ms",
        f"p50 per question, n={len(sessions)}")

    # Gateway: requests on the wire come from the stub; the traced calls that
    # missed the cache must agree with them exactly.
    hit_parents = {id(s.parent) for s in named("gateway.cache_get") if s.attrs["hit"]}
    wire_calls = {lane: [s for s in named(f"gateway.{lane}") if id(s) not in hit_parents] for lane in LANES}
    stub_all = {lane: sum(p.stub["requests"][lane] for p in m.passes) for lane in LANES}
    for lane in LANES:
        if len(wire_calls[lane]) != stub_all[lane]:
            problems.append(f"traced {lane} requests {len(wire_calls[lane])} != stub counter {stub_all[lane]}")
    stub_timed = {lane: sum(p.stub["requests"][lane] for p in timed) for lane in LANES}
    for lane in LANES:
        add(f"gateway.{lane}_requests_per_question", per(stub_timed[lane], questions), "requests",
            f"{stub_timed[lane]} on the wire / {questions} questions")
    add("gateway.model_requests_per_question", per(sum(stub_timed.values()), questions), "requests",
        "all lanes, on the wire")
    add("gateway.prompt_chars_per_question", per(sum(p.stub["prompt_chars"] for p in timed), questions),
        "chars", "chat messages, on the wire")
    embeds_by_question: dict[str, list] = {}
    for span in wire_calls["embed"]:
        embeds_by_question.setdefault(span.question, []).append(span.attrs["input"])
    ratios = [len(set(calls)) / len(calls) for calls in embeds_by_question.values()]
    add("gateway.embed_unique_ratio", per(sum(ratios), len(ratios)), "ratio",
        f"distinct embed inputs / embed requests within a question, mean over {len(ratios)} questions")
    add("gateway.embed_unique_ratio.wire", per(sum(p.stub["embed_unique"] for p in timed), stub_timed["embed"]),
        "ratio", "distinct embed bodies / embed requests at the stub, per pass (across questions)")
    for lane in LANES:
        add(f"gateway.call_ms.{lane}", median_or_zero([s.duration * 1000.0 for s in wire_calls[lane]]), "ms",
            f"p50 per wire call, n={len(wire_calls[lane])}")
    client_s = sum(s.duration for lane in LANES for s in wire_calls[lane])
    service_s = sum(p.stub["service_s"][lane] for p in m.passes for lane in LANES)
    add("gateway.overhead_ms", per((client_s - service_s) * 1000.0, sum(stub_all.values())), "ms",
        "mean client call time minus stub service time, per request")
    add("gateway.errors", sum(p.stub["errors"] for p in m.passes) + sum(p.failed for p in m.passes),
        "count", "stub error replies + failed items")
    gets = named("gateway.cache_get")
    all_questions = sum(p.items for p in m.passes)
    add("gateway.cache_hits", per(sum(s.attrs["hit"] for s in gets), all_questions), "count",
        f"per question over {all_questions} questions")
    add("gateway.cache_misses", per(sum(not s.attrs["hit"] for s in gets), all_questions), "count",
        f"per question over {all_questions} questions")
    add("gateway.cache_get_us", median_or_zero([s.duration * 1e6 for s in gets]), "us", f"p50, n={len(gets)}")
    add("gateway.cache_put_ms", median_or_zero(ms("gateway.cache_put")), "ms",
        f"p50, n={len(named('gateway.cache_put'))}")
    add("gateway.cache_load_ms", median_or_zero(ms("gateway.cache_load")), "ms",
        f"p50, n={len(named('gateway.cache_load'))}")
    cache_sizes = [p.cache_bytes / 2**20 for p in m.of("cold")]
    add("gateway.cache_file_mb", median_or_zero(cache_sizes), "MB", "after a cold pass")

    add("cli.build_gateway_ms", median_or_zero(ms("cli.build_gateway")), "ms",
        f"p50, n={len(named('cli.build_gateway'))}")
    mains = named("cli.main")
    add("cli.self_ms", median_or_zero([s.self_s * 1000.0 for s in mains]), "ms", f"p50 per command, n={len(mains)}")
    add("store.load_bundle_ms", median_or_zero(ms("store.load_bundle")), "ms",
        f"p50, n={len(named('store.load_bundle'))}")
    add("store.save_transcript_ms", median_or_zero(ms("store.save_transcript")), "ms",
        f"p50, n={len(named('store.save_transcript'))}")
    # Item sessions of eval --parallel N run on worker threads, so they are
    # not children of run_eval: take the time any of them ran out of its span.
    items = named("harness.item")
    harness_self, pool_s = [], 0.0
    for run_span in named("harness.run_eval"):
        inside = [s for s in items if run_span.start <= s.start and s.end <= run_span.end]
        harness_self.append((run_span.duration - spans.union_length([(s.start, s.end) for s in inside])) * 1000.0)
        pool_s += spans.union_length([(s.start, s.end) for s in inside if s.parent is None])
    add("harness.self_ms", median_or_zero(harness_self), "ms", f"run_eval minus item sessions, n={len(harness_self)}")

    by_layer = tracer.self_time_by_layer()
    by_layer["harness"] = by_layer.get("harness", 0.0) - pool_s
    for layer in ("parsing", "graph", "selector", "agent", "gateway", "store", "harness", "cli"):
        add(f"{layer}.self_ms_total", by_layer.get(layer, 0.0) * 1000.0, "ms", "self time, all threads")
        add(f"{layer}.self_share", 100.0 * by_layer.get(layer, 0.0) / wall, "%",
            "self time / timed wall time; summed over threads, so it can pass 100")
    for name, unit in metric_units("end_to_end").items():
        if name == "setup_s":
            continue  # set-up runs untraced only
        add(f"trace.overhead.{name}", traced[name] - untraced[name], unit, "traced minus untraced")
    add("trace.overhead_pct", 100.0 * (untraced["items_per_s"] - traced["items_per_s"]) / untraced["items_per_s"],
        "%", "items_per_s lost to tracing")

    return rows, problems


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def write_reference() -> int:
    """Record the semantic outcome of every question of the input pool."""
    vocab = inputs.Vocabulary(DATA_DIR)
    pool = EvalWorkload("reference", parallel=2, cached=False, min_passes=1)
    try:
        pool.start()
        pool.setup(0, WORK / "reference-eval",
                   items=[q for video in inputs.eval_videos(vocab) for q in inputs.questions_for(video)])
        timer = LatencyTimer()
        try:
            code, _, transcripts = pool._pass("eval", timer, "reference").outputs
        finally:
            timer.close()
    finally:
        pool.close()
    if code != 0:
        raise RuntimeError(f"reference eval exited {code}")
    reference = {}
    for line in transcripts.decode("utf-8").splitlines():
        record = json.loads(line)
        reference[f"{record['video_id']}|{record['question']}"] = semantic(record)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference.json from the current program")
    args = parser.parse_args(argv)
    if not (SRC / "graphvqa" / "cli.py").is_file():
        print(f"no graphvqa source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def run(args) -> int:
    workload = WORKLOADS[args.workload]()
    try:
        workload.start()
        untraced = workload.measure(args.seconds, seed=args.seed)
        e2e, lines = workload.end_to_end(untraced)
        e2e["setup_s"] = statistics.median(untraced.setup_s)
        e2e["peak_rss_mb"] = untraced.peak_rss_mb
        problems = list(untraced.problems)
        attempted = sum(p.items for p in untraced.passes)
        failed = sum(p.failed for p in untraced.passes)
        lines += [
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "ru_maxrss of this process"),
            ("failed_fraction", failed / attempted, "ratio", f"{failed} of {attempted} attempted"),
            ("setup_s", e2e["setup_s"], "s", f"median of {len(untraced.setup_s)} set-ups across the run"),
        ]
        print(f"workload {workload.name}, seed {args.seed}: end-to-end (tracing off)")
        for name, value, unit, note in lines:
            print(f"  {name:<32} {value:>12.4f} {unit:<9} {note}")
        metrics, kind = e2e, "end_to_end"

        if args.trace:
            tracer = spans.Tracer()
            spans.install_graphvqa(tracer)
            try:
                traced = workload.measure(args.seconds)
            finally:
                tracer.uninstall()
            traced_e2e, _ = workload.end_to_end(traced)
            traced_e2e["setup_s"] = e2e["setup_s"]
            traced_e2e["peak_rss_mb"] = traced.peak_rss_mb
            rows, trace_problems = layer_metrics(traced, tracer, e2e, traced_e2e)
            metrics, kind = {name: value for name, value, _, _ in rows}, "per_layer"
            problems += traced.problems + trace_problems
            attempted += sum(p.items for p in traced.passes)
            failed += sum(p.failed for p in traced.passes)
            spans_path = SPANS / f"{workload.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            print(f"workload {workload.name}: per layer (traced, {len(tracer.spans)} spans "
                  f"written to {spans_path.relative_to(ROOT)})")
            for name, value, unit, note in rows:
                print(f"  {name:<42} {value:>12.4f} {unit:<9} {note}")
    finally:
        workload.close()

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in metric_units(kind).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
