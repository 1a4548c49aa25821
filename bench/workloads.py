"""The benchmark workloads: seeded, closed-loop, one client.

Each workload has four steps:

* ``setup(seed, workdir, rec)`` makes the inputs (and, for ``sweep-all``,
  the graph); it is untimed as a pass and reported as ``setup_s``;
* ``run(state, rec)`` is one timed pass, from inputs to the optimal
  thresholds, F1 and matchings;
* ``summarize(state, outcome)`` checks the pass's outputs and returns their
  integer summary;
* ``probe(state, outcome, rec)`` runs only in the traced run: it times the
  layer calls that the pass makes inside the package, or not at all, and
  returns a replay to check against the pass (or None).

``rec`` is a :class:`spans.Recorder` or ``spans.NULL``; every call into a
layer of erbimatch sits in a span named after the metric it feeds.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from erbimatch import (
    DEFAULT_GRID,
    GramUnit,
    Side,
    SimFnConfig,
    SimilarityGraph,
    WeightScheme,
    build_bag_model,
    build_ngram_graph,
    build_similarity_graph,
    corpus_stats,
    emit_report,
    evaluate,
    get_matcher,
    read_edge_list,
    read_ground_truth,
    read_profiles,
    sweep_report,
    threshold_sweep,
    write_edge_list,
    write_ground_truth,
    write_matching,
    write_profiles,
)
from erbimatch.evaluation import SweepResult

from catalogs import make_catalogs
from checks import CheckFailed, EdgeIndex, check_weights, consistent_summary
from checks import count_true, sweep_summary

SRC = Path(__file__).resolve().parent.parent / "src"

# Pinned rather than taken from the machine: the CLI's default reads
# ERBIMATCH_WORKERS and os.cpu_count(), which ignores CPU affinity.
WORKERS = 2
ALGORITHMS = ("cnc", "rsr", "rca", "bah", "bmc", "exc", "krc", "umc")
CLI_TIMEOUT_S = 120

FUNCTIONS = {
    "raw-levenshtein": SimFnConfig("raw_string", "levenshtein",
                                   scope="title"),
    "graph-value-c3": SimFnConfig("graph", "value", unit=GramUnit.CHARACTER,
                                  n=3),
    "bag-jaccard-c3": SimFnConfig("bag", "jaccard", unit=GramUnit.CHARACTER,
                                  n=3, scheme=WeightScheme.TFIDF),
    # the table7-d2 recipe (Abt-Buy)
    "bag-cosine-c2": SimFnConfig("bag", "cosine", unit=GramUnit.CHARACTER,
                                 n=2, scheme=WeightScheme.TFIDF),
    # the table7-d4 recipe (DBLP-ACM)
    "bag-cosine-t1": SimFnConfig("bag", "cosine", unit=GramUnit.TOKEN,
                                 n=1, scheme=WeightScheme.TFIDF),
}


# -- layer calls shared by the workloads ---------------------------------

def build_graph(fn: str, left, right, rec) -> SimilarityGraph:
    with rec.span(f"simgen.build_s.{fn}") as counts:
        graph = build_similarity_graph(left, right, FUNCTIONS[fn],
                                       workers=WORKERS)
    counts.update(pairs=len(left) * len(right), edges=graph.edge_count)
    return graph


def hand_sweep(graph, alg: str, gt, rec) -> SweepResult:
    """``threshold_sweep`` spelt out, so each matcher and evaluate call
    gets its own span; the traced run checks that both agree."""
    matcher = get_matcher(alg)
    scores = []
    with rec.span(f"evaluation.sweep_s.{alg}"):
        for t in DEFAULT_GRID:
            with rec.span(f"matchers.{alg}_s"):
                matching = matcher(graph, t)
            with rec.span("evaluation.evaluate_s"):
                scores.append(evaluate(matching, gt, graph.left_ids,
                                       graph.right_ids))
    best = max(score.f_measure for score in scores)
    i = max(i for i, score in enumerate(scores) if score.f_measure == best)
    return SweepResult(grid=DEFAULT_GRID, scores=tuple(scores),
                       optimal_t=DEFAULT_GRID[i], optimal_score=scores[i])


def sweep_and_match(graph, alg: str, gt, rec):
    """The paper's protocol for one matcher: sweep the grid, then match at
    the optimal threshold."""
    if rec.active:
        sweep = hand_sweep(graph, alg, gt, rec)
    else:
        sweep = threshold_sweep(graph, alg, gt)
    with rec.span(f"matchers.{alg}.match") as counts:
        matching = get_matcher(alg)(graph, sweep.optimal_t)
    counts["pairs"] = len(matching)
    return sweep, matching


def probe_representations(fn: str, left, right, rec) -> None:
    """The public representation calls the builder makes for ``fn``.

    Raw strings have no public representation step and are skipped."""
    cfg = FUNCTIONS[fn]
    if cfg.model not in ("bag", "graph"):
        return
    with rec.span(f"simgen.representations_s.{fn}"):
        for side in (left, right):
            if cfg.model == "bag":
                stats = corpus_stats(side, cfg.unit, cfg.n,
                                     attribute=cfg.scope)
                for profile in side:
                    build_bag_model(profile, cfg.unit, cfg.n, cfg.scheme,
                                    stats, attribute=cfg.scope)
            else:
                for profile in side:
                    build_ngram_graph(profile, cfg.unit, cfg.n,
                                      attribute=cfg.scope)


def probe_construction(graph, seed: int, rec) -> None:
    """Rebuild ``graph`` from its edge tuples in a seeded shuffled order,
    as the builder does, and normalize it."""
    edges = graph.edge_list()
    random.Random(seed).shuffle(edges)
    with rec.span("graph.construct_s") as counts:
        rebuilt = SimilarityGraph(graph.left_count, graph.right_count, edges,
                                  left_ids=graph.left_ids,
                                  right_ids=graph.right_ids)
    counts["edges"] = rebuilt.edge_count
    with rec.span("graph.normalize_s"):
        rebuilt.normalized()


def probe_pruning(graph, rec) -> None:
    """What a sweep does to the graph before any matcher logic runs."""
    for t in DEFAULT_GRID:
        with rec.span("graph.prune_s"):
            pruned = graph.prune(t)
        with rec.span("graph.adjacency_s"):
            pruned.neighbors(Side.LEFT, 0)
            pruned.neighbors(Side.RIGHT, 0)
    fresh = graph.prune(0.0)
    with rec.span("graph.pair_weights_s"):
        fresh.pair_weights()


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ERBIMATCH_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "erbimatch.cli", *map(str, args)],
        env=cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"erbimatch {args[0]} exited {proc.returncode}: "
                          + proc.stderr.strip()[-500:])


def _scores(report: dict) -> dict:
    return {k: report[k] for k in ("grid", "scores", "optimal_t",
                                   "optimal_score")}


# -- workloads -----------------------------------------------------------

class CatalogCli:
    """Practitioner path: CLI build-graph, sweep and match on CSV catalogs.

    The only workload that runs ingest, edge-list write and read, and CLI
    start-up.  Its dense character-bigram graph is built once and parsed
    twice per pass, so graph construction and I/O dominate."""

    name = "catalog-cli"
    size = 500
    fn = "bag-cosine-c2"

    def setup(self, seed: int, workdir: Path, rec):
        left, right, gt = make_catalogs(seed, self.size)
        paths = {key: workdir / name for key, name in (
            ("left", "left.csv"), ("right", "right.csv"), ("gt", "gt.tsv"),
            ("graph", "graph.tsv"), ("report", "sweep.json"),
            ("matching", "matching.tsv"), ("replay_graph", "replay.tsv"),
            ("replay_report", "replay.json"),
            ("replay_matching", "replay-matching.tsv"))}
        write_profiles(left, paths["left"])
        write_profiles(right, paths["right"])
        write_ground_truth(gt, paths["gt"])
        return {"paths": paths, "gt": gt, "seed": seed}

    def run(self, state, rec):
        p = state["paths"]
        cfg = FUNCTIONS[self.fn]
        with rec.span("cli.build_graph_s"):
            run_cli("build-graph", "--left", p["left"], "--right", p["right"],
                    "--model", "bag", "--measure", cfg.measure,
                    "--unit", cfg.unit.value, "--n", cfg.n,
                    "--scheme", cfg.scheme.value, "--workers", WORKERS,
                    "--output", p["graph"])
        with rec.span("cli.sweep_s"):
            run_cli("sweep", "--graph", p["graph"], "--algorithm", "umc",
                    "--gt", p["gt"], "--report", p["report"])
        t = json.loads(p["report"].read_text())["optimal_t"]
        with rec.span("cli.match_s"):
            run_cli("match", "--graph", p["graph"], "--algorithm", "umc",
                    "--threshold", repr(t), "--output", p["matching"])
        return None

    def results(self, state, outcome):
        return _scores(json.loads(state["paths"]["report"].read_text()))

    def summarize(self, state, outcome):
        p = state["paths"]
        declared, edges = None, 0
        with open(p["graph"], encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("# edges: "):
                    declared = int(line.split(":", 1)[1])
                elif not line.startswith("#"):
                    edges += 1
        if declared != edges:
            raise CheckFailed(f"edge list declares {declared} edges, "
                              f"holds {edges}")
        report = json.loads(p["report"].read_text())
        t = report["optimal_t"]
        records, threshold = [], None
        with open(p["matching"], encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("# threshold: "):
                    threshold = float(line.split(":", 1)[1])
                elif not line.startswith("#"):
                    left_id, right_id, weight = line.rstrip("\n").split("\t")
                    records.append((left_id, right_id, float(weight)))
        if threshold != t:
            raise CheckFailed(f"matching file is at t={threshold}, the "
                              f"sweep's optimum is t={t}")
        check_weights("umc", records, t)
        best = report["optimal_score"]
        return {"edges": edges, "umc": consistent_summary(
            "umc", t, best["true_positives"], best["output_pairs"],
            count_true(((l, r) for l, r, _ in records), state["gt"]),
            len(records))}

    def probe(self, state, outcome, rec):
        """Replay the three commands through the library calls they make."""
        p = state["paths"]
        with rec.span("cli.startup_s"):
            subprocess.run([sys.executable, "-c", "import erbimatch.cli"],
                           env=cli_env(), check=True, timeout=CLI_TIMEOUT_S)
        # build-graph
        with rec.span("ingest.read_profiles_s"):
            left = read_profiles(p["left"])
            right = read_profiles(p["right"])
        probe_representations(self.fn, left, right, rec)
        built = build_graph(self.fn, left, right, rec)
        probe_construction(built, state["seed"], rec)
        with rec.span("graph.write_edge_list_s") as counts:
            write_edge_list(built, p["replay_graph"])
        counts["mb"] = p["graph"].stat().st_size / 1e6
        # sweep
        with rec.span("graph.read_edge_list_s"):
            graph = read_edge_list(p["replay_graph"])
        with rec.span("ingest.read_ground_truth_s"):
            gt = read_ground_truth(p["gt"])
        sweep = hand_sweep(graph, "umc", gt, rec)
        emit_report(sweep_report(sweep, algorithm="umc",
                                 config={"algorithm": "umc"},
                                 dataset=p["graph"].name),
                    p["replay_report"])
        # match
        with rec.span("graph.read_edge_list_s"):
            graph = read_edge_list(p["replay_graph"])
        with rec.span("matchers.umc.match") as counts:
            matching = get_matcher("umc")(graph, sweep.optimal_t)
        counts["pairs"] = len(matching)
        write_matching(matching, graph, p["replay_matching"],
                       algorithm="umc", threshold=sweep.optimal_t)
        probe_pruning(graph, rec)
        summary = {"edges": graph.edge_count, "umc": sweep_summary(
            "replay umc", graph, EdgeIndex(graph), gt, sweep, matching)}
        return summary, _scores(json.loads(p["replay_report"].read_text()))


class SweepAll:
    """The paper's resolution protocol in memory: 8 matchers x 20 t.

    The graph is built in set-up, so a pass is matchers and evaluation only:
    a simgen, construction or I/O change should not move its wall time."""

    name = "sweep-all"
    size = 1500
    fn = "bag-cosine-t1"

    def setup(self, seed: int, workdir: Path, rec):
        left, right, gt = make_catalogs(seed, self.size)
        graph = build_graph(self.fn, left, right, rec)
        if rec.active:
            probe_representations(self.fn, left, right, rec)
            probe_construction(graph, seed, rec)
        return {"graph": graph, "gt": gt}

    def run(self, state, rec):
        return {alg: sweep_and_match(state["graph"], alg, state["gt"], rec)
                for alg in ALGORITHMS}

    def results(self, state, outcome):
        return {alg: sweep for alg, (sweep, _) in outcome.items()}

    def summarize(self, state, outcome):
        graph = state["graph"]
        index = EdgeIndex(graph)
        summary = {"edges": graph.edge_count}
        for alg, (sweep, matching) in outcome.items():
            summary[alg] = sweep_summary(alg, graph, index, state["gt"],
                                         sweep, matching)
        return summary

    def probe(self, state, outcome, rec):
        probe_pruning(state["graph"], rec)
        return None


class Pairwise:
    """Per-pair scorers through the row-sharded worker pool.

    Three builds that bypass the bag/cosine fast path, each followed by a
    umc sweep: simgen's per-pair scoring loop, the pool and representation
    building dominate; the graphs are small."""

    name = "pairwise"
    sizes = {"raw-levenshtein": 60, "graph-value-c3": 300,
             "bag-jaccard-c3": 300}

    def setup(self, seed: int, workdir: Path, rec):
        return {"seed": seed, "inputs": {fn: make_catalogs(seed, size)
                                         for fn, size in self.sizes.items()}}

    def run(self, state, rec):
        outcome = {}
        for fn, (left, right, gt) in state["inputs"].items():
            graph = build_graph(fn, left, right, rec)
            outcome[fn] = (graph, *sweep_and_match(graph, "umc", gt, rec))
        return outcome

    def results(self, state, outcome):
        return {fn: sweep for fn, (_, sweep, _) in outcome.items()}

    def summarize(self, state, outcome):
        summary = {}
        for fn, (graph, sweep, matching) in outcome.items():
            summary[fn] = {"edges": graph.edge_count, "umc": sweep_summary(
                fn, graph, EdgeIndex(graph), state["inputs"][fn][2], sweep,
                matching)}
        return summary

    def probe(self, state, outcome, rec):
        for fn, (left, right, _) in state["inputs"].items():
            graph = outcome[fn][0]
            probe_representations(fn, left, right, rec)
            probe_construction(graph, state["seed"], rec)
            probe_pruning(graph, rec)
        return None


WORKLOADS = {w.name: w for w in (CatalogCli(), SweepAll(), Pairwise())}
