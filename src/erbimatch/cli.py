"""Command-line front end.

Subcommands compose the library into reproducible pipelines:

    build-graph  profiles -> normalized similarity-graph edge list
    match        edge list + algorithm + threshold -> matching file
    sweep        edge list + ground truth -> threshold sweep report
    bench        edge list + algorithm + threshold -> timing statistics
    stats        score-matrix CSV -> mean ranks, Friedman test, critical distance
    reproduce    named built-in recipes (demo, table7-d2, table7-d4)

Exit codes: 0 success, 1 usage error, 2 data error.  Every report embeds
the fully resolved run configuration; rerunning with the same configuration
(and seed) produces byte-identical deterministic sections, with wall times
confined to a separate "timing" block.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .errors import ErbimatchError
from .evaluation import (
    GroundTruth,
    benchmark,
    emit_report,
    evaluate,
    friedman_test,
    mean_ranks,
    nemenyi_cd,
    sweep_report,
    threshold_sweep,
)
from .fileio import open_text
from .graph import read_edge_list, write_edge_list
from .ingest import read_embeddings, read_ground_truth, read_profiles
from .matchers import ALGORITHMS, BahConfig, get_matcher, write_matching
from .reference import REFERENCE_TRUE_PAIRS, reference_graph
from .simgen import GramUnit, SimFnConfig, WeightScheme, build_similarity_graph
from .simgen.builder import model_coverage

WORKERS_ENV = "ERBIMATCH_WORKERS"
DATA_ENV = "ERBIMATCH_DATA"


class _UsageExit(Exception):
    """A usage error: the CLI exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this CLI reserves 2 for data errors
    def error(self, message):
        raise _UsageExit(message)


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _algorithm_arg(value: str) -> str:
    key = value.lower()
    if key not in ALGORITHMS:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {value!r}; choose from "
            + ", ".join(sorted(ALGORITHMS)))
    return key


def _threshold_arg(value: str) -> float:
    t = float(value)
    if not 0.0 <= t <= 1.0:
        raise argparse.ArgumentTypeError(
            f"threshold must be in [0, 1], got {value}")
    return t


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="erbimatch", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build a similarity graph")
    p.add_argument("--left", required=True, help="left profile collection")
    p.add_argument("--right", required=True, help="right profile collection")
    p.add_argument("--left-format", choices=["csv", "jsonl"])
    p.add_argument("--right-format", choices=["csv", "jsonl"])
    p.add_argument("--model", required=True,
                   choices=["raw-string", "bag", "graph", "vector"])
    p.add_argument("--measure", required=True)
    p.add_argument("--attribute",
                   help="attribute name for schema-based functions "
                        "(omit for schema-agnostic)")
    p.add_argument("--unit", choices=["character", "token"], default="token")
    p.add_argument("--n", type=int, default=1, help="n-gram order")
    p.add_argument("--scheme", choices=["tf", "tfidf"], default="tf")
    p.add_argument("--embeddings-left", help="vector file for the left side")
    p.add_argument("--embeddings-right", help="vector file for the right side")
    p.add_argument("--max-pairs", type=int,
                   help="abort when the cross product exceeds this budget")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--output", required=True)

    p = sub.add_parser("match", help="run one matcher at one threshold")
    _add_matcher_args(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("sweep", help="threshold sweep against ground truth")
    _add_matcher_args(p, threshold=False)
    p.add_argument("--gt", required=True, help="ground-truth TSV")
    p.add_argument("--report", help="report path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("bench", help="run-time benchmark of a matcher")
    _add_matcher_args(p)
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--report", help="report path (default: stdout)")

    p = sub.add_parser("stats", help="Friedman/Nemenyi over a score matrix")
    p.add_argument("--scores", required=True,
                   help="CSV: header `input,<alg>,...`, one row per graph")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--report", help="report path (default: stdout)")

    p = sub.add_parser("reproduce", help="run a named built-in recipe")
    p.add_argument("--recipe", required=True,
                   choices=["demo", "table7-d2", "table7-d4"])
    p.add_argument("--data-dir", default=None,
                   help=f"dataset directory (default: ${DATA_ENV} or ./data)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--report", help="report path (default: stdout)")

    return parser


def _add_matcher_args(p: argparse.ArgumentParser, threshold: bool = True) -> None:
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--algorithm", required=True, type=_algorithm_arg)
    if threshold:
        p.add_argument("--threshold", required=True, type=_threshold_arg)
    p.add_argument("--basis", choices=["left", "right", "auto"], default="auto",
                   help="bmc only: partition used as basis")
    bah = BahConfig()
    p.add_argument("--max-moves", type=int, default=bah.max_moves, help="bah only")
    p.add_argument("--time-limit", type=float, default=bah.time_limit,
                   help="bah only")
    p.add_argument("--seed", type=int, default=bah.rng_seed, help="bah only")


def _matcher_config(args) -> dict:
    if args.algorithm == "bah":
        return {"max_moves": args.max_moves, "time_limit": args.time_limit,
                "rng_seed": args.seed}
    if args.algorithm == "bmc":
        return {"basis": args.basis}
    return {}


def _matcher_config_echo(args) -> dict:
    return {"algorithm": args.algorithm, **_matcher_config(args)}


# ----------------------------------------------------------------------
# subcommand implementations

def _cmd_build_graph(args) -> int:
    cfg = SimFnConfig(
        model=args.model.replace("-", "_"),
        measure=args.measure,
        scope=args.attribute,
        unit=GramUnit(args.unit),
        n=args.n,
        scheme=WeightScheme(args.scheme),
    )
    left = read_profiles(args.left, args.left_format)
    right = read_profiles(args.right, args.right_format)
    embeddings = None
    if cfg.model == "vector":
        if not args.embeddings_left or not args.embeddings_right:
            raise _UsageExit("--embeddings-left/--embeddings-right are "
                             "required for the vector model")
        embeddings = (read_embeddings(args.embeddings_left),
                      read_embeddings(args.embeddings_right))
    workers = args.workers or _default_workers()
    start = time.perf_counter()
    graph = build_similarity_graph(left, right, cfg, embeddings=embeddings,
                                   workers=workers, max_pairs=args.max_pairs)
    elapsed = time.perf_counter() - start
    covered = (model_coverage(left, cfg, embeddings and embeddings[0]),
               model_coverage(right, cfg, embeddings and embeddings[1]))
    write_edge_list(graph, args.output, comments=[
        f"similarity function: {cfg.describe()}",
        f"left: {len(left)} profiles ({covered[0]} with usable content)",
        f"right: {len(right)} profiles ({covered[1]} with usable content)",
        f"edges: {graph.edge_count}",
        f"build_time_s: {elapsed:.3f}",
    ])
    print(f"wrote {graph.edge_count} edges to {args.output}", file=sys.stderr)
    return 0


def _cmd_match(args) -> int:
    graph = read_edge_list(args.graph)
    matcher = get_matcher(args.algorithm, **_matcher_config(args))
    start = time.perf_counter()
    matching = matcher(graph, args.threshold)
    elapsed = time.perf_counter() - start
    write_matching(matching, graph, args.output, algorithm=args.algorithm,
                   threshold=args.threshold,
                   config=json.dumps(_matcher_config_echo(args), sort_keys=True),
                   wall_time=elapsed)
    print(f"wrote {len(matching)} pairs to {args.output}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    graph = read_edge_list(args.graph)
    gt = read_ground_truth(args.gt)
    sweep = threshold_sweep(graph, args.algorithm, gt,
                            matcher_config=_matcher_config(args))
    payload = sweep_report(sweep, algorithm=args.algorithm,
                           config=_matcher_config_echo(args),
                           dataset=os.path.basename(args.graph))
    emit_report(payload, args.report, args.format)
    return 0


def _cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise _UsageExit("--repetitions must be at least 1")
    graph = read_edge_list(args.graph)
    result = benchmark(graph, args.algorithm, args.threshold,
                       repetitions=args.repetitions,
                       matcher_config=_matcher_config(args))
    payload = {
        "kind": "bench",
        "config": {**_matcher_config_echo(args), "threshold": args.threshold,
                   "repetitions": args.repetitions,
                   "graph": os.path.basename(args.graph),
                   "edges": graph.edge_count},
        "timing": {"mean_s": result.mean, "stddev_s": result.stddev,
                   "runs_s": list(result.times)},
    }
    emit_report(payload, args.report)
    return 0


def _read_score_matrix(path) -> tuple[list[str], list[list[float]]]:
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) < 4:
            raise ErbimatchError(
                "score matrix needs a header `input,<alg>,<alg>,<alg>,...`")
        names = header[1:]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ErbimatchError(
                    f"row has {len(row)} fields, header has {len(header)}")
            rows.append([float(x) for x in row[1:]])
    if len(rows) < 2:
        raise ErbimatchError("score matrix needs at least two rows")
    return names, rows


def _cmd_stats(args) -> int:
    names, rows = _read_score_matrix(args.scores)
    ranks = mean_ranks(rows)
    fried = friedman_test(rows, alpha=args.alpha)
    cd = nemenyi_cd(len(names), len(rows), alpha=args.alpha)
    payload = {
        "kind": "stats",
        "config": {"scores": os.path.basename(args.scores),
                   "alpha": args.alpha, "inputs": len(rows),
                   "algorithms": names},
        "mean_ranks": {name: rank for name, rank in zip(names, ranks.tolist())},
        "friedman": {
            "statistic": fried.statistic,
            "degrees_of_freedom": fried.degrees_of_freedom,
            "critical_value": fried.critical_value,
            "reject": fried.reject,
        },
        "nemenyi_critical_distance": cd,
        # mean ranks + critical distance are exactly the data needed to
        # draw a critical-difference diagram
        "diagram": {
            "axis": sorted(
                ({"algorithm": n, "mean_rank": r}
                 for n, r in zip(names, ranks.tolist())),
                key=lambda row: row["mean_rank"]),
            "critical_distance": cd,
        },
    }
    emit_report(payload, args.report)
    return 0


# -- reproduce recipes ---------------------------------------------------

@dataclass(frozen=True)
class _Table7Recipe:
    dataset: str
    left_file: str
    right_file: str
    gt_file: str
    cfg: SimFnConfig
    threshold: float
    expected_f1: str


_TABLE7 = {
    "table7-d2": _Table7Recipe(
        dataset="d2-abt-buy",
        left_file="d2/abt.csv",
        right_file="d2/buy.csv",
        gt_file="d2/gt.tsv",
        cfg=SimFnConfig(model="bag", measure="cosine",
                        unit=GramUnit.CHARACTER, n=2,
                        scheme=WeightScheme.TFIDF),
        threshold=0.35,
        expected_f1="0.95 +/- 0.02",
    ),
    "table7-d4": _Table7Recipe(
        dataset="d4-dblp-acm",
        left_file="d4/dblp.csv",
        right_file="d4/acm.csv",
        gt_file="d4/gt.tsv",
        cfg=SimFnConfig(model="bag", measure="cosine",
                        unit=GramUnit.TOKEN, n=1,
                        scheme=WeightScheme.TFIDF),
        threshold=0.40,
        expected_f1="0.99 +/- 0.01",
    ),
}


def _data_dir(args) -> str:
    return args.data_dir or os.environ.get(DATA_ENV) or "data"


def _cmd_reproduce(args) -> int:
    if args.recipe == "demo":
        return _reproduce_demo(args)
    recipe = _TABLE7[args.recipe]
    base = _data_dir(args)
    paths = [os.path.join(base, f) for f in
             (recipe.left_file, recipe.right_file, recipe.gt_file)]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ErbimatchError(
            f"recipe {args.recipe} needs dataset files {missing}; download "
            "them with demos/fetch_benchmark_datasets.py (or set "
            f"${DATA_ENV}/--data-dir)")
    left = read_profiles(paths[0])
    right = read_profiles(paths[1])
    gt = read_ground_truth(paths[2])
    workers = args.workers or _default_workers()
    start = time.perf_counter()
    graph = build_similarity_graph(left, right, recipe.cfg, workers=workers)
    build_time = time.perf_counter() - start
    start = time.perf_counter()
    matching = get_matcher("umc")(graph, recipe.threshold)
    match_time = time.perf_counter() - start
    score = evaluate(matching, gt, graph.left_ids, graph.right_ids)
    payload = {
        "kind": "reproduce",
        "recipe": args.recipe,
        "config": {"similarity_function": recipe.cfg.describe(),
                   "algorithm": "umc", "threshold": recipe.threshold,
                   "expected_f1": recipe.expected_f1},
        "rows": [{
            "dataset": recipe.dataset,
            "model": recipe.cfg.model,
            "measure": recipe.cfg.measure,
            "unit": recipe.cfg.unit.value,
            "n": recipe.cfg.n,
            "scheme": recipe.cfg.scheme.value,
            "threshold": recipe.threshold,
            "edges": graph.edge_count,
            "precision": score.precision,
            "recall": score.recall,
            "f_measure": score.f_measure,
        }],
        "timing": {"build_graph_s": build_time, "match_s": match_time},
    }
    emit_report(payload, args.report)
    return 0


def _reproduce_demo(args) -> int:
    graph = reference_graph()
    gt = GroundTruth(REFERENCE_TRUE_PAIRS)
    rows = []
    for name in sorted(ALGORITHMS):
        matcher = get_matcher(name)
        matching = matcher(graph, 0.5)
        score = evaluate(matching, gt, graph.left_ids, graph.right_ids)
        rows.append({
            "dataset": "demo",
            "algorithm": name,
            "threshold": 0.5,
            "pairs": sorted(map(list, matching.id_pairs(graph))),
            "precision": score.precision,
            "recall": score.recall,
            "f_measure": score.f_measure,
        })
    payload = {"kind": "reproduce", "recipe": "demo",
               "config": {"graph": "built-in demonstration graph",
                          "threshold": 0.5},
               "rows": rows}
    emit_report(payload, args.report)
    return 0


_COMMANDS = {
    "build-graph": _cmd_build_graph,
    "match": _cmd_match,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "stats": _cmd_stats,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ErbimatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
