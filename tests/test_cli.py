import json
import random

import pytest

from erbimatch.cli import main
from erbimatch.evaluation import (
    GroundTruth,
    emit_report,
    sweep_report,
    threshold_sweep,
)
from erbimatch.graph import read_edge_list, write_edge_list
from erbimatch.ingest import read_ground_truth, read_profiles, write_ground_truth
from erbimatch.matchers import ALGORITHMS, get_matcher, read_matching
from erbimatch.reference import REFERENCE_TRUE_PAIRS, reference_graph
from erbimatch.simgen import SimFnConfig, build_similarity_graph

from conftest import assert_same_graph, make_random_graph


@pytest.fixture
def demo_files(tmp_path):
    graph_path = tmp_path / "graph.tsv"
    gt_path = tmp_path / "gt.tsv"
    write_edge_list(reference_graph(), graph_path)
    write_ground_truth(GroundTruth(REFERENCE_TRUE_PAIRS), gt_path)
    return graph_path, gt_path


@pytest.fixture
def profile_files(tmp_path):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    left.write_text("id,name\na1,green apple\na2,ripe banana\n",
                    encoding="utf-8")
    right.write_text("id,name\nb1,green apple\nb2,grape soda\n",
                     encoding="utf-8")
    return left, right


class TestSweepCommand:
    def test_happy_path(self, demo_files, tmp_path, capsys):
        graph, gt = demo_files
        report = tmp_path / "sweep.json"
        code = main(["sweep", "--graph", str(graph), "--gt", str(gt),
                     "--algorithm", "umc", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["optimal_t"] == 0.70
        assert payload["optimal_score"]["f_measure"] == 1.0

    def test_stdout_when_no_report_path(self, demo_files, capsys):
        graph, gt = demo_files
        code = main(["sweep", "--graph", str(graph), "--gt", str(gt),
                     "--algorithm", "UMC"])  # case-insensitive
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "umc"

    def test_csv_format(self, demo_files, tmp_path):
        graph, gt = demo_files
        report = tmp_path / "sweep.csv"
        code = main(["sweep", "--graph", str(graph), "--gt", str(gt),
                     "--algorithm", "umc", "--format", "csv",
                     "--report", str(report)])
        assert code == 0
        assert len(report.read_text().strip().splitlines()) == 21

    def test_csv_format_on_stdout(self, demo_files, capsys):
        graph, gt = demo_files
        code = main(["sweep", "--graph", str(graph), "--gt", str(gt),
                     "--algorithm", "umc", "--format", "csv"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 21

    def test_stdout_equals_report_file(self, demo_files, tmp_path, capsys):
        graph, gt = demo_files
        report = tmp_path / "sweep.json"
        args = ["sweep", "--graph", str(graph), "--gt", str(gt),
                "--algorithm", "krc"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert main(args + ["--report", str(report)]) == 0
        assert stdout.encode("utf-8") == report.read_bytes()

    def test_deterministic_report_bytes(self, demo_files, tmp_path):
        graph, gt = demo_files
        blobs = []
        for run in range(2):
            report = tmp_path / f"sweep{run}.json"
            main(["sweep", "--graph", str(graph), "--gt", str(gt),
                  "--algorithm", "bah", "--seed", "7", "--max-moves", "500",
                  "--report", str(report)])
            blobs.append(report.read_bytes())
        assert blobs[0] == blobs[1]


@pytest.fixture
def tied_files(tmp_path):
    """A random graph with tied weights and a ground truth that names an id
    absent from the graph."""
    g = make_random_graph(random.Random(3), max_side=30, density=0.3,
                          weight_grid=10)
    graph_path = tmp_path / "tied.tsv"
    gt_path = tmp_path / "tied-gt.tsv"
    write_edge_list(g, graph_path)
    pairs = list(zip(g.left_ids[::2], g.right_ids[::3])) + [("Lx", "Rx")]
    write_ground_truth(GroundTruth(pairs), gt_path)
    return graph_path, gt_path


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_report_equals_per_threshold_loop(tied_files, tmp_path, name,
                                                fmt):
    graph_path, gt_path = tied_files
    report = tmp_path / f"cli.{fmt}"
    extra = ["--max-moves", "300", "--seed", "7"] if name == "bah" else []
    assert main(["sweep", "--graph", str(graph_path), "--gt", str(gt_path),
                 "--algorithm", name, "--format", fmt,
                 "--report", str(report)] + extra) == 0
    # The CLI's resolved configuration, echoed in its JSON report.
    echo = tmp_path / "echo.json"
    assert main(["sweep", "--graph", str(graph_path), "--gt", str(gt_path),
                 "--algorithm", name, "--report", str(echo)] + extra) == 0
    config = json.loads(echo.read_text())["config"]
    matcher = get_matcher(name, **{k: v for k, v in config.items()
                                   if k != "algorithm"})
    graph = read_edge_list(graph_path)
    loop = threshold_sweep(graph, lambda g, t: matcher(g, t),
                           read_ground_truth(gt_path))
    expected = tmp_path / f"loop.{fmt}"
    emit_report(sweep_report(loop, algorithm=name, config=config,
                             dataset=graph_path.name), expected, fmt)
    assert report.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_build_graph_then_match_equals_library(tmp_path, name):
    """The CLI hand-off through an edge-list file gives the library's graph
    and matchings, on a catalog with tied weights and profiles that have no
    content (isolated nodes)."""
    left, right = tmp_path / "left.csv", tmp_path / "right.csv"
    left.write_text("id,name\na1,green apple\na2,\na3,green apple\n"
                    "a4,red apple pie\na5,apple\n", encoding="utf-8")
    right.write_text("id,name\nb1,green apple\nb2,\nb3,apple\n"
                     "b4,green apple\nb5,red pie\n", encoding="utf-8")
    graph_path, match_path = tmp_path / "g.tsv", tmp_path / "m.tsv"
    assert main(["build-graph", "--left", str(left), "--right", str(right),
                 "--model", "bag", "--measure", "cosine", "--workers", "1",
                 "--output", str(graph_path)]) == 0
    graph = build_similarity_graph(read_profiles(left), read_profiles(right),
                                   SimFnConfig(model="bag", measure="cosine"))
    assert_same_graph(read_edge_list(graph_path), graph)
    for t in (0.0, 0.5):
        assert main(["match", "--graph", str(graph_path), "--algorithm", name,
                     "--threshold", repr(t), "--output", str(match_path)]) == 0
        records, _ = read_matching(match_path)
        assert ({(l, r) for l, r, _ in records}
                == get_matcher(name)(graph, t).id_pairs(graph))


class TestMatchCommand:
    def test_write_matching_file(self, demo_files, tmp_path, capsys):
        graph, _ = demo_files
        out = tmp_path / "m.tsv"
        code = main(["match", "--graph", str(graph), "--algorithm", "krc",
                     "--threshold", "0.5", "--output", str(out)])
        assert code == 0
        content = out.read_text()
        assert "# algorithm: krc" in content
        assert "A5\tB1\t" in content

    def test_out_of_range_threshold_is_usage_error(self, demo_files, tmp_path,
                                                   capsys):
        graph, _ = demo_files
        code = main(["match", "--graph", str(graph), "--algorithm", "krc",
                     "--threshold", "1.5", "--output", str(tmp_path / "m.tsv")])
        assert code == 1
        assert "threshold" in capsys.readouterr().err

    def test_unknown_algorithm_is_usage_error(self, demo_files, tmp_path,
                                              capsys):
        graph, _ = demo_files
        code = main(["match", "--graph", str(graph), "--algorithm", "hungarian",
                     "--threshold", "0.5", "--output", str(tmp_path / "m.tsv")])
        assert code == 1

    def test_missing_graph_is_data_error(self, tmp_path, capsys):
        code = main(["match", "--graph", str(tmp_path / "nope.tsv"),
                     "--algorithm", "umc", "--threshold", "0.5",
                     "--output", str(tmp_path / "m.tsv")])
        assert code == 2


class TestBuildGraphCommand:
    def test_bag_cosine(self, profile_files, tmp_path, capsys):
        left, right = profile_files
        out = tmp_path / "g.tsv"
        code = main(["build-graph", "--left", str(left), "--right", str(right),
                     "--model", "bag", "--measure", "cosine",
                     "--unit", "token", "--n", "1", "--scheme", "tf",
                     "--workers", "1", "--output", str(out)])
        assert code == 0
        assert "a1\tb1\t1.0" in out.read_text()

    def test_id_that_a_record_cannot_hold_exits_2(self, profile_files,
                                                  tmp_path, capsys):
        left, right = profile_files
        left.write_text("id,name\n#a1,green apple\n", encoding="utf-8")
        out = tmp_path / "g.tsv"
        code = main(["build-graph", "--left", str(left), "--right", str(right),
                     "--model", "bag", "--measure", "cosine",
                     "--workers", "1", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'#a1' cannot be written" in err and "Traceback" not in err
        assert not out.exists()

    def test_max_pairs_guard(self, profile_files, tmp_path, capsys):
        left, right = profile_files
        code = main(["build-graph", "--left", str(left), "--right", str(right),
                     "--model", "bag", "--measure", "cosine",
                     "--max-pairs", "2", "--output", str(tmp_path / "g.tsv")])
        assert code == 2
        assert "max-pairs" in capsys.readouterr().err

    def test_vector_model_with_embedding_files(self, profile_files, tmp_path):
        left, right = profile_files
        emb_left = tmp_path / "l.emb"
        emb_right = tmp_path / "r.emb"
        emb_left.write_text("a1\t1 0\na2\t0 1\n", encoding="utf-8")
        emb_right.write_text("b1\t1 0\nb2\t-1 0\n", encoding="utf-8")
        out = tmp_path / "g.tsv"
        code = main(["build-graph", "--left", str(left), "--right", str(right),
                     "--model", "vector", "--measure", "cosine",
                     "--embeddings-left", str(emb_left),
                     "--embeddings-right", str(emb_right),
                     "--output", str(out)])
        assert code == 0
        assert "a1\tb1\t1.0" in out.read_text()

    def test_vector_model_without_embeddings_is_usage_error(self, profile_files,
                                                            tmp_path, capsys):
        left, right = profile_files
        code = main(["build-graph", "--left", str(left), "--right", str(right),
                     "--model", "vector", "--measure", "cosine",
                     "--output", str(tmp_path / "g.tsv")])
        assert code == 1
        assert "embeddings" in capsys.readouterr().err

    def test_match_roundtrip_through_files(self, profile_files, tmp_path):
        left, right = profile_files
        graph_path = tmp_path / "g.tsv"
        match_path = tmp_path / "m.tsv"
        assert main(["build-graph", "--left", str(left), "--right", str(right),
                     "--model", "raw-string", "--measure", "jaro",
                     "--attribute", "name", "--output", str(graph_path)]) == 0
        assert main(["match", "--graph", str(graph_path), "--algorithm", "umc",
                     "--threshold", "0.9", "--output", str(match_path)]) == 0
        body = [line for line in match_path.read_text().splitlines()
                if not line.startswith("#")]
        assert body == ["a1\tb1\t1.0"]


class TestBenchCommand:
    def test_bench_report(self, demo_files, tmp_path):
        graph, _ = demo_files
        report = tmp_path / "bench.json"
        code = main(["bench", "--graph", str(graph), "--algorithm", "cnc",
                     "--threshold", "0.5", "--repetitions", "3",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert len(payload["timing"]["runs_s"]) == 3
        assert payload["timing"]["mean_s"] >= 0


class TestStatsCommand:
    def test_stats_payload(self, tmp_path):
        scores = tmp_path / "scores.csv"
        rows = ["input,cnc,umc,krc"]
        for i in range(20):
            rows.append(f"g{i},0.2,0.9,0.5")
        scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
        report = tmp_path / "stats.json"
        code = main(["stats", "--scores", str(scores), "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["mean_ranks"] == {"cnc": 3.0, "umc": 1.0, "krc": 2.0}
        assert payload["friedman"]["reject"] is True
        assert payload["diagram"]["axis"][0]["algorithm"] == "umc"
        assert 0 < payload["nemenyi_critical_distance"] < 2

    def test_bad_matrix_is_data_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("input,a\n", encoding="utf-8")
        assert main(["stats", "--scores", str(scores)]) == 2


class TestReproduceCommand:
    def test_demo_recipe(self, capsys):
        assert main(["reproduce", "--recipe", "demo"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["algorithm"]: row for row in payload["rows"]}
        assert rows["umc"]["f_measure"] == 1.0
        assert rows["cnc"]["precision"] == 1.0
        assert rows["rca"]["pairs"] == [["A1", "B1"], ["A2", "B2"],
                                        ["A3", "B4"], ["A5", "B3"]]

    def test_table7_recipe_on_fixture_data(self, tmp_path, capsys):
        # a miniature stand-in dataset exercises the full recipe path and
        # pins the report row schema (dataset, model, measure, t, F1)
        names = ["sony cybershot camera", "dell latitude laptop",
                 "nikon coolpix zoom", "hp officejet printer",
                 "garmin nuvi navigator", "bose quietcomfort headphones"]
        d2 = tmp_path / "d2"
        d2.mkdir()
        left_rows = ["id,name"] + [f"{i},{name}" for i, name in enumerate(names)]
        right_rows = ["id,name"] + [f"r{i},{name} new" for i, name in enumerate(names)]
        (d2 / "abt.csv").write_text("\n".join(left_rows) + "\n", encoding="utf-8")
        (d2 / "buy.csv").write_text("\n".join(right_rows) + "\n", encoding="utf-8")
        (d2 / "gt.tsv").write_text(
            "".join(f"{i}\tr{i}\n" for i in range(len(names))), encoding="utf-8")
        report = tmp_path / "repro.json"
        code = main(["reproduce", "--recipe", "table7-d2",
                     "--data-dir", str(tmp_path), "--workers", "1",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        (row,) = payload["rows"]
        assert {"dataset", "model", "measure", "threshold", "f_measure",
                "precision", "recall"} <= set(row)
        assert row["dataset"] == "d2-abt-buy"
        assert row["model"] == "bag" and row["measure"] == "cosine"
        assert row["threshold"] == 0.35
        assert row["f_measure"] == 1.0  # trivially separable fixture

    def test_table7_without_data_is_data_error(self, tmp_path, capsys):
        code = main(["reproduce", "--recipe", "table7-d2",
                     "--data-dir", str(tmp_path / "absent")])
        assert code == 2
        assert "dataset files" in capsys.readouterr().err

    def test_unknown_recipe_is_usage_error(self, capsys):
        assert main(["reproduce", "--recipe", "table9"]) == 1


BAD_INPUTS = {
    "nan-weight": ("match", "A1\tB1\tnan\n", [], 2),
    "duplicate-edge": ("match", "A1\tB1\t0.5\nA1\tB1\t0.4\n", [], 2),
    "malformed-line": ("sweep", "A1\tB1\n", [], 2),
    "unknown-id": ("match", '# left_ids: ["A1"]\n# right_ids: ["B1"]\n'
                   "A1\tB1\t0.5\nA1\tB2\t0.4\n", [], 2),
    "bad-node-table": ("sweep", "# left_ids: A1 A2\nA1\tB1\t0.5\n", [], 2),
    "invalid-utf8": ("sweep", b"A1\tB1\t0.5\nA\xff1\tB1\t0.4\n", [], 2),
    "zero-repetitions": ("bench", "A1\tB1\t0.5\n", ["--repetitions", "0"], 1),
    "negative-repetitions": ("bench", "A1\tB1\t0.5\n",
                             ["--repetitions", "-2"], 1),
}


@pytest.mark.parametrize("command, graph_text, extra, expected",
                         BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_exit_code_without_traceback(demo_files, tmp_path, capsys,
                                               command, graph_text, extra,
                                               expected):
    _, gt = demo_files
    graph = tmp_path / "bad.tsv"
    if isinstance(graph_text, bytes):
        graph.write_bytes(graph_text)
    else:
        graph.write_text(graph_text, encoding="utf-8")
    args = [command, "--graph", str(graph), "--algorithm", "umc"]
    if command == "sweep":
        args += ["--gt", str(gt)]
    elif command == "match":
        args += ["--threshold", "0.5", "--output", str(tmp_path / "m.tsv")]
    else:
        args += ["--threshold", "0.5"]
    assert main(args + extra) == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if expected == 2:
        assert str(graph) in err


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, demo_files, capsys):
        graph, gt = demo_files
        assert main(["sweep", "--graph", str(graph), "--gt", str(gt),
                     "--algorithm", "umc", "--fast"]) == 1

    def test_bah_defaults_come_from_bah_config(self):
        from erbimatch.cli import _matcher_config, build_parser
        from erbimatch.matchers import BahConfig

        args = build_parser().parse_args(
            ["sweep", "--graph", "g.tsv", "--gt", "gt.tsv", "--algorithm", "bah"])
        assert BahConfig(**_matcher_config(args)) == BahConfig()

    def test_workers_env_override(self, monkeypatch):
        from erbimatch.cli import _default_workers

        monkeypatch.setenv("ERBIMATCH_WORKERS", "3")
        assert _default_workers() == 3
        monkeypatch.setenv("ERBIMATCH_WORKERS", "junk")
        assert _default_workers() >= 1

    def test_workers_follow_cpu_affinity(self, monkeypatch):
        import os

        from erbimatch.cli import _default_workers

        monkeypatch.delenv("ERBIMATCH_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        assert _default_workers() == 2
        monkeypatch.setenv("ERBIMATCH_WORKERS", "5")
        assert _default_workers() == 5
        monkeypatch.delenv("ERBIMATCH_WORKERS")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _default_workers() == 64
