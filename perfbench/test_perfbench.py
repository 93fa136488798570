"""Tests of the benchmark itself, on the tiny variants of its workloads.

Run with `python3 -m pytest perfbench` from the repository root.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import layers  # noqa: E402
from inputs import edge_list_text, gnm, random_halin  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_tiny_runs_print_every_metric_with_its_unit(trace, kind):
    done = _bench("--workload", "all", "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    want = {
        f"{w}/{m['name']}": m["unit"]
        for w in WORKLOADS for m in BENCHMARK[kind]
    }
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    report = "\n".join(lines[:-1])
    for m in BENCHMARK["end_to_end"]:
        assert f"  {m['name']} " in report
    assert report.count("  fail_ratio 0.0 ratio") == len(WORKLOADS)
    assert "UNSEEN" not in report and "TIMEOUT" not in report
    curv = sum(w.argv_2w is None for w in WORKLOADS.values())
    assert report.count("  N/A enumeration.wall_2w_s") == (
        curv if trace == "1" else 0)


def test_without_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "curv-dense", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_call_killed_at_the_budget_is_a_timeout_not_a_failure(
        tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "RUN_BUDGET_S", 0)  # each call gets 1 s
    verify = WORKLOADS["verify13"]
    bench = run.Run(verify, 1, False, tmp_path)
    result = bench.finish(bench.start(verify.argv))
    assert result["wall_s"] is None
    assert result["failures"] == [] and bench.failures == []
    assert len(bench.timeouts) == 1 and "killed" in bench.timeouts[0]
    assert bench.live == []


def _curv_json(n, edges, tmp_path):
    from ricci_halin.cli import main

    path = tmp_path / "g.edges"
    path.write_text(edge_list_text(n, edges), encoding="ascii")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["curv", str(path), "--format", "json"])
    return out.getvalue(), code


def _corrupt(text, edge):
    payload = json.loads(text)
    for row in payload["edges"]:
        if (row[0], row[1]) == edge:
            row[2] = str(gate.Fraction(row[2]) + gate.Fraction(1, 7))
    return json.dumps(payload)


def test_curv_gate_catches_a_wrong_edge_value(tmp_path):
    n, edges = gnm(30, 87, 5)
    text, code = _curv_json(n, edges, tmp_path)
    assert gate.check_curv(text, code, n, edges, 5, False) == []
    wrong = gate.sampled_edges(edges, 5)[0]
    failures = gate.check_curv(_corrupt(text, wrong), code, n, edges, 5, False)
    assert any(f"edge {wrong[0]}-{wrong[1]}" in f for f in failures)


def test_curv_gate_confirms_unchecked_edges_by_the_dual(tmp_path, monkeypatch):
    from ricci_halin.graph import Graph
    from ricci_halin.halin import wheel

    g = wheel(16).graph  # spokes have degree sum 18, above curv's 14
    edges = g.edges()
    text, code = _curv_json(g.n, edges, tmp_path)
    monkeypatch.setattr(gate, "SAMPLE_EDGES", 0)
    graph = Graph(g.n, edges)
    assert gate.check_curv(text, code, g.n, edges, 1, True, graph) == []
    failures = gate.check_curv(_corrupt(text, (0, 1)), code, g.n, edges, 1,
                               True, graph)
    assert any("dual oracle" in f for f in failures)


def test_sweep_gate_catches_a_changed_class():
    from ricci_halin.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["enum", "--n-max", "7"]) == 0
    reference = json.loads((HERE / "reference.json").read_text())
    ref = reference["tiny-verify13"]
    assert gate.check_sweep(out.getvalue(), 0, ref, False) == []
    payload = json.loads(out.getvalue())
    payload["generated_count"] += 1  # counters are outside the digest
    assert gate.check_sweep(json.dumps(payload), 0, ref, False) == []
    payload["classes"][0]["min_curvature"] = "-1"
    assert gate.check_sweep(json.dumps(payload), 0, ref, False)


def test_a_missing_call_site_is_reported_not_zeroed():
    sites = {
        name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "hits": 0,
               "first_s": 0.0, "note": 0, "samples": []}
        for name in layers.SITES
    }
    view = layers.TraceView(sites, 1.0, 1.0, 1.0)
    metrics, unseen = layers.per_layer(view, ["enumeration.tree_profile"])
    assert "halin.profile_s" not in metrics
    assert "halin.profile_calls" not in metrics
    assert ("halin.profile_s", "halin", "enumeration.tree_profile") in unseen
    assert "halin.edges_s" in metrics


def test_inputs_depend_on_the_seed_alone():
    assert gnm(40, 156, 7) == gnm(40, 156, 7)
    assert gnm(40, 156, 7) != gnm(40, 156, 8)
    assert len(gnm(40, 156, 8)[1]) == 156
    n, edges = random_halin(200, 3)
    assert (n, edges) == random_halin(200, 3)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    leaves = len(edges) - (n - 1)  # one cycle edge per leaf
    assert sum(d == 3 for d in degree) >= leaves
    assert len(set(edges)) == len(edges)
