"""Command-line behavior: formats, exit codes, round trips."""
import hashlib
import io
import json
import random

import pytest

from ricci_halin import cli
from ricci_halin.cli import main
from ricci_halin.curvature import coupling_certificate, certificate_to_json, lipschitz_certificate
from ricci_halin.formats import from_graph6, parse_edge_list, to_graph6, write_edge_list
from ricci_halin.graph import Graph
from ricci_halin.halin import wheel

from oracles import random_gnp_graph, random_halin_graph


def cycle6_text():
    return write_edge_list(Graph(6, [(i, (i + 1) % 6) for i in range(6)]))


def test_gen_emits_graph6_by_default(capsys):
    assert main(["gen", "W:5"]) == 0
    out = capsys.readouterr().out
    assert from_graph6(out.strip()) == wheel(5).graph


def test_gen_edgelist_round_trips_through_curv(capsys, tmp_path):
    assert main(["gen", "W1:6", "--format", "edgelist"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "w16.edges"
    path.write_text(text, encoding="ascii")
    assert main(["curv", str(path)]) == 0
    table = capsys.readouterr().out
    assert "positively_curved true" in table

    assert main(["gen", "W1:6"]) == 0
    g6 = capsys.readouterr().out
    assert from_graph6(g6.strip()) == parse_edge_list(text)


def test_gen_dot_output(capsys):
    assert main(["gen", "W:4", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert "0 -- 1;" in out


def test_gen_writes_output_file(capsys, tmp_path):
    path = tmp_path / "w5.g6"
    assert main(["gen", "W:5", "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert from_graph6(path.read_text(encoding="ascii").strip()) == wheel(5).graph


def test_gen_rejects_bad_specs(capsys):
    assert main(["gen", "Q:5"]) == 1
    assert main(["gen", "W:3"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec", ["W:\u0665", "W1:\u0666", "W:+5", "W:1_0", "W: 5", "W:05", "W:5\n"]
)
def test_family_counts_are_plain_ascii_decimal(capsys, spec):
    # int() reads each of these counts, and \d matches Arabic-Indic digits
    assert main(["gen", spec]) == 1
    assert main(["curv", spec]) == 1
    assert "error" in capsys.readouterr().err


def test_curv_table_on_the_5_wheel(capsys):
    assert main(["curv", "W:5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "edge  curvature"
    assert "0-1  1" in out
    assert "min 1  positively_curved true" in out


def test_curv_exit_code_2_on_nonpositive(capsys, tmp_path):
    path = tmp_path / "c6.edges"
    path.write_text(cycle6_text(), encoding="ascii")
    assert main(["curv", str(path)]) == 2
    out = capsys.readouterr().out
    assert "min 0  positively_curved false" in out


def test_curv_primal_dual_disagreement_exits_1(capsys, monkeypatch):
    # the cross-check runs on every edge, memo hits included: a dual that
    # errs only on the last rim edge of W_5, whose problem the other rim
    # edges have already solved, is caught and refused
    real = cli.kappa_lly_dual

    def wrong_on_3_4(g, e, threshold):
        k = real(g, e, threshold)
        return k + 1 if tuple(e) == (3, 4) else k

    monkeypatch.setattr(cli, "kappa_lly_dual", wrong_on_3_4)
    assert main(["curv", "W:5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: primal/dual disagree on edge (3,4): 1 vs 2\n"
    assert captured.out == ""


def test_curv_json_format(capsys):
    assert main(["curv", "W:5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5
    assert payload["min_curvature"] == "1"
    assert payload["positively_curved"] is True
    assert [0, 1, "1"] in payload["edges"]
    assert len(payload["edges"]) == 8


def test_curv_dot_labels_every_edge(capsys):
    assert main(["curv", "W:4", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.count('[label="4/3"]') == 6


def test_curv_reads_stdin(capsys, monkeypatch):
    text = to_graph6(wheel(5).graph).decode("ascii") + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["curv", "-"]) == 0
    assert "min 1" in capsys.readouterr().out


def test_curv_oracle_threshold_flag(capsys):
    assert main(["curv", "W:5", "--oracle-threshold", "0"]) == 0
    assert main(["curv", "W:5", "--oracle-threshold", "14"]) == 0
    capsys.readouterr()


def test_curv_parse_failures_exit_1(capsys, tmp_path):
    assert main(["curv", str(tmp_path / "missing.edges")]) == 1
    bad = tmp_path / "bad.edges"
    bad.write_text("3 1\n0 7\n", encoding="ascii")
    assert main(["curv", str(bad)]) == 1
    bad.write_text("C~\nD]{\n", encoding="ascii")  # two graph6 graphs
    assert main(["curv", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_enum_json_on_stdout_summary_on_stderr(capsys):
    assert main(["enum", "--n-max", "6"]) == 0
    captured = capsys.readouterr()
    assert captured.err.strip() == "W:3 W':2 W'':1 sporadic:2"
    payload = json.loads(captured.out)
    assert payload["counts"] == {"W": 3, "W1": 2, "W2": 1, "sporadic": 2}
    assert payload["halin_only"] is False
    assert len(payload["classes"]) == 8
    assert payload["classes"][0]["canonical_graph6"] == "C~"


def test_enum_halin_only_filter(capsys):
    assert main(["enum", "--n-max", "6", "--halin-only"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["halin_only"] is True
    assert payload["counts"] == {"W": 3, "W1": 0, "W2": 0, "sporadic": 1}
    assert payload["counts_by_n"] == {"4": 1, "5": 1, "6": 2}
    assert [c["family"] for c in payload["classes"]] == [
        "W_4", "W_5", "W_6", "H_1"
    ]


def test_enum_no_prune_matches_pruned_classes(capsys):
    assert main(["enum", "--n-max", "6"]) == 0
    pruned = json.loads(capsys.readouterr().out)
    assert main(["enum", "--n-max", "6", "--no-prune"]) == 0
    unpruned = json.loads(capsys.readouterr().out)
    assert pruned["classes"] == unpruned["classes"]
    assert unpruned["pruned_count"] == 0


def test_enum_output_file_keeps_summary_on_stdout(capsys, tmp_path):
    path = tmp_path / "enum.json"
    assert main(["enum", "--n-max", "5", "--output", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "W:2 W':1 W'':0 sporadic:0"
    payload = json.loads(path.read_text(encoding="ascii"))
    assert payload["n_max"] == 5


def test_enum_usage_errors(capsys):
    assert main(["enum"]) == 1  # --n-max is required
    assert main(["enum", "--n-max", "3"]) == 1
    capsys.readouterr()


def test_enum_output_is_byte_identical(capsys):
    # the classification JSON must not change by a byte between releases;
    # a deliberate change of the output format updates this digest
    assert main(["enum", "--n-max", "10"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "9f4c1ee0f6be663fba18021b86c2d01e203eff58a79203d23b5facac00081861"
    )
    # unpruned, every tree of the stream reaches the canonical form
    assert main(["enum", "--n-max", "10", "--no-prune"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "e83b00c49ff0c117acc348ac25809198450447c86aad95e159e5016665eb5e35"
    )
    # from n = 8 on, the rootings of one plane tree can take different
    # hubs, so the counters in this JSON pin how they are weighed
    assert main(["enum", "--n-max", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "c9acaed0fe19ea2a26b1de073fdaec7a42609488020fa0f0a03f3737fb56955d"
    )


def test_curv_json_is_byte_identical(capsys, tmp_path):
    # pinned exact curvatures: a dense random graph, where every degree
    # sum is above 14 so only the transport route runs; W''_10; a random
    # generalized Halin graph on 300 vertices, whose local problems
    # repeat; and W_200, whose 199 spokes are one problem
    g = random_gnp_graph(random.Random(40), 40, 0.5)
    assert all(g.degree(x) + g.degree(y) > 14 for x, y in g.edges())
    path = tmp_path / "dense40.edges"
    path.write_text(write_edge_list(g), encoding="ascii")
    halin = tmp_path / "halin300.edges"
    halin.write_text(write_edge_list(random_halin_graph(300, 1)), encoding="ascii")
    for source, digest in [
        (str(path), "3e745059434b48ec2fd7e0aed81c7f8c89b0665857f12fc6a049dddcd4774290"),
        ("W2:10", "bde82cf62b5de22137026d627d2986ffa6449daa877e59a9cab1a37a5935d13a"),
        (str(halin), "9d159fe45dc4e018877f98e38e90dbce47c9e794720cc2594342ff59950bbf23"),
        ("W:200", "c8a402b54fa2b1b5adeb778223fdadef70c5fb8d8d58487e0c1b2e8575083741"),
    ]:
        main(["curv", source, "--format", "json"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_enum_two_workers_match_one(capsys):
    assert main(["enum", "--n-max", "5", "--workers", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["enum", "--n-max", "5", "--workers", "2"]) == 0
    assert capsys.readouterr().out == one


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", [["enum", "--n-max", "5"], ["verify"]])
def test_fewer_than_one_worker_is_refused(capsys, command, workers):
    assert main([*command, "--workers", workers]) == 1
    assert f"need workers >= 1, got {workers}" in capsys.readouterr().err


def test_verify_full_run(capsys):
    assert main(["verify", "12"]) == 0
    out = capsys.readouterr().out
    assert "OK: classification verified up to 12 vertices" in out
    assert "W:9 W':5 W'':5 sporadic:8" in out
    assert sum(1 for ln in out.splitlines() if ln.startswith("n=")) == 27


def test_verify_rejects_small_n_max(capsys):
    assert main(["verify", "11"]) == 1
    assert "n_max must be >= 12" in capsys.readouterr().err


def test_cert_coupling_proves_positive(capsys, tmp_path):
    cert = coupling_certificate(wheel(5).graph, (0, 1))
    path = tmp_path / "pi.json"
    path.write_text(certificate_to_json(cert), encoding="ascii")
    assert main(["cert", "W:5", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lower_bound 1" in out
    assert "proves positive curvature" in out


def test_cert_lipschitz_proves_nonpositive(capsys, tmp_path):
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    cert = lipschitz_certificate(g, (0, 1))
    graph_path = tmp_path / "c6.edges"
    graph_path.write_text(cycle6_text(), encoding="ascii")
    cert_path = tmp_path / "f.json"
    cert_path.write_text(certificate_to_json(cert), encoding="ascii")
    assert main(["cert", str(graph_path), str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "upper_bound 0" in out
    assert "proves non-positive curvature" in out


def test_cert_weak_bound_proves_nothing(capsys, tmp_path):
    # an optimal Lipschitz witness on a positively curved edge bounds the
    # curvature above by a positive value: no sign conclusion
    cert = lipschitz_certificate(wheel(5).graph, (0, 1))
    path = tmp_path / "f.json"
    path.write_text(certificate_to_json(cert), encoding="ascii")
    assert main(["cert", "W:5", str(path)]) == 0
    assert "proves nothing" in capsys.readouterr().out


def test_cert_invalid_certificates_exit_1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"edge": [0, 1]}', encoding="ascii")
    assert main(["cert", "W:5", str(path)]) == 1

    # a witness for the wrong graph: required vertices are missing
    cert = lipschitz_certificate(wheel(5).graph, (0, 1))
    path.write_text(certificate_to_json(cert), encoding="ascii")
    assert main(["cert", "W:6", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_cert_rejects_a_fractional_vertex_id(capsys, tmp_path):
    # 3.7 must not be read as vertex 3, which would make a valid proof
    cert = coupling_certificate(wheel(5).graph, (0, 1))
    payload = json.loads(certificate_to_json(cert))
    entry = next(e for e in payload["pi"] if e[0] == 3)
    entry[0] = 3.7
    path = tmp_path / "pi.json"
    path.write_text(json.dumps(payload), encoding="ascii")
    assert main(["cert", "W:5", str(path)]) == 1
    assert "error" in capsys.readouterr().err
    entry[0] = 3
    path.write_text(json.dumps(payload), encoding="ascii")
    assert main(["cert", "W:5", str(path)]) == 0
    assert "proves positive curvature" in capsys.readouterr().out


def test_top_level_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["gen", "W:4", "--format", "table"]) == 1
    capsys.readouterr()
