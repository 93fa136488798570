"""Command-line behavior: formats, exit codes, round trips."""
import io
import json

from ricci_halin.cli import main
from ricci_halin.curvature import coupling_certificate, certificate_to_json, lipschitz_certificate
from ricci_halin.formats import from_graph6, parse_edge_list, to_graph6, write_edge_list
from ricci_halin.graph import Graph
from ricci_halin.halin import wheel


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


def test_enum_workers_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("RICCI_HALIN_WORKERS", "2")
    assert main(["enum", "--n-max", "5"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("RICCI_HALIN_WORKERS", "two")
    assert main(["enum", "--n-max", "5"]) == 1
    assert "RICCI_HALIN_WORKERS" in capsys.readouterr().err


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


def test_top_level_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["gen", "W:4", "--format", "table"]) == 1
    capsys.readouterr()
