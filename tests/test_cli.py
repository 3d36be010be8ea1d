import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dtdom.cli import main
from dtdom import generate_named, to_graph6
from dtdom.graphio import dump_graph

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def c7_file(tmp_path):
    p = tmp_path / "c7.el"
    p.write_text(dump_graph(generate_named("C7"), "edgelist"))
    return str(p)


def test_compute_dtd(c7_file, capsys):
    assert main(["compute", "--kind", "dtd", "--in", c7_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "4"
    witness = lines[1]
    assert main(
        ["check-set", "--kind", "dtd", "--in", c7_file, "--set", witness]
    ) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_non_ascii_edge_list_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "p3.el"
    p.write_bytes("3 2\n# caf\u00e9\n0 1\n1 2\n".encode("utf-8"))
    assert main(["compute", "--kind", "dtd", "--in", str(p)]) == 2
    assert f"{p}: line 2: non-ASCII character" in capsys.readouterr().err


def test_non_ascii_corpus_line_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "corpus.g6"
    p.write_bytes("Bw\nB\u00e9\n".encode("utf-8"))
    rc = main(["verify", "--theorem", "clawfree", "--max-n", "3", "--corpus", str(p)])
    assert rc == 2
    assert f"{p}:2: non-ASCII character" in capsys.readouterr().err


def test_check_set_invalid(c7_file, capsys):
    rc = main(["check-set", "--kind", "dtd", "--in", c7_file, "--set", "0,1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "uncovered: 3,4,5" in out


@pytest.mark.parametrize(
    "kind,valid,invalid,uncovered",
    [
        # dom counts a member as covering itself, tdom does not
        ("dom", "0,3,5", "0,1", "3,4,5"),
        ("tdom", "0,1,4,5", "0,3,5", "0,3,5"),
    ],
)
def test_check_set_dom_and_tdom(c7_file, capsys, kind, valid, invalid, uncovered):
    assert main(["check-set", "--kind", kind, "--in", c7_file, "--set", valid]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["check-set", "--kind", kind, "--in", c7_file, "--set", invalid]) == 1
    assert capsys.readouterr().out.splitlines() == ["invalid", f"uncovered: {uncovered}"]


def test_check_set_malformed(c7_file, capsys):
    assert main(["check-set", "--kind", "dtd", "--in", c7_file, "--set", "0,x"]) == 2
    assert "x" in capsys.readouterr().err
    assert main(["check-set", "--kind", "dtd", "--in", c7_file, "--set", "0,9"]) == 2


def test_generate_and_convert_round_trip(tmp_path, capsys):
    el = tmp_path / "t4.el"
    g6 = tmp_path / "t4.g6"
    back = tmp_path / "t4b.g6"
    assert main(["generate", "--family", "T(4)", "--out", str(el)]) == 0
    assert main(
        ["convert", "--in", str(el), "--format-in", "edgelist",
         "--format-out", "graph6", "--out", str(g6)]
    ) == 0
    assert main(
        ["convert", "--in", str(g6), "--format-in", "graph6",
         "--format-out", "edgelist", "--out", str(tmp_path / "t4c.el")]
    ) == 0
    assert main(
        ["convert", "--in", str(tmp_path / "t4c.el"), "--format-in", "edgelist",
         "--format-out", "graph6", "--out", str(back)]
    ) == 0
    assert g6.read_text() == back.read_text()
    assert g6.read_text().strip() == to_graph6(generate_named("T(4)"))


def test_generate_unknown_family(capsys):
    assert main(["generate", "--family", "Zork(3)"]) == 2
    assert "Zork" in capsys.readouterr().err


def test_construct_exceptional_exit_code(tmp_path, capsys):
    p6 = tmp_path / "p6.el"
    p6.write_text(dump_graph(generate_named("P6"), "edgelist"))
    assert main(["construct", "--in", str(p6)]) == 3
    assert "P(6)" in capsys.readouterr().err


def test_construct_too_deep_is_a_domain_error(tmp_path):
    # the proof path on P2000 outgrows the default recursion limit even from
    # a bare interpreter, so the outcome does not rest on how deep the CLI
    # calls it; the process must end on the typed error, not on a traceback
    el = tmp_path / "p2000.el"
    el.write_text(dump_graph(generate_named("P2000"), "edgelist"))
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "dtdom.cli", "construct", "--in", str(el)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("domain error: ") and "Traceback" not in proc.stderr


def test_construct_and_greedy(tmp_path, capsys):
    f = tmp_path / "h1.el"
    f.write_text(dump_graph(generate_named("H(1)"), "edgelist"))
    assert main(["construct", "--in", str(f)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "4" and out[2] == "proof-path"
    assert main(["construct", "--in", str(f), "--greedy"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[2] == "greedy"


def test_compute_isolated_vertex_domain_error(tmp_path, capsys):
    bad = tmp_path / "iso.el"
    bad.write_text("3 1\n0 1\n")
    assert main(["compute", "--kind", "tdom", "--in", str(bad)]) == 3
    assert "isolated" in capsys.readouterr().err
    assert main(["compute", "--kind", "dom", "--in", str(bad)]) == 0


def test_verify_subcommand(capsys):
    rc = main(["verify", "--theorem", "dtd-le-gt", "--max-n", "5",
               "--report", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    rc = main(["verify", "--theorem", "tree", "--max-n", "6"])
    assert rc == 0
    assert "status: pass" in capsys.readouterr().out


@pytest.mark.parametrize("theorem", ["tree", "clawfree", "mindeg2", "dtd-le-gt"])
def test_verify_max_n_zero_is_rejected(theorem, capsys):
    assert main(["verify", "--theorem", theorem, "--max-n", "0"]) == 2


@pytest.mark.parametrize("theorem", ["census7", "graph"])
def test_verify_max_n_is_rejected_for_fixed_universes(theorem, capsys):
    assert main(["verify", "--theorem", theorem, "--max-n", "3"]) == 2
    assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize("theorem", ["census7", "tree", "mindeg2", "dtd-le-gt"])
def test_verify_corpus_is_rejected_where_unused(theorem, tmp_path, capsys):
    # only graph and clawfree read a corpus; elsewhere it would be ignored
    missing = tmp_path / "absent.g6"
    assert main(["verify", "--theorem", theorem, "--corpus", str(missing)]) == 2
    assert "--corpus" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["verify", "--theorem", "tree", "--max-n", "5"],
    ["enumerate", "--n", "5"],
], ids=["verify", "enumerate"])
def test_jobs_outside_the_cores_is_rejected(command, capsys):
    cores = len(os.sched_getaffinity(0))
    for jobs in (0, cores + 1):
        assert main(command + ["--jobs", str(jobs)]) == 2
        assert "--jobs" in capsys.readouterr().err


def test_jobs_without_an_affinity_call(monkeypatch, capsys):
    """macOS has no os.sched_getaffinity; the core count falls back to cpu_count."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert main(["enumerate", "--n", "5", "--class", "trees"]) == 0
    assert capsys.readouterr().out.count("\n") == 3
    assert main(["enumerate", "--n", "5", "--class", "trees", "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_default_max_n_lives_in_the_checker(capsys):
    assert main(["verify", "--theorem", "mindeg2", "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["universe"].endswith("n <= 8 (builtin)")


def test_verify_census7_via_cli(capsys):
    rc = main(["verify", "--theorem", "census7", "--report", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["total_domination_4"] == 20
    assert payload["counts"]["clawfree_total_domination_4"] == 12
    assert payload["counts"]["clawfree_dtd_4"] == 6


def test_verify_failure_exit_code(tmp_path, capsys):
    corpus = tmp_path / "bad.g6"
    corpus.write_text(to_graph6(generate_named("C5")) + "\n")
    rc = main(["verify", "--theorem", "graph", "--corpus", str(corpus)])
    assert rc == 1


def test_verify_clawfree_corpus_below_order_2_exit_code(tmp_path, capsys):
    # orders 1 and 0 are reported, not checked: neither the isolated
    # vertex's domain error (exit 3) nor a false equality case (7*0 == 4*0)
    corpus = tmp_path / "tiny.g6"
    corpus.write_text("@\n?\n")
    rc = main(["verify", "--theorem", "clawfree", "--max-n", "3", "--corpus", str(corpus),
               "--report", "json"])
    assert rc == 1
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations == ["corpus-order-below-2:@", "corpus-order-below-2:?"]


def test_enumerate_deterministic(tmp_path, capsys):
    assert main(["enumerate", "--n", "5", "--class", "trees"]) == 0
    first = capsys.readouterr().out
    assert main(["enumerate", "--n", "5", "--class", "trees"]) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 3
    out = tmp_path / "c.g6"
    assert main(["enumerate", "--n", "6", "--class", "clawfree", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 50
    assert out.read_text() == "".join(
        sorted(line + "\n" for line in out.read_text().strip().splitlines())
    )


@pytest.mark.parametrize(
    "klass,n,count", [("clawfree", 8, 881), ("trees", 12, 551)], ids=["clawfree", "trees"]
)
def test_enumerate_parallel_matches_serial(klass, n, count, capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["enumerate", "--n", str(n), "--class", klass, "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == count


def test_enumerate_cap(capsys):
    assert main(["enumerate", "--n", "9", "--class", "all"]) == 2


def test_missing_file(capsys):
    assert main(["compute", "--kind", "dtd", "--in", "/nonexistent"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--kind", "dtd", "--in"],
        ["generate", "--family", "P4", "--out"],
        ["verify", "--theorem", "graph", "--corpus"],
    ],
    ids=["compute-in", "generate-out", "verify-corpus"],
)
def test_unreadable_path_is_an_input_error(argv, tmp_path, capsys):
    # a directory cannot be opened as a file; exit 1 would read as a failed
    # verification
    assert main(argv + [str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot open {tmp_path}")
