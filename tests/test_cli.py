"""Command-line interface behavior, including piped composition."""

import json
import subprocess
import sys

import pytest

from equilines import (battery, constructions, extend, localize, pentagon,
                       to_graph6, triangle)
from equilines.cli import main

CMD = [sys.executable, "-m", "equilines.cli"]


def run_cli(args, stdin=""):
    return subprocess.run(CMD + args, input=stdin, capture_output=True,
                          text=True, timeout=300)


def test_construct_g6():
    out = run_cli(["construct", "pentagon", "--g6"])
    assert out.returncode == 0
    assert out.stdout.strip() == to_graph6(pentagon())


def test_construct_json_report():
    out = run_cli(["construct", "triangle"])
    report = json.loads(out.stdout)
    assert report["command"] == "construct triangle"
    assert report["result"]["graph6"] == to_graph6(triangle())
    assert report["result"]["graph"] == {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}


def test_pipe_equals_in_process():
    # construct | localize must be byte-identical to the in-process value
    g6 = run_cli(["construct", "pentagon", "--g6"]).stdout
    piped = run_cli(["localize", "--vertex", "0", "--g6"], stdin=g6).stdout
    assert piped.strip() == to_graph6(localize(pentagon(), 0))


def test_pipe_construct_extensible():
    g6 = run_cli(["construct", "paley:5", "--g6"]).stdout
    report = json.loads(run_cli(["extensible"], stdin=g6).stdout)
    r = report["result"]
    assert (r["extensible"], r["t"], r["s"], r["sbar"]) == (True, 0, 1, 1)
    assert r["srg"] == [5, 2, 0, 1]


def test_localize_idempotent_on_isolated():
    g6 = to_graph6(extend(pentagon()))
    out = run_cli(["localize", "--vertex", "5", "--g6"], stdin=g6 + "\n")
    assert out.stdout.strip() == g6


def test_group_two_graph_pipeline():
    g6 = run_cli(["construct", "t1:2", "--g6"]).stdout
    ext = run_cli(["extend", "--g6"], stdin=g6).stdout
    report = json.loads(run_cli(["group", "--two-graph"], stdin=ext).stdout)
    assert report["result"]["order"] == "720"
    assert report["result"]["transitivity"] == 2


def test_json_input_accepted(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}))
    report = json.loads(run_cli(["extensible", "--input", str(path)]).stdout)
    assert report["result"]["t"] == 1


def test_switch_equiv_cli():
    g6a = to_graph6(pentagon())
    g6b = to_graph6(localize(pentagon(), 1))
    report = json.loads(run_cli(["switch-equiv"], stdin=f"{g6a}\n{g6b}\n").stdout)
    assert report["result"]["equivalent"] is True
    assert len(report["result"]["witness"]) == 5


def test_spectrum_and_chi_cli():
    g6 = to_graph6(extend(triangle()))
    spec = json.loads(run_cli(["spectrum"], stdin=g6).stdout)["result"]
    assert spec["eigenvalues"] == [
        {"value": "2", "multiplicity": 3, "approx": 2.0},
        {"value": "-2", "multiplicity": 1, "approx": -2.0},
    ]
    chi = json.loads(run_cli(["chi"], stdin=g6).stdout)["result"]
    assert chi["chi"] == ["1", "0", "-6", "-8", "-3"]


def test_lines_cli():
    g6 = to_graph6(extend(pentagon()))
    report = json.loads(
        run_cli(["lines", "--eigenvalue", "1-sqrt(5)"], stdin=g6).stdout)
    r = report["result"]
    assert r["dim"] == 3 and r["cos"] == "1/sqrt(5)" and r["residual"] <= 1e-9


def test_paley_verify_cli():
    report = json.loads(run_cli(["paley-verify", "5"]).stdout)
    assert all(v for k, v in report["result"].items() if k != "q")


def test_error_exit_codes():
    assert run_cli(["nonsense"]).returncode == 2
    bad = run_cli(["extensible"], stdin="not-a-graph\n")
    assert bad.returncode == 1
    assert "error:" in bad.stderr
    assert run_cli(["construct", "t1:4"]).returncode == 1


def test_multiline_graph6_input_rejected():
    g6 = to_graph6(pentagon())
    out = run_cli(["extensible"], stdin=f"{g6}\n\n{g6}\n")
    assert out.returncode == 1
    assert "one graph6 line" in out.stderr
    assert run_cli(["extensible"], stdin=f"\n{g6}\n\n").returncode == 0


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(name):
        raise RuntimeError("invariant violated")
    monkeypatch.setattr(constructions, "construct", broken)
    assert main(["construct", "pentagon"]) == 3
    assert "internal error: invariant violated" in capsys.readouterr().err


def test_flags_only_where_read():
    for argv in (["construct", "pentagon", "--json"],
                 ["extensible", "--g6"],
                 ["chi", "--g6"],
                 ["construct", "pentagon", "--input", "g.g6"],
                 ["paley-verify", "5", "--input", "g.g6"],
                 ["reproduce-table", "--g6"],
                 ["reproduce-table", "--jobs", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_main_entry_in_process(capsys):
    assert main(["construct", "pentagon", "--g6"]) == 0
    assert capsys.readouterr().out.strip() == to_graph6(pentagon())


@pytest.mark.slow
def test_reproduce_table_smoke():
    out = run_cli(["reproduce-table"])
    assert out.returncode == 0
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(battery.ROWS)
    assert all(ln.startswith("PASS") for ln in lines)
