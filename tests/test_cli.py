import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import critsets
from critsets.cli import GENERATORS, load_graph_source, main
from critsets.errors import InvalidParameterError
from critsets.graphs import (
    emit_graph6,
    enumerate_graphs,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
    parse_graph6,
)
from critsets.scan import _usable_cpus, walk_graph6_lines
from critsets.sudoku import canonical_board, format_board, mnc_exhaustive


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_modules(*argv, cli=True):
    """Names in sys.modules after a fresh interpreter imports critsets.cli
    and, given argv, runs it; with cli off, after it imports nothing."""
    src = str(Path(critsets.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, critsets.cli\n"
            "code = critsets.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n" if cli else
            "import sys\ncode = 0\n") + "print(*sorted(sys.modules))\nsys.exit(code)"
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, (argv, run.stderr)
    return set(run.stdout.splitlines()[-1].split())


def test_cli_import_leaves_multiprocessing_out(tmp_path):
    # only scans with --jobs > 1 start a pool, so only they import it; each
    # subcommand loads the four core modules plus only what it runs; no
    # command loads dataclasses, or inspect through it; and json and csv load
    # only with a command that prints them (`reduce --out` writes its role
    # map without json).  Standard-library modules are
    # compared with a bare interpreter in the same environment, since site
    # may preload some.
    core = {"critsets", "critsets.cli", "critsets.coloring", "critsets.critical",
            "critsets.errors", "critsets.graphs"}
    k3 = tmp_path / "k3.g6"
    k3.write_text("Bw\n")
    scan = ["scan", str(k3), "--check", "prop1"]
    cases = [  # argv, critsets modules, writers
        ([], core, set()),
        (["params", "empty:1"], core, set()),
        (["--format", "json", "params", "empty:1"], core, {"json"}),
        (["--format", "csv", "params", "empty:1"], core, {"csv"}),
        (["atlas", "4"], core, set()),
        (["table", "3"], core | {"critsets.scan"}, {"csv"}),
        (["--format", "json", "table", "3"], core | {"critsets.scan"}, {"json"}),
        (scan, core | {"critsets.scan"}, set()),
        (["--format", "json", *scan], core | {"critsets.scan"}, {"json"}),
        (["--format", "csv", *scan], core | {"critsets.scan"}, {"csv"}),
        (["params", "sudoku:2"], core | {"critsets.sudoku"}, set()),
        (["sudoku", "mnc"], core | {"critsets.sudoku"}, set()),
        (["sudoku", "trials", "2", "--count", "2"], core | {"critsets.sudoku"}, {"csv"}),
        (["reduce", "ulcs", "complete:3", "--verify"], core | {"critsets.reductions"}, set()),
        (["reduce", "ulcs", "complete:2", "--out", str(tmp_path / "g")],
         core | {"critsets.reductions"}, set()),
    ]
    baseline = _fresh_modules(cli=False)
    for argv, expected, writers in cases:
        loaded = _fresh_modules(*argv)
        assert {m for m in loaded if m.split(".")[0] in ("critsets", "multiprocessing")} == expected, argv
        new = loaded - baseline
        assert not new & {"dataclasses", "inspect"}, argv
        for module in ("json", "csv"):
            if module in writers:
                assert module in loaded, (argv, module)
            else:
                assert module not in new, (argv, module)


def test_package_names_are_their_submodules_objects():
    # the lazy namespace hands out the submodule's own object for every name
    from critsets import four_params

    assert four_params is sys.modules["critsets.critical"].four_params
    for name in critsets.__all__:
        obj = getattr(critsets, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("critsets."), name
    with pytest.raises(AttributeError):
        critsets.no_such_name


def test_load_graph_source(tmp_path, capsys):
    assert load_graph_source("cycle:5") == make_cycle(5)
    assert load_graph_source("complete:3") == make_complete(3)
    assert load_graph_source(emit_graph6(make_cycle(4))) == make_cycle(4)
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(make_cycle(6)) + "\n")
    assert load_graph_source(str(path)) == make_cycle(6)
    latin = load_graph_source("latin:2")
    assert (latin.n, latin.m) == (4, 4)
    # a generator argument is an optional "-" and ASCII digits: int() alone
    # would read Arabic-Indic digits, underscores, a sign and spaces
    for src in ("cycle:x", "cycle:\u0661\u0661", "cycle:1_0", "cycle:+5", "cycle: 5",
                "cycle:5 ", "cycle:", "cycle:-", "cycle:--3"):
        message = f"bad generator argument in {src!r}"
        with pytest.raises(InvalidParameterError) as caught:
            load_graph_source(src)
        assert str(caught.value) == message
        assert run_cli(capsys, "params", src) == (1, "", f"error: {message}\n"), src
    # a negative N keeps its generator's own message
    for src, message in (("cycle:-3", "cycles need at least 3 vertices"),
                         ("path:-1", "n must be nonnegative"),
                         ("sudoku:-1", "box order must be at least 1")):
        assert run_cli(capsys, "params", src) == (1, "", f"error: {message}\n"), src


def test_params_text(capsys):
    code, out, _ = run_cli(capsys, "params", "cycle:5")
    assert code == 0
    assert "uscs=3 oscs=3 ulcs=4 olcs=4" in out
    code, out, _ = run_cli(capsys, "params", "latin:2")
    assert code == 0 and "uscs=1 oscs=1 ulcs=1 olcs=1" in out
    code, out, _ = run_cli(capsys, "params", "complete:4")
    assert code == 0 and "uscs=3 oscs=3 ulcs=3 olcs=3" in out


def test_params_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "params", "cycle:7")
    assert code == 0
    data = json.loads(out)
    assert (data["uscs"], data["oscs"], data["ulcs"], data["olcs"]) == (4, 5, 4, 6)
    assert data["chi"] == 3
    code, out, _ = run_cli(capsys, "--format", "csv", "params", "cycle:7")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["source", "n", "m"]
    assert rows[1][5:] == ["4", "5", "4", "6"]


def test_params_k_flag(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "params", "complete:2", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert (data["uscs"], data["olcs"]) == (2, 2)
    assert (data["chi"], data["k"]) == (2, 3)
    code, _, err = run_cli(capsys, "params", "cycle:5", "--k", "2")
    assert code == 1 and "error" in err


def test_params_error_codes(capsys):
    code, _, err = run_cli(capsys, "params", "not-a-graph6{{")
    assert code == 1
    code, _, err = run_cli(capsys, "params", "cycle:25")
    assert code == 2 and "size limit" in err


# sha256 of `--format json params` stdout, recorded with Python 3.11.7:
# every input runs on the lattice kernel, the last four with more than 16
# vertices, so their lattices are past the cached tables and read in
# 2^16-bit slices
PARAMS_JSON_SHA256 = {
    "latin:4": "3a0f7e3f3049c227a14bf9ba3f0a2800a9d98047c9cf9a1a883f6f06c72c89e7",
    "sudoku:2": "0a03e21a129ff25540089ace388cab8da146cdc1a196056ba6e36e0c390bc969",
    "complete:16": "ba503892c055e09a16a1f25cc8fae5ecd4752b4c7c67111c2feb9071fd355b8c",
    "complete:17": "4d55c8182bbfe79de85e2cc804adc31c447790ebfab995fb2cdbdc6efba8ca70",
    "complete:20": "8e248de62bf0d714761d5f9c08d2400e8add72766c68e3f7fe6c891e1bdde48b",
    "path:20 --k 2": "02cca6a755cdc89b68dded46d2fa10f91325deaf64bc9d0a595f8a135233c668",
    "cycle:20 --k 2": "97391832d219cd678fec1dbdca72b5682cd567fc72ef549e01385b2b66ff9fb6",
}


def test_params_json_bytes_on_both_routes(capsys):
    for argv, digest in PARAMS_JSON_SHA256.items():
        code, out, _ = run_cli(capsys, "--format", "json", "params", *argv.split())
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_table_small(capsys):
    code, out, _ = run_cli(capsys, "table", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert len(body) == 4
    by_g6 = {row[0]: row for row in body}
    k3_row = by_g6[emit_graph6(parse_graph6("Bw"))]
    assert k3_row[3:7] == ["2", "2", "2", "2"]
    code, out, _ = run_cli(capsys, "table", "4", "--nonbipartite")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(int(row[2]) >= 3 for row in rows[1:])  # chi of nonbipartite
    code, _, err = run_cli(capsys, "table", "9")
    assert code == 2 and "size limit" in err


def test_scan_command(capsys, tmp_path):
    path = tmp_path / "atlas.g6"
    lines = [emit_graph6(g) for n in range(1, 5) for g in enumerate_graphs(n)]
    path.write_text("\n".join(lines) + "\nBADLINE{{\n")
    code, out, _ = run_cli(capsys, "scan", str(path), "--check", "uniform")
    assert code == 0
    # the paw (graph6 CN) is the one class on <=4 vertices that is not
    # critically uniform; see tests/test_critical.py
    assert "counterexamples=1" in out
    assert "CN" in out
    assert "parse_errors=1" in out
    code, out, _ = run_cli(capsys, "--format", "json", "scan", str(path), "--check", "converse")
    data = json.loads(out)
    assert data["checked"] == 18 and data["counterexamples"] == []
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "scan", str(empty), "--check", "prop1")
    assert code == 0 and "graphs=0" in out
    code, out, err = run_cli(capsys, "scan", str(path), "--check", "prop1", "--progress", "-1")
    assert code == 1 and out == "" and len(err.splitlines()) == 1 and "--progress" in err


def test_table_and_scan_json_bytes(capsys, tmp_path):
    # records print as objects keyed by field name, in field order
    code, out, _ = run_cli(capsys, "--format", "json", "table", "3")
    assert code == 0 and out == (
        '[{"graph6": "B?", "n": 3, "chi": 1, "quad": [0, 0, 0, 0], '
        '"uniquely_colorable": true, "uniform": 0}, '
        '{"graph6": "BG", "n": 3, "chi": 2, "quad": [2, 2, 2, 2], '
        '"uniquely_colorable": false, "uniform": 2}, '
        '{"graph6": "BW", "n": 3, "chi": 2, "quad": [1, 1, 1, 1], '
        '"uniquely_colorable": true, "uniform": 1}, '
        '{"graph6": "Bw", "n": 3, "chi": 3, "quad": [2, 2, 2, 2], '
        '"uniquely_colorable": true, "uniform": 2}]\n')
    # prop1 and its converse hold on every graph this small, so the
    # counterexamples come from the uniform check: the paw and DLs
    path = tmp_path / "mixed.g6"
    path.write_text("CN\nBw\nBADLINE{{\nDLs\n")
    code, out, _ = run_cli(capsys, "--format", "json", "scan", str(path), "--check", "uniform")
    assert code == 0 and out == (
        '{"check": "uniform", "checked": 3, "counterexamples": ['
        '{"graph6": "CN", "n": 4, "chi": 3, "quad": [2, 2, 3, 3], '
        '"uniquely_colorable": false, "uniform": null}, '
        '{"graph6": "DLs", "n": 5, "chi": 3, "quad": [2, 3, 3, 4], '
        '"uniquely_colorable": false, "uniform": null}], '
        '"parse_errors": [[3, "trailing characters after n=3 body (byte 2)"]]}\n')


def test_scan_csv_and_progress_bytes(capsys, tmp_path):
    # blank lines are skipped, bad lines keep their line number, and
    # --progress counts records only (here the bad line falls between
    # the two reports)
    path = tmp_path / "mixed.g6"
    path.write_text("CN\nBw\n\nBADLINE{{\nDLs\nB?\n")
    code, out, err = run_cli(capsys, "--format", "csv", "scan", str(path), "--check", "uniform")
    assert (code, err) == (0, "") and out == (
        "graph6,n,chi,uscs,oscs,ulcs,olcs,uniquely_colorable,uniform,holds\r\n"
        "CN,4,3,2,2,3,3,0,,0\r\n"
        "Bw,3,3,2,2,2,2,1,2,1\r\n"
        "DLs,5,3,2,3,3,4,0,,0\r\n"
        "B?,3,1,0,0,0,0,1,0,1\r\n")
    code, out, err = run_cli(capsys, "scan", str(path), "--check", "prop1", "--progress", "2")
    assert code == 0 and out == (
        "check=prop1 graphs=4 counterexamples=0 parse_errors=1\n"
        "  line 4: trailing characters after n=3 body (byte 2)\n")
    assert err == "  scanned 2 graphs\n  scanned 4 graphs\n"


def test_scan_reads_and_writes_one_graph_at_a_time(capsys, tmp_path):
    # the lines are read as records are made, and a CSV row is written as
    # its record arrives: the rows before a graph over the search cap are
    # out when that graph stops the scan
    from critsets.scan import walk_graph6_lines

    lines = iter(["Bw\n", "CN\n"])
    assert next(walk_graph6_lines(lines))[0] == 1
    assert next(lines) == "CN\n"
    path = tmp_path / "big-third.g6"
    path.write_text(f"Bw\nCN\n{emit_graph6(make_path(21))}\nDLs\n")
    code, out, err = run_cli(capsys, "--format", "csv", "scan", str(path), "--check", "prop1")
    assert code == 2 and err.startswith("size limit: ") and len(err.splitlines()) == 1
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["graph6", "Bw", "CN"]


def test_scan_progress_counts_records_only(capsys, tmp_path):
    # a bad line neither counts as a graph nor takes the place of a report
    path = tmp_path / "bad-second.g6"
    path.write_text("Bw\nBAD{{\nCN\n")
    code, _, err = run_cli(capsys, "scan", str(path), "--check", "prop1", "--progress", "1")
    assert code == 0 and err == "  scanned 1 graphs\n  scanned 2 graphs\n"
    path = tmp_path / "bad-third.g6"
    path.write_text("Bw\nCN\nBAD{{\nDLs\n")
    code, out, err = run_cli(capsys, "scan", str(path), "--check", "prop1", "--progress", "3")
    assert code == 0 and out.startswith("check=prop1 graphs=3 ") and err == "  scanned 3 graphs\n"


def test_table_keeps_its_bytes_on_two_workers(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, "--jobs", jobs, "table", "4")
        assert (code, err) == (0, ""), jobs
        outs.append(out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 12


def test_table_rejects_jobs_below_one(capsys):
    code, out, err = run_cli(capsys, "--jobs", "0", "table", "3")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "--jobs" in err


def test_atlas_out_is_opened_before_the_enumeration(capsys, tmp_path, monkeypatch):
    def enumerate_nothing(n):
        raise AssertionError("the atlas was enumerated")

    monkeypatch.setattr("critsets.graphs.atlas_graphs", enumerate_nothing)
    code, out, err = run_cli(capsys, "atlas", "7", "--out", str(tmp_path / "missing" / "x.g6"))
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert err.startswith("error:") and "x.g6" in err


def test_atlas_command(capsys, tmp_path, monkeypatch):
    code, out, _ = run_cli(capsys, "atlas", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 34
    out_file = tmp_path / "n4.g6"
    code, _, _ = run_cli(capsys, "atlas", "4", "--out", str(out_file))
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 11
    code, out, err = run_cli(capsys, "atlas", "9")
    assert code == 2 and out == "" and "size limit" in err
    # a rejected n leaves an existing --out file as it was
    for n, want in (("9", 2), ("-1", 1)):
        code, out, err = run_cli(capsys, "atlas", n, "--out", str(out_file))
        assert (code, out, len(err.splitlines())) == (want, "", 1), n
        assert len(out_file.read_text().splitlines()) == 11, n
    # a graph that graph6 cannot write is a size limit too
    monkeypatch.setattr("critsets.graphs.atlas_graphs", lambda n: [make_empty(258048)])
    code, out, err = run_cli(capsys, "atlas", "1")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "size limit: graph of 258048 vertices is over the graph6 limit of 258047"]


def test_sudoku_gen(capsys):
    code, out, err = run_cli(capsys, "sudoku", "gen", "3")
    assert code == 0
    g = parse_graph6(out.strip())
    assert (g.n, g.m) == (81, 810)
    assert "degree=[20]" in err


def test_sudoku_trials_deterministic(capsys):
    code, out1, err1 = run_cli(capsys, "--seed", "7", "sudoku", "trials", "2", "--count", "10")
    assert code == 0
    code, out2, _ = run_cli(capsys, "--seed", "7", "sudoku", "trials", "2", "--count", "10")
    assert out1 == out2
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["trial", "surviving", "cells"]
    assert len(rows) == 11
    assert "mean=" in err1


def test_sudoku_trials_out_is_opened_before_the_campaign(capsys, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr("critsets.sudoku.trial_campaign", lambda *a, **kw: ran.append(a))
    code, out, err = run_cli(capsys, "sudoku", "trials", "3", "--count", "3000",
                             "--out", str(tmp_path / "missing" / "t.csv"))
    assert (code, out, ran, len(err.splitlines())) == (1, "", [], 1)
    assert err.startswith("error:") and "t.csv" in err
    # a rejected order leaves an existing --out file as it was
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    code, out, err = run_cli(capsys, "sudoku", "trials", "4", "--out", str(kept))
    assert (code, out, ran, len(err.splitlines())) == (1, "", [], 1)
    assert kept.read_text() == "kept\n"


def test_sudoku_mnc(capsys):
    code, out, _ = run_cli(capsys, "sudoku", "mnc", "2")
    assert code == 0
    assert "minimum clues: 4" in out
    code, _, err = run_cli(capsys, "sudoku", "mnc", "3")
    assert code == 1


def test_sudoku_certify(capsys, tmp_path):
    result = mnc_exhaustive(2)
    fair = tmp_path / "fair.txt"
    fair.write_text(format_board(2, result.board.colors, result.clues))
    code, out, _ = run_cli(capsys, "sudoku", "certify", str(fair))
    assert code == 0 and out.strip() == "fair"
    empty = tmp_path / "empty.txt"
    empty.write_text(format_board(2, canonical_board(2).colors, clues=0))
    code, out, _ = run_cli(capsys, "sudoku", "certify", str(empty))
    assert code == 0 and out.startswith("unfair")
    code, _, _ = run_cli(capsys, "sudoku", "certify", str(tmp_path / "missing.txt"))
    assert code == 1
    blank = tmp_path / "blank.txt"
    blank.write_text("")
    code, _, err = run_cli(capsys, "sudoku", "certify", str(blank))
    assert code == 1 and "no board rows" in err
    clash = tmp_path / "clash.txt"  # two 1s in the first row: no board completes it
    clash.write_text("1 1 . .\n. . . .\n. . . .\n. . . .\n")
    code, out, _ = run_cli(capsys, "sudoku", "certify", str(clash))
    assert code == 0 and out == "unfair (no completion)\n"
    code, out, _ = run_cli(capsys, "sudoku", "certify", str(empty), "--cap-extensions", "5")
    assert code == 0 and out.strip() == "unfair (5+ completions)"
    code, out, _ = run_cli(capsys, "sudoku", "certify", str(empty), "--cap-extensions", "500")
    assert code == 0 and out.strip() == "unfair (288 completions)"
    for cap in ("1", "0", "-3"):  # below 2 "unfair" could not be told from "fair"
        code, out, err = run_cli(capsys, "sudoku", "certify", str(empty), "--cap-extensions", cap)
        assert (code, out) == (1, ""), cap
        assert len(err.splitlines()) == 1 and "--cap-extensions" in err, cap
    # the flag belongs to certify alone, not to the global options
    code, out, err = run_cli(capsys, "--cap-extensions", "5", "sudoku", "certify", str(empty))
    assert (code, out, len(err.splitlines())) == (1, "", 1) and err.startswith("error:")


def test_reduce_command(capsys, tmp_path):
    prefix = tmp_path / "inst"
    code, out, _ = run_cli(capsys, "reduce", "ulcs", "complete:3", "--out", str(prefix))
    assert code == 0
    assert "|V(G)|=27" in out and "k=9" in out
    g = parse_graph6((tmp_path / "inst.g6").read_text().strip())
    assert g.n == 27
    roles = json.loads((tmp_path / "inst.roles.json").read_text())
    assert roles["k"] == 9 and len(roles["roles"]) == 27

    code, out, _ = run_cli(capsys, "reduce", "olcs", "path:3")
    assert code == 0 and "|V(G)|=13" in out and "k=8" in out

    code, out, _ = run_cli(capsys, "reduce", "ulcs", "complete:2", "--verify")
    assert code == 0
    assert "consistent=True" in out and "ulcs(G)=4" in out


def test_reduce_out_is_opened_before_the_build(capsys, tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr("critsets.reductions.reduce_ulcs", built.append)
    code, out, err = run_cli(capsys, "reduce", "ulcs", "complete:7",
                             "--out", str(tmp_path / "missing" / "x"))
    assert (code, out, built, len(err.splitlines())) == (1, "", [], 1)
    assert err.startswith("error:") and "x.g6" in err


def test_reduce_verify_caps_h_before_building(capsys, tmp_path, monkeypatch):
    # K21 is over the cap, so the 48744-vertex gadget is never built
    built = []
    monkeypatch.setattr("critsets.reductions.reduce_ulcs", built.append)
    code, out, err = run_cli(capsys, "reduce", "ulcs", "complete:21",
                             "--verify", "--out", str(tmp_path / "g"))
    assert (code, out, built, list(tmp_path.iterdir())) == (2, "", [], [])
    assert err.splitlines() == ["size limit: exact search capped at 20 vertices of H (got 21)"]
    # the option that used to move the cap is gone
    code, out, err = run_cli(capsys, "--max-vertices", "30", "params", "cycle:5")
    assert (code, out, len(err.splitlines())) == (1, "", 1) and err.startswith("error:")


def test_reduce_refuses_named_sources_before_building(capsys, monkeypatch):
    # a named H whose gadget graph6 cannot write is refused from N alone:
    # built, cycle:2000000 would take about 500 GB as adjacency bitsets
    from math import comb

    from critsets.cli import _COUNTS
    from critsets.graphs import connected_components

    # the closed forms give the built graph's counts
    for name, counts in _COUNTS.items():
        for n in range(3 if name == "cycle" else 0, 7):
            h = GENERATORS[name](n)
            largest = max((c.bit_count() for c in connected_components(h)), default=0)
            pairs = sum(comb(len(row), 2) for row in h.neighbor_lists)
            assert counts(n) == (h.n, h.m, pairs, largest), (name, n)
    built = []
    for name in _COUNTS:
        monkeypatch.setitem(GENERATORS, name, built.append)
    for argv, order in ((["ulcs", "cycle:2000000"], 2000000 * 4000002 + 3),
                        (["olcs", "complete:100000"],
                         2 * comb(100000, 2) + (2 * comb(100000, 2) + 2) * 100000 * comb(99999, 2) + 3)):
        code, out, err = run_cli(capsys, "reduce", *argv)
        assert (code, out, built) == (2, "", []), argv
        assert err.splitlines() == [
            f"size limit: {argv[0]} gadget of {order} vertices is over the graph6 limit of 258047"]


def test_params_caps_named_sources_before_building(capsys, monkeypatch):
    # a connected named source over the cap is refused from N alone: built,
    # cycle:100000 and complete:300000 would take Theta(N^2) bits first
    built = []
    for name in ("cycle", "complete", "path", "latin"):
        monkeypatch.setitem(GENERATORS, name, built.append)
    for source, order in (("cycle:100000", 100000), ("complete:300000", 300000),
                          ("path:21", 21), ("latin:5", 25)):
        code, out, err = run_cli(capsys, "params", source)
        assert (code, out, built) == (2, "", []), source
        assert err.splitlines() == [
            f"size limit: exact search capped at 20 vertices per component (got {order})"]
    # reduce keeps its own caps on H, so its loader builds any size
    monkeypatch.undo()
    assert load_graph_source("complete:30").n == 30
    # memory that runs out anyway leaves as a size limit
    def exhausted(n):
        raise MemoryError

    monkeypatch.setitem(GENERATORS, "empty", exhausted)
    code, out, err = run_cli(capsys, "params", "empty:100000")
    assert (code, out, err) == (2, "", "size limit: out of memory\n")


def test_reduce_checks_gadget_size_before_building(capsys, tmp_path, monkeypatch):
    # K33's min-lcs gadget would have 296772 vertices, more than graph6
    # can write, so it is refused from the formula, with or without --verify
    built = []
    monkeypatch.setattr("critsets.reductions.reduce_ulcs", built.append)
    monkeypatch.setattr("critsets.reductions.reduce_olcs", built.append)
    for argv in (["ulcs", "complete:33"], ["ulcs", "complete:33", "--verify"],
                 ["olcs", "complete:15"]):
        code, out, err = run_cli(capsys, "reduce", *argv, "--out", str(tmp_path / "g"))
        assert (code, out, built, list(tmp_path.iterdir())) == (2, "", [], []), argv
        assert len(err.splitlines()) == 1 and "over the graph6 limit" in err, argv


def test_undecodable_input_and_stray_exceptions(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x80")
    for argv in (["scan", str(bad), "--check", "prop1"], ["params", str(bad)],
                 ["sudoku", "certify", str(bad)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error:"), argv

    # an exception from outside the package is a bug: exit 3, one line
    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("critsets.cli.four_params", broken)
    code, out, err = run_cli(capsys, "params", "cycle:5")
    assert code == 3 and out == ""
    assert err.splitlines() == ["invariant breach: ZeroDivisionError: division by zero"]


def test_scan_rejects_jobs_below_one(capsys, tmp_path):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    for jobs in ("0", "-2"):
        code, out, err = run_cli(capsys, "--jobs", jobs, "scan", str(path), "--check", "prop1")
        assert code == 1 and out == "", jobs
        assert len(err.splitlines()) == 1 and "--jobs" in err, jobs
    code, out, _ = run_cli(capsys, "--jobs", "1", "scan", str(path), "--check", "prop1")
    assert code == 0 and "graphs=1" in out


def test_usage_errors_exit_1_with_one_line(capsys):
    # argparse's own errors leave as input errors, not with its exit 2 (the
    # size-limit code) and a usage line; --help still prints and exits 0
    for argv in ([], ["params"], ["nosuch"], ["--jobs", "x", "table", "3"],
                 ["reduce", "xx", "cycle:3"], ["sudoku", "mnc", "--k", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, len(err.splitlines())) == (1, "", 1), argv
        assert err.startswith("error: critsets"), argv
    assert run_cli(capsys, "params")[2] == (
        "error: critsets params: the following arguments are required: source\n")
    # a subcommand's flag before the subcommand is named, not its value
    # taken for the subcommand; global flags there keep working
    for argv in (["--cap-extensions", "5", "sudoku", "certify", "f"],
                 ["--seed", "1", "--cap-extensions", "5", "sudoku", "certify", "f"],
                 ["sudoku", "--cap-extensions", "5", "certify", "f"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, len(err.splitlines())) == (1, "", 1), argv
        assert err.endswith(": unrecognized argument before the subcommand: --cap-extensions\n"), argv
    assert run_cli(capsys, "--seed", "1", "--format", "csv", "params", "empty:1")[:2] == (
        0, "source,n,m,chi,k,uscs,oscs,ulcs,olcs\r\nempty:1,1,0,1,1,0,0,0,0\r\n")
    with pytest.raises(SystemExit) as exc:
        main(["params", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: critsets params")


@pytest.mark.skipif(_usable_cpus() < 2, reason="a pool of 2 needs 2 usable CPUs")
def test_parallel_scan_reads_a_bounded_number_of_lines_ahead():
    # a pool of 2 holds at most 4 chunks of 16 lines beyond the one being
    # yielded, however long the consumer waits; records keep input order,
    # and a consumer that stops early closes the pool
    import multiprocessing

    pulled = 0

    def lines():
        nonlocal pulled
        for _ in range(5000):
            pulled += 1
            yield "Bw\n"

    walk = walk_graph6_lines(lines(), 2)
    assert next(walk)[0] == 1
    time.sleep(0.3)  # a feeder thread would read ahead meanwhile
    assert pulled <= 5 * 16
    assert [next(walk)[0] for _ in range(99)] == list(range(2, 101))
    assert pulled <= 100 + 5 * 16
    walk.close()
    assert not multiprocessing.active_children()


def test_scan_pool_is_capped_at_the_usable_cpus(capsys, monkeypatch):
    # a fake pool records its size and maps in process, so no worker is
    # started; --jobs above the usable CPUs (the affinity mask, else the
    # CPU count) gets one worker per CPU, and a count of 1 (or an unknown
    # one) runs in process with no pool
    import multiprocessing

    from critsets.scan import walk_graph6_lines

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map_async(self, func, tasks, chunksize=None):
            results = list(map(func, tasks))
            return SimpleNamespace(get=lambda: results)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    lines = ["Bw\n", "\n", "C~\n", "not graph6\n"]
    serial = list(walk_graph6_lines(lines, 1))
    # a mask of 3 CPUs out of 8: the mask counts
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 4, 6}, raising=False)
    for jobs, pool in ((100000, [3]), (2, [2]), (1, [])):
        del sizes[:]
        assert list(walk_graph6_lines(lines, jobs)) == serial, jobs
        assert sizes == pool, jobs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    del sizes[:]
    assert list(walk_graph6_lines(iter(lines), 100000)) == serial and sizes == []
    # with no affinity call the CPU count counts
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus, jobs, pool in ((3, 100000, [3]), (3, 2, [2]), (1, 100000, []),
                             (None, 100000, []), (3, 1, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        del sizes[:]
        assert list(walk_graph6_lines(lines, jobs)) == serial, (cpus, jobs)
        assert sizes == pool, (cpus, jobs)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    del sizes[:]
    code, out, err = run_cli(capsys, "--jobs", "100000", "table", "3")
    assert (code, err, sizes) == (0, "", [2])
    assert out == run_cli(capsys, "--jobs", "1", "table", "3")[1]


def test_reduce_verify_rejects_samples_below_one(capsys, tmp_path):
    # rejected before the gadget is built: no header, no --out files
    prefix = str(tmp_path / "g")
    for variant in ("ulcs", "olcs"):
        for samples in ("0", "-3"):
            code, out, err = run_cli(capsys, "reduce", variant, "complete:4", "--verify",
                                     "--samples", samples, "--out", prefix)
            assert code == 1 and out == "", (variant, samples)
            assert len(err.splitlines()) == 1 and "samples" in err, (variant, samples)
            assert list(tmp_path.iterdir()) == [], (variant, samples)
        code, out, _ = run_cli(capsys, "reduce", variant, "complete:4", "--verify",
                               "--samples", "1")
        if variant == "ulcs":
            assert code == 0 and "consistent=True: 1 sampled" in out
        else:  # one sample already breaks the max-lcs theorem on K4 (see reduce_olcs)
            assert code == 3 and "consistent=False: certified critical set of size 174 " in out
