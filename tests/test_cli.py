from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modlat.analysis
import modlat.corpus
from modlat import cli
from modlat.algebra import parse_group, subgroup_lattice
from modlat.analysis import Verdict
from modlat.cli import main
from modlat.corpus import (
    m_n,
    seven_point_lattice,
    seven_point_lines,
    seven_point_poset,
    standard_corpus,
)
from modlat.lattice import lattice_from_json, lattice_to_json
from modlat.pls import pls_from_json
from modlat.wildcard import GroundPoset, enumerate_ideals, rowset_to_json

from oracles import (
    enumeration_input,
    fano_pls,
    pls_to_json,
    poset_to_json,
    random_lines,
    random_poset_covers,
)


@pytest.fixture
def files(tmp_path):
    """The stock input files, written once per test."""
    poset = seven_point_poset()
    labels = poset.labels
    out = {
        "poset": tmp_path / "poset.json",
        "lines": tmp_path / "lines.json",
        "m3": tmp_path / "m3.json",
        "seven": tmp_path / "seven.json",
        "z2cubed": tmp_path / "z2cubed.json",
        "fano": tmp_path / "fano.json",
        "sets": tmp_path / "sets.txt",
    }
    out["poset"].write_text(json.dumps(poset_to_json(poset)))
    out["lines"].write_text(
        json.dumps({"lines": [[labels[p] for p in ln] for ln in seven_point_lines()]})
    )
    out["m3"].write_text(json.dumps(lattice_to_json(m_n(3))))
    out["seven"].write_text(json.dumps(lattice_to_json(seven_point_lattice())))
    out["z2cubed"].write_text(
        json.dumps(lattice_to_json(subgroup_lattice(parse_group("2,2,2"))))
    )
    out["fano"].write_text(json.dumps(pls_to_json(fano_pls())))
    out["sets"].write_text("100\n010\n001\n")
    return {k: str(v) for k, v in out.items()}


# -- start-up ----------------------------------------------------------------


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports this checkout's
    modlat, and return its stdout."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_neither_dataclasses_nor_inspect():
    # the value types are NamedTuples and plain classes; `dataclasses`
    # alone cost about a third of the import, and it pulls in `inspect`
    code = (
        "import sys; before = set(sys.modules); import modlat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    assert _run_fresh(code) == "[]\n"


def test_import_and_each_command_load_only_their_own_modules(files):
    # every command is a fresh process, so `import modlat.cli` loads only
    # `lattice`, and a command adds the modules it runs
    code = f"""
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("modlat"))
import modlat.cli
steps = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    steps.append(modlat.cli.main(["subgroup-lattice", "--group", "2,2", "--count"]))
    steps.append(loaded())
    steps.append(modlat.cli.main(["bol", "--lattice", {files["m3"]!r}]))
    steps.append(loaded())
print(json.dumps(steps))
"""
    imported, code_sub, after_sub, code_bol, after_bol = json.loads(_run_fresh(code))
    assert imported == ["modlat", "modlat.cli", "modlat.lattice"]
    assert code_sub == 0 and after_sub == ["modlat", "modlat.algebra", "modlat.cli", "modlat.lattice"]
    assert code_bol == 0 and "modlat.bol" in after_bol and "modlat.pls" in after_bol
    skipped = {"modlat.analysis", "modlat.wildcard", "modlat.rebuild", "modlat.corpus"}
    assert not skipped & set(after_bol)


def test_error_bases_keep_their_old_import_paths_and_identity():
    # `main` catches these four from `lattice`; each layer re-exports its own
    import modlat.lattice
    import modlat.pls
    import modlat.rebuild
    import modlat.wildcard

    assert modlat.pls.PlsError is modlat.lattice.PlsError
    assert modlat.wildcard.WildcardError is modlat.lattice.WildcardError
    assert modlat.rebuild.NotAClosureSystem is modlat.lattice.NotAClosureSystem
    assert issubclass(modlat.pls.TwoPointIntersection, modlat.lattice.PlsError)
    assert issubclass(modlat.wildcard.ExpansionCapExceeded, modlat.lattice.WildcardError)


# -- enumerate -------------------------------------------------------------


def test_enumerate_count(files, capsys):
    assert main(["enumerate", "--poset", files["poset"], "--lines", files["lines"], "--count"]) == 0
    assert capsys.readouterr().out.strip() == "13"


def test_enumerate_expand(files, capsys):
    assert main(["enumerate", "--poset", files["poset"], "--lines", files["lines"], "--expand"]) == 0
    rows = capsys.readouterr().out.split()
    assert len(rows) == 13
    assert rows == sorted(rows)
    assert all(len(r) == 7 and set(r) <= {"0", "1"} for r in rows)


def test_enumerate_expand_on_a_zero_width_poset_prints_one_empty_line(tmp_path, capsys):
    # the empty set is the one ideal of no points, and its string is empty
    poset = tmp_path / "empty.json"
    poset.write_text(json.dumps({"points": []}))
    assert main(["enumerate", "--poset", str(poset), "--expand"]) == 0
    assert capsys.readouterr() == ("\n", "")


def test_enumerate_expand_stops_past_the_cap_in_total(tmp_path, capsys):
    # 9 disjoint Λs (a, b below c) have 5^9 = 1,953,125 ideals, spread over
    # rows that each stay under the cap; the total stops the listing first
    k = 9
    poset = tmp_path / "lambdas.json"
    poset.write_text(json.dumps({
        "points": [f"{c}{i}" for i in range(k) for c in "abc"],
        "covers": [[f"{c}{i}", f"c{i}"] for i in range(k) for c in "ab"],
    }))
    start = time.perf_counter()
    assert main(["enumerate", "--poset", str(poset), "--expand"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ExpansionCapExceeded: rows denote 1953125 > cap 1000000\n"


def test_enumerate_text_and_out(files, capsys, tmp_path):
    out = str(tmp_path / "rows.json")
    assert main(["enumerate", "--poset", files["poset"], "--lines", files["lines"], "--out", out]) == 0
    text = capsys.readouterr().out
    assert "total 13 in 6 rows" in text
    rows = enumerate_ideals(seven_point_poset(), seven_point_lines())
    assert json.loads(Path(out).read_text()) == rowset_to_json(rows)


@pytest.fixture
def long_chain(tmp_path):
    """A chain of 2100 points, deeper than the default recursion limit."""
    path = tmp_path / "chain.json"
    points = [f"c{k}" for k in range(2100)]
    path.write_text(json.dumps({"points": points, "covers": list(zip(points, points[1:]))}))
    return str(path)


def test_enumerate_counts_the_ideals_of_a_long_chain(long_chain, capsys):
    assert main(["enumerate", "--poset", long_chain, "--count"]) == 0
    assert capsys.readouterr().out == "2101\n"


def test_enumerate_stats_go_to_stderr_as_json(files, capsys, tmp_path):
    argv = ["enumerate", "--poset", files["poset"], "--lines", files["lines"]]
    assert main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "stats.json"), "--stats"]) == 0
    got = capsys.readouterr()
    assert got.out == plain.out
    assert plain.err == ""
    assert (tmp_path / "stats.json").read_text() == (tmp_path / "plain.json").read_text()
    stats = json.loads(got.err)
    assert set(stats) == {
        "seeds", "impositions", "noop_impositions", "skipped", "split_sizes",
        "split_bound_violations", "dead_rows", "pruned_rows", "merges", "peak_stack",
    }
    assert stats["seeds"] == 2
    assert stats["impositions"] == sum(stats["split_sizes"].values()) > 0
    assert 0 <= stats["noop_impositions"] <= stats["split_sizes"].get("1", 0)
    assert stats["split_bound_violations"] == 0
    assert stats["merges"] >= 1


def test_enumerate_without_lines(files, capsys):
    assert main(["enumerate", "--poset", files["poset"], "--count"]) == 0
    assert capsys.readouterr().out.strip() == "45"


def test_unknown_label_in_lines_exits_2_naming_it(files, capsys, tmp_path):
    lines = tmp_path / "lines.json"
    lines.write_text(json.dumps({"lines": [["p1", "zz"]]}))
    for cmd in ("enumerate", "rebuild"):
        assert main([cmd, "--poset", files["poset"], "--lines", str(lines)]) == 2
        err = capsys.readouterr().err
        assert err == "ValueError: line names unknown point 'zz'\n", cmd


def test_unknown_label_in_covers_exits_2_naming_it(capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"points": ["a", "b"], "covers": [["a", "zz"]]}))
    for cmd in ("enumerate", "rebuild"):
        assert main([cmd, "--poset", str(poset)]) == 2
        err = capsys.readouterr().err
        assert err == "ValueError: cover names unknown point 'zz'\n", cmd


def test_poset_cover_repeated_counts_once_and_implied_exits_2(capsys, tmp_path):
    # a repeated or an implied cover once changed the rows of the same poset;
    # a bad cover is reported in the labels the file uses
    poset = tmp_path / "poset.json"
    runs = []
    for covers in ([["a", "b"], ["b", "c"]], [["a", "b"], ["b", "c"], ["a", "b"]]):
        poset.write_text(json.dumps({"points": ["a", "b", "c"], "covers": covers}))
        for cmd in ("enumerate", "rebuild"):
            assert main([cmd, "--poset", str(poset)]) == 0
            runs.append(capsys.readouterr())
    assert runs[:2] == runs[2:]
    assert runs[0].out.startswith("r1:  1  1  2  ; count=2\nr2:  2  0  0  ; count=2\n")
    for covers, err in [([["a", "b"], ["b", "c"], ["a", "c"]], "cover (a,c) is implied"),
                        ([["a", "b"], ["c", "c"]], "self-loop at c")]:
        poset.write_text(json.dumps({"points": ["a", "b", "c"], "covers": covers}))
        for cmd in ("enumerate", "rebuild"):
            assert main([cmd, "--poset", str(poset)]) == 2
            assert capsys.readouterr() == ("", f"ValueError: {err}\n"), cmd


def _missing_key_error(capsys, argv, key):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{key}'" in err, err
    assert "KeyError" not in err


def test_poset_without_points_exits_2_naming_the_key(capsys, tmp_path):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"covers": []}))
    for cmd in ("enumerate", "rebuild"):
        _missing_key_error(capsys, [cmd, "--poset", str(poset)], "points")


def test_poset_with_a_repeated_point_name_exits_2(capsys, tmp_path):
    # otherwise the cover would resolve "a" to its last point, (2, 1)
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"points": ["a", "b", "a"], "covers": [["a", "b"]]}))
    for cmd in ("enumerate", "rebuild"):
        assert main([cmd, "--poset", str(poset)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ValueError:") and "'a'" in err


def test_lattice_with_a_repeated_element_name_exits_2(capsys, tmp_path):
    # otherwise `localize ... x` would resolve "x" to its first element
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"names": ["0", "x", "x", "1"],
                                   "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
    for argv in (["localize", "--lattice", str(lattice), "x", "1"],
                 ["analyze", "--lattice", str(lattice)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ValueError:") and "'x'" in err


def test_lines_without_lines_exits_2_naming_the_key(files, capsys, tmp_path):
    lines = tmp_path / "lines.json"
    lines.write_text(json.dumps({"line": []}))
    for cmd in ("enumerate", "rebuild"):
        _missing_key_error(capsys, [cmd, "--poset", files["poset"], "--lines", str(lines)], "lines")


def test_lattice_without_covers_exits_2_naming_the_key(capsys, tmp_path):
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps({"names": ["a"]}))
    for cmd in ("analyze", "bol"):
        _missing_key_error(capsys, [cmd, "--lattice", str(lattice)], "covers")


# -- rebuild ---------------------------------------------------------------


def test_rebuild_summary(files, capsys, tmp_path):
    out = str(tmp_path / "lat.json")
    rc = main(["rebuild", "--poset", files["poset"], "--lines", files["lines"], "--out", out])
    assert rc == 0
    got = capsys.readouterr().out.strip()
    assert got == "13 elements, 7 join-irreducibles, 3 line intervals, roundtrip ok"
    assert lattice_from_json(json.loads(Path(out).read_text())).n == 13


def test_rebuild_of_a_long_chain_exits_2_past_the_cap(long_chain, capsys):
    assert main(["rebuild", "--poset", long_chain]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CapExceeded: at least 2101 lattice elements, ")
    assert len(err.strip().splitlines()) == 1


def test_rebuild_reports_a_failed_roundtrip(files, capsys, monkeypatch):
    # the first enumeration builds the lattice; the roundtrip's second one
    # is doctored to lose its last row
    import modlat.rebuild

    real = modlat.rebuild.enumerate_ideals
    calls = []

    def second_drops_a_row(poset, lines):
        rows = real(poset, lines)
        calls.append(rows)
        return rows if len(calls) == 1 else rows._replace(rows=rows.rows[:-1])

    monkeypatch.setattr(modlat.rebuild, "enumerate_ideals", second_drops_a_row)
    rc = main(["rebuild", "--poset", files["poset"], "--lines", files["lines"]])
    assert len(calls) == 2
    assert rc == 1
    got = capsys.readouterr().out.strip()
    assert got == "13 elements, 7 join-irreducibles, 3 line intervals, roundtrip FAILED"


def test_rebuild_dot(files, capsys):
    assert main(["rebuild", "--poset", files["poset"], "--lines", files["lines"], "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


# -- analyze and verify -----------------------------------------------------


def test_analyze_m3(files, capsys, tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["analyze", "--lattice", files["m3"], "--out", out]) == 0
    text = capsys.readouterr().out
    assert "j (join-irreducibles) 3" in text
    assert "[FAIL]" not in text
    data = json.loads(Path(out).read_text())
    assert data["j"] == 3 and data["acyclic"] is True


def test_analyze_decides_local_acyclicity_past_the_cap(tmp_path, capsys):
    # Z4 x Z8 has 9216 bases of lines, more than the default cap of 1000
    lat = tmp_path / "z4z8.json"
    lat.write_text(json.dumps(lattice_to_json(subgroup_lattice(parse_group("4,8")))))
    assert main(["analyze", "--lattice", str(lat)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    k = lines.index("locally acyclic       yes")
    assert lines[k + 1 :][-3:] == [
        "[pass] locally acyclic interval identity: i=8 = delta-s+r*=8",
        "[pass] locally acyclic point bound: j=13 >= i+delta=13",
        "[pass] locally acyclic point identity: j=13 = i+delta=13",
    ]


def test_verify_runs_clean(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "33 lattices, 0 failing checks"
    assert all(line.startswith("ok") for line in lines[:-1])


def test_verify_lists_each_failing_check_and_exits_1(monkeypatch, capsys):
    # a suite of two checks whose second fails on the first lattice only
    seen = []

    def suite(L):
        seen.append(L)
        return Verdict("fine", True, "held"), Verdict("made up", len(seen) > 1, "broken")

    monkeypatch.setattr(modlat.analysis, "verdict_suite", suite)
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    names = [name for name, _ in standard_corpus()]
    assert lines[:2] == [f"FAIL {names[0]} (2 checks)", "     [FAIL] made up: broken"]
    assert lines[2:-1] == [f"ok   {name} (2 checks)" for name in names[1:]]
    assert lines[-1] == "33 lattices, 1 failing checks"


def test_a_key_error_inside_a_command_propagates(monkeypatch):
    # every reader names a missing key in a ValueError (see
    # `_missing_key_error`), so a KeyError is a fault of the program, not
    # bad input, and main does not turn it into exit 2
    def broken():
        raise KeyError("not an input key")

    monkeypatch.setattr(modlat.corpus, "standard_corpus", broken)
    with pytest.raises(KeyError):
        main(["verify"])


# -- bases of lines -----------------------------------------------------------


def test_bol_m3(files, capsys):
    assert main(["bol", "--lattice", files["m3"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "{m1, m2, m3} top 1"
    assert lines[1] == "3 points, 1 lines, 1 components"


def test_bol_all_bases(files, capsys):
    assert main(["bol", "--lattice", files["seven"], "--all-bols"]) == 0
    assert capsys.readouterr().out.strip() == "4 bases; r* values [0]"


def test_bol_all_bases_prints_the_exact_count(tmp_path, capsys):
    # the count is the product of the witness counts, exact past 1e95,
    # and every base has the canonical base's r*; no base is listed
    lat = tmp_path / "z32z32.json"
    lat.write_text(json.dumps(lattice_to_json(subgroup_lattice(parse_group("32,32")))))
    assert main(["bol", "--lattice", str(lat), "--all-bols"]) == 0
    count = ("63750218024911017492143277448629900318480846562159980547907128554789273600"
             "0000000000000000000000")
    assert len(count) == 96
    assert capsys.readouterr().out == f"{count} bases; r* values [74]\n"


def test_bol_out_feeds_rstar(files, capsys, tmp_path):
    out = str(tmp_path / "bol.json")
    assert main(["bol", "--lattice", files["z2cubed"], "--out", out]) == 0
    capsys.readouterr()
    assert main(["rstar", out]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_bol_out_lists_point_ids_ascending(tmp_path, capsys):
    # JSON lists point ids as ints, ascending, in the points and in each line
    lat, out = tmp_path / "z2z2z4.json", tmp_path / "bol.json"
    lat.write_text(json.dumps(lattice_to_json(subgroup_lattice(parse_group("2,2,4")))))
    assert main(["bol", "--lattice", str(lat), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("11 points, 13 lines, 1 components")
    assert json.loads(out.read_text()) == {
        "points": [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14],
        "lines": [
            [1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7], [3, 5, 6],
            [2, 8, 10], [4, 8, 12], [6, 8, 14], [2, 12, 14], [4, 10, 14], [6, 10, 12],
        ],
        "tops": [9, 11, 13, 15, 16, 17, 18, 19, 20, 21, 23, 24, 25],
        "bottoms": [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
    }


def test_bol_all_bols_out_writes_the_canonical_base(files, capsys, tmp_path):
    # --out writes what plain `bol --out` writes, whatever the command prints
    plain, counted = tmp_path / "plain.json", tmp_path / "counted.json"
    assert main(["bol", "--lattice", files["z2cubed"], "--out", str(plain)]) == 0
    capsys.readouterr()
    assert main(["bol", "--lattice", files["z2cubed"], "--all-bols", "--out", str(counted)]) == 0
    assert capsys.readouterr().out == "1 bases; r* values [8]\n"
    assert counted.read_bytes() == plain.read_bytes()


def test_rstar_of_the_bol_file_is_rstar_of_the_lattice(capsys, tmp_path):
    lat, out = tmp_path / "lattice.json", tmp_path / "bol.json"
    for name, L in standard_corpus():
        lat.write_text(json.dumps(lattice_to_json(L)))
        assert main(["bol", "--lattice", str(lat), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["rstar", str(out)]) == 0
        from_file = capsys.readouterr().out
        assert main(["rstar", "--lattice", str(lat)]) == 0
        assert capsys.readouterr().out == from_file, name


# -- localize -----------------------------------------------------------------


def test_localize_by_name(files, capsys):
    assert main(["localize", "--lattice", files["m3"], "m1", "1"]) == 0
    got = capsys.readouterr().out.strip().splitlines()
    assert got == ["{m2, m3}", "2 points, 1 lines, 1 components, acyclic"]


def test_localize_coatom_covering_is_cyclic(files, capsys, tmp_path):
    out = str(tmp_path / "loc.json")
    assert main(["localize", "--lattice", files["z2cubed"], "--out", out, "8", "15"]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary == "4 points, 6 lines, 1 components, cyclic"
    P = pls_from_json(json.loads(Path(out).read_text()))
    assert len(P.points) == 4 and len(P.lines) == 6
    assert main(["rstar", out]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_localize_rejects_bad_elements(files, capsys):
    assert main(["localize", "--lattice", files["m3"], "nope", "1"]) == 2
    assert "ValueError: no element named 'nope'" in capsys.readouterr().err
    assert main(["localize", "--lattice", files["m3"], "99", "1"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_localize_rejects_non_covering(files, capsys):
    assert main(["localize", "--lattice", files["m3"], "0", "1"]) == 2
    assert "NotACovering" in capsys.readouterr().err


# -- algebra commands ----------------------------------------------------------


def test_subgroup_lattice_outputs(files, capsys, tmp_path):
    assert main(["subgroup-lattice", "--group", "2,2,2"]) == 0
    assert capsys.readouterr().out.strip() == "Z2xZ2xZ2: 16 subgroups"

    assert main(["subgroup-lattice", "--group", "2,2,2", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "16"

    assert main(["subgroup-lattice", "--group", "2,2,2", "--analyze"]) == 0
    text = capsys.readouterr().out
    assert "j (join-irreducibles) 7" in text
    assert "acyclic               no" in text
    assert "[FAIL]" not in text

    out = str(tmp_path / "grp.json")
    assert main(["subgroup-lattice", "--group", "4,4", "--out", out, "--count"]) == 0
    capsys.readouterr()
    assert lattice_from_json(json.loads(Path(out).read_text())).n == 15


def test_main_reuses_the_parser_built_at_import(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("main built a parser of its own")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    for _ in range(2):
        assert main(["subgroup-lattice", "--group", "2,2", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "5"


def test_analyze_and_subgroup_lattice_analyze_exit_1_on_a_failing_verdict(
        files, monkeypatch, capsys):
    real = modlat.analysis.params

    def failing(L):
        rep = real(L)
        return rep._replace(verdicts=rep.verdicts + (Verdict("made up", False, "broken"),))

    monkeypatch.setattr(modlat.analysis, "params", failing)
    for argv in (["analyze", "--lattice", files["m3"]],
                 ["subgroup-lattice", "--group", "2,2", "--analyze"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().out.endswith("\n[FAIL] made up: broken\n"), argv


def test_subgroup_lattice_dot(capsys):
    assert main(["subgroup-lattice", "--group", "8", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_subgroup_lattice_caps_the_work(capsys):
    # |G| = 256 passes the order cap, but Z2^8 has 417199 subgroups
    assert main(["subgroup-lattice", "--group", "2,2,2,2,2,2,2,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CapExceeded: ") and len(err.strip().splitlines()) == 1


def test_lattices_past_the_size_cap_exit_2_fast(tmp_path, capsys):
    # 2^16 closed ideals for the identity matrix and the antichain, 2825 subgroups of Z2^6
    sets = tmp_path / "identity16.txt"
    sets.write_text("".join("0" * k + "1" + "0" * (15 - k) + "\n" for k in range(16)))
    poset = tmp_path / "antichain16.json"
    poset.write_text(json.dumps({"points": [f"p{k}" for k in range(16)], "covers": []}))
    for argv in (
        ["distributive", "--sets", str(sets)],
        ["subgroup-lattice", "--group", "2,2,2,2,2,2"],
        ["rebuild", "--poset", str(poset)],
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1, argv
        err = capsys.readouterr().err
        assert err.startswith("CapExceeded: ") and len(err.strip().splitlines()) == 1


def test_distributive_command(files, capsys):
    assert main(["distributive", "--sets", files["sets"]]) == 0
    assert capsys.readouterr().out.strip() == "3 generators, 3 join-irreducibles, 8 elements"
    assert main(["distributive", "--sets", files["sets"], "--count"]) == 0
    assert capsys.readouterr().out.strip() == "8"


# -- rstar and witnesses -----------------------------------------------------


def test_rstar_of_fano(files, capsys):
    assert main(["rstar", files["fano"]]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["rstar", "--lattice", files["z2cubed"]]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_rstar_needs_an_input(capsys):
    assert main(["rstar"]) == 2
    assert "needs --lattice or a point-line JSON" in capsys.readouterr().err


def test_rstar_refuses_both_inputs(files, capsys):
    # neither input may be silently ignored
    assert main(["rstar", files["fano"], "--lattice", files["m3"]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "rstar needs --lattice or a point-line JSON file, not both\n"


def test_witness_triangle(files, capsys):
    assert main(["witness-triangle", "--lattice", files["z2cubed"], "--count"]) == 0
    assert capsys.readouterr().out.strip() == "84"

    assert main(["witness-triangle", "--lattice", files["z2cubed"]]) == 0
    text = capsys.readouterr().out
    assert text.startswith("triangle lines:")
    assert "corners " in text and "; contacts " in text
    assert "cyclic localization at covering" in text

    assert main(["witness-triangle", "--lattice", files["m3"]]) == 0
    assert capsys.readouterr().out.strip() == "no triangle configurations"


def test_witness_triangle_count_on_z3_to_the_4th(tmp_path, capsys):
    # counted per triangle, without listing the 112,320 configurations
    lat = tmp_path / "z3z3z3z3.json"
    lat.write_text(json.dumps(lattice_to_json(subgroup_lattice(parse_group("3,3,3,3")))))
    assert main(["witness-triangle", "--lattice", str(lat), "--count"]) == 0
    assert capsys.readouterr().out.strip() == "112320"


# -- error handling -------------------------------------------------------


def test_missing_file_is_a_usage_error(capsys):
    assert main(["analyze", "--lattice", "/nonexistent/lat.json"]) == 2
    assert capsys.readouterr().err


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--lattice", str(bad)]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag,content",
    [
        ("enumerate", "--lines", {"lines": [[0, 99, 1]]}),
        ("rebuild", "--lines", {"lines": [[0, 99, 1]]}),
        ("enumerate", "--lines", [[-1, 0, 1]]),
        ("rebuild", "--lines", [[-1, 0, 1]]),
        ("analyze", "--lattice", [[0, 1]]),
        ("enumerate", "--poset", []),
        ("rstar", None, [[0, 1]]),
        ("enumerate", "--poset", {"points": 5}),
        ("enumerate", "--lines", {"lines": [5]}),
    ],
)
def test_malformed_input_is_a_usage_error(files, tmp_path, capsys, command, flag, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    argv = [command, flag, str(bad)] if flag else [command, str(bad)]
    if flag == "--lines":
        argv += ["--poset", files["poset"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "ValueError" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--lattice", "{deep}"],
        ["bol", "--lattice", "{deep}"],
        ["localize", "--lattice", "{deep}", "0", "1"],
        ["rstar", "{deep}"],
        ["rstar", "--lattice", "{deep}"],
        ["witness-triangle", "--lattice", "{deep}"],
        ["enumerate", "--poset", "{deep}"],
        ["enumerate", "--poset", "{poset}", "--lines", "{deep}"],
        ["rebuild", "--poset", "{deep}"],
        ["rebuild", "--poset", "{poset}", "--lines", "{deep}"],
    ],
    ids=["analyze", "bol", "localize", "rstar-file", "rstar-lattice", "witness-triangle",
         "enumerate-poset", "enumerate-lines", "rebuild-poset", "rebuild-lines"],
)
def test_deeply_nested_json_is_a_usage_error(files, tmp_path, capsys, argv):
    # the JSON decoder recurses once per nesting level, so this once raised
    # RecursionError out of `main`, a traceback with exit status 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main([arg.format(deep=deep, **files) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"ValueError: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--lattice", "{m3}"],
        ["subgroup-lattice", "--group", "2,2", "--analyze"],
        ["verify"],
        # the count of bases is a product, so no base is listed
        ["bol", "--lattice", "{m3}", "--all-bols"],
    ],
    ids=lambda argv: argv[0],
)
def test_cap_is_gone_where_no_bases_are_sampled(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**files) for arg in argv] + ["--cap", "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --cap 5" in err


def test_set_system_with_a_stray_character_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "sets.txt"
    bad.write_text("0x\n")
    assert main(["distributive", "--sets", str(bad)]) == 2
    assert "ValueError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,content,err",
    [
        (["analyze", "--lattice"], {"covers": [[False, True]]},
         "cover [False, True] holds False, not an element index"),
        (["enumerate", "--poset"], {"points": ["a", "b"], "covers": [[0, True]]},
         "cover names unknown point 'True'"),
        (["enumerate", "--poset", "{poset}", "--lines"], {"lines": [[0, True, 2]]},
         "line names unknown point 'True'"),
        (["rstar"], {"points": [1, 1, 2], "lines": [[1, 2]]},
         "point-line JSON names point 1 more than once"),
        (["rstar"], {"points": [1, True, 2], "lines": [[1, 2]]},
         "point-line JSON holds True, which is neither an int nor a string"),
        (["rstar"], {"points": [1, 2, 3], "lines": [[1, 1, 2], [2, 3]]},
         "point-line JSON line [1, 1, 2] names point 1 more than once"),
        (["enumerate", "--poset", "{poset}", "--lines"],
         {"lines": [["p1", "p1", "p2", "p3"], ["p1", "p5", "p6"], ["p4", "p6", "p7"]]},
         "line names point 'p1' more than once"),
    ],
    ids=["lattice", "poset", "lines", "pls-repeat", "pls-bool", "pls-line-repeat",
         "lines-repeat"],
)
def test_json_booleans_and_repeated_points_exit_2_naming_them(files, tmp_path, capsys, argv,
                                                                content, err):
    # isinstance(True, int) holds, so a JSON boolean once passed for an index
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    assert main([arg.format(**files) for arg in argv] + [str(bad)]) == 2
    assert capsys.readouterr() == ("", f"ValueError: {err}\n")


# every CLI reader on mutated copies of valid files: exit 0 or 2, one line
FUZZ_VALUES = [None, True, -1, 0, 2, 10**12, 1.5, "", "x", [], [0], [[0, 1]], {}, {"a": 1}]


def _fuzz_json(rng, data):
    """A copy of `data`, a non-empty object or array, with one node
    replaced, deleted or duplicated, or a stray value in its place."""
    data = json.loads(json.dumps(data))
    if rng.random() < 0.1:
        return rng.choice(FUZZ_VALUES)
    node = data
    while True:
        key = rng.choice(range(len(node)) if isinstance(node, list) else list(node))
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
            node = child
            continue
        action = rng.randrange(3)
        if action == 0:
            node[key] = rng.choice(FUZZ_VALUES)
        elif action == 1:
            del node[key]
        elif isinstance(node, list):
            node.insert(key, child)
        else:
            node[key] = [child, child]
        return data


def _fuzz_text(rng, text):
    """`text` with one character deleted, inserted or replaced."""
    k = rng.randrange(len(text) + 1)
    c = rng.choice('{}[]",:01-5 ex\n\t')
    action = rng.randrange(3)
    if action == 0:
        return text[:k] + text[k + 1:]
    if action == 1:
        return text[:k] + c + text[k:]
    return text[:k] + c + text[k + 1:]


def test_cli_readers_survive_mutated_input(files, tmp_path, capsys):
    rng = random.Random(5)
    bad = str(tmp_path / "mutant")
    readers = [
        ("poset", ["enumerate", "--poset", bad, "--lines", files["lines"], "--count"]),
        ("lines", ["enumerate", "--poset", files["poset"], "--lines", bad, "--count"]),
        ("m3", ["analyze", "--lattice", bad]),
        ("seven", ["bol", "--lattice", bad]),
        ("fano", ["rstar", bad]),
        ("sets", ["distributive", "--sets", bad, "--count"]),
    ]
    for name, argv in readers:
        text = Path(files[name]).read_text()
        for trial in range(40):
            if name == "sets" or trial % 2:
                mutant = _fuzz_text(rng, text)
            else:
                mutant = json.dumps(_fuzz_json(rng, json.loads(text)))
            (tmp_path / "mutant").write_text(mutant)
            try:
                code = main(argv)
            except Exception as exc:
                raise AssertionError(f"{argv[0]} on {mutant!r} raised {exc!r}") from exc
            err = capsys.readouterr().err
            assert code in (0, 2), (argv[0], mutant, err)
            assert "Traceback" not in err and len(err.splitlines()) <= 1, (argv[0], mutant, err)


def test_bad_group_spec(capsys):
    assert main(["subgroup-lattice", "--group", "0"]) == 2
    assert "ValueError" in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# -- enumerate output, pinned ------------------------------------------------


def _pinned_enumerate_input(name):
    if name == "seven-point":
        return seven_point_poset(), seven_point_lines()
    if name == "random":
        rng = random.Random(4267)
        width = 11
        poset = GroundPoset(width, tuple(random_poset_covers(rng, width)))
        return poset, random_lines(rng, width, max_lines=6)
    return enumeration_input(parse_group(name))


# sha256 over the exit code, stdout, stderr and --out bytes of `enumerate`
# plain, with --stats, with --out and with --expand, in that order
ENUMERATE_PINNED = {
    "seven-point": "e7d8a4d1af994fb03ff04b36242371aa9856aff7f1a15fb9fb757d354b36e11b",
    "2,2,2,2": "11c93c83fdb7a750ecfcfb1aee6ef5fb1ac52892359705df6d2db7a560dd797d",
    "2,4,8": "8187473afdb7d023b39f1c44fd232da3e08f2f1854ac006237bdca2c5e25dc48",
    "3,3,3": "9f59474c3d171bd6df7849ae36f693c533cc9aa660a362e1f83269f10dd29338",
    "random": "988f90d002e2e0a5ae749aeb40fa50438d692fb8f21a43999d6cb652d261c241",
    "2,2,2,2,2": "912275670f88fe135f289eed751fdc0af200ffa0b8fc6251aa2df3a47f9945b1",
    "5,5,5": "b977197dcd4c6c60518b9100a05e44416d3cf2f46a7282f87b1a1355c1dcf026",
    "4,4,4": "2f6b94071475696c09920404ebe2d1bbbe78199c6ad062c7d2f99312edb810a9",
}


@pytest.mark.parametrize("name", ENUMERATE_PINNED)
def test_enumerate_output_is_pinned(name, capsys, tmp_path):
    poset, lines = _pinned_enumerate_input(name)
    (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(poset)))
    (tmp_path / "lines.json").write_text(json.dumps({"lines": [list(ln) for ln in lines]}))
    argv = ["enumerate", "--poset", str(tmp_path / "poset.json"),
            "--lines", str(tmp_path / "lines.json")]
    out = tmp_path / "rows.json"
    digest = hashlib.sha256()
    for extra in ([], ["--stats"], ["--out", str(out)], ["--expand"]):
        code = main(argv + extra)
        got = capsys.readouterr()
        digest.update(f"{code}\n{got.out}\n{got.err}\n".encode())
    digest.update(out.read_bytes())
    assert digest.hexdigest() == ENUMERATE_PINNED[name]


# -- subgroup-lattice output, pinned -------------------------------------------


# sha256 over the exit code, stdout, stderr of `subgroup-lattice` plain, with
# --count, --dot, --out and --analyze, in that order, then the --out bytes
SUBGROUP_LATTICE_PINNED = {
    "2,2,2,2": "8518f83a476f1566abd2b369ed009b5bd20f9abe47e6770932b26533da9acbf9",
    "2,4,8": "67cb8711d30118e0bfc676ff0f99f057d9a233f0d812799001f982ccff39dcb1",
    "3,3,3": "ed4b14c83a5203ca9de81ed67e1f89cd24ffdfb0fd4de83dedc36b8de1d5e510",
    "25,25": "1c77a1e8726ba101802eda0c7dc7db448ad0e95d180d10a1c29432e0ff9b586e",
    "32,32": "2922a6ebb8ecb0715e853852a57b57bdf7fe3da468af7876ad4e8f6f92c1de95",
    # past the cap: every form exits 2 with one CapExceeded line, no --out file
    "2,2,2,2,2,2": "d6b7ed4402f5cce1009bd964a457d3d7de7f0a6c3fe1d8a0f561b10a0b0917f1",
}


@pytest.mark.parametrize("group", SUBGROUP_LATTICE_PINNED)
def test_subgroup_lattice_output_is_pinned(group, capsys, tmp_path):
    out = tmp_path / "lattice.json"
    digest = hashlib.sha256()
    for extra in ([], ["--count"], ["--dot"], ["--out", str(out)], ["--analyze"]):
        code = main(["subgroup-lattice", "--group", group] + extra)
        got = capsys.readouterr()
        digest.update(f"{code}\n{got.out}\n{got.err}\n".encode())
    if out.exists():
        digest.update(out.read_bytes())
    assert digest.hexdigest() == SUBGROUP_LATTICE_PINNED[group]


# -- outputs of the value-type commands, pinned --------------------------------


def _pinned_lattice_file(tmp_path, name):
    if name == "m3":
        L = m_n(3)
    elif name == "seven-point":
        L = seven_point_lattice()
    else:
        L = subgroup_lattice(parse_group(name))
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(lattice_to_json(L)))
    return str(path), L


def _pinned_runs(tmp_path, case):
    """The argument lists of one pinned case, and the files its runs write."""
    command, _, name = case.partition(" ")
    outs = [str(tmp_path / "first.json"), str(tmp_path / "second.json")]
    if command == "distributive":
        sets = tmp_path / "sets.txt"
        sets.write_text("11000\n01100\n00110\n10011\n11110\n")
        argv = ["distributive", "--sets", str(sets)]
        return [argv, argv + ["--dot"], argv + ["--out", outs[0]]], outs[:1]
    if command == "rebuild":
        poset, lines = _pinned_enumerate_input(name)
        (tmp_path / "poset.json").write_text(json.dumps(poset_to_json(poset)))
        (tmp_path / "lines.json").write_text(json.dumps({"lines": [list(ln) for ln in lines]}))
        argv = ["rebuild", "--poset", str(tmp_path / "poset.json"),
                "--lines", str(tmp_path / "lines.json")]
        return [argv, argv + ["--dot"], argv + ["--out", outs[0]]], outs[:1]
    lat, L = _pinned_lattice_file(tmp_path, name)
    if command == "analyze":
        argv = ["analyze", "--lattice", lat]
        return [argv, argv + ["--out", outs[0]]], outs[:1]
    if command == "witness-triangle":
        argv = ["witness-triangle", "--lattice", lat]
        return [argv, argv + ["--count"]], []
    a, b = L.covers[-1]  # a coatom covering
    return [
        ["bol", "--lattice", lat, "--out", outs[0]],
        ["localize", "--lattice", lat, str(a), str(b), "--out", outs[1]],
        ["rstar", "--lattice", lat],
        ["rstar", outs[0]],
        ["rstar", outs[1]],
    ], outs


# sha256 over the exit code, stdout and stderr of each run of a case, in
# order, then the bytes of each file the runs write
OUTPUTS_PINNED = {
    "analyze m3": "cfeb2cb6faadde6e9a4d793bbabe5e59be9e2cfff4ac0eadb75a4d3f4895aaf6",
    "analyze seven-point": "f9a6345ac64c8c30f25cf5a3ec4ae589be82c8c23e4905f807ea4b64cb4a2e8b",
    "analyze 2,2,2,2": "0abe9547c5cc27ae014c6b4b8a561a912cd12c46b57556fdb7f83de1e8d9edbd",
    "analyze 4,8": "ccd3dea48c04c195d82fef0658bf5002d3418dbdaea9a3c9c12ca8b12cac3652",
    "witness-triangle 2,2,2": "06ca2928760189b998d7e15b442b7a98fde2d79b08b03da893c26db17482200f",
    "witness-triangle 3,3,3": "ea0c5b31b86fdd8c09af5dfe144b646c1a776d0fe9c899890276ff67a1a033bf",
    # point ids ascending in both files, so Z4 x Z4's base lists 9 before 10
    "bol-localize-rstar 4,4": "906c6a51f064d6e6ca41be8b90cae702ffe67b7f7fc2a8e22cd04cc11327fb3f",
    "distributive": "1e4f3abe30c1f96ca4c194eb0d2f68c74fce92be24caf8e6b0e69fbb4426d400",
    # the member order and names: by size, then by sorted names as strings,
    # so on Z2 x Z2 x Z4 (width 11, 27 members) {0,10} comes before {0,7}
    "rebuild seven-point": "b2bbd95b6ee2d0805c6fcd5bc8b00721b7b75668865854d2874f16270d8e1f79",
    "rebuild 2,2,4": "c031398e33ac9ff79ee55b23eb64ee6342f9116d2bed7fbb95f8cfbdd1deb76c",
}


@pytest.mark.parametrize("case", OUTPUTS_PINNED)
def test_command_output_is_pinned(case, capsys, tmp_path):
    runs, outs = _pinned_runs(tmp_path, case)
    digest = hashlib.sha256()
    for argv in runs:
        code = main(argv)
        got = capsys.readouterr()
        digest.update(f"{code}\n{got.out}\n{got.err}\n".encode())
    for path in outs:
        digest.update(Path(path).read_bytes())
    assert digest.hexdigest() == OUTPUTS_PINNED[case]


# -- JSON files ----------------------------------------------------------------


def _written_as_indent_2(path, data):
    """Whether `path` holds the bytes of `json.dumps(data, indent=2)` and a
    newline."""
    return Path(path).read_bytes() == (json.dumps(data, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "kind",
    ["subgroup-lattice", "rebuild", "distributive", "enumerate", "analyze", "bol", "localize"],
)
def test_every_out_document_has_the_bytes_of_indent_2(kind, files, capsys, tmp_path, monkeypatch):
    out = str(tmp_path / "out.json")
    argv = {
        "subgroup-lattice": ["subgroup-lattice", "--group", "2,2,4"],
        "rebuild": ["rebuild", "--poset", files["poset"], "--lines", files["lines"]],
        "distributive": ["distributive", "--sets", files["sets"]],
        "enumerate": ["enumerate", "--poset", files["poset"], "--lines", files["lines"]],
        "analyze": ["analyze", "--lattice", files["seven"]],
        "bol": ["bol", "--lattice", files["z2cubed"]],
        "localize": ["localize", "--lattice", files["z2cubed"], "0", "1"],
    }[kind]
    written, write = [], cli._write_json

    def record(path, data):
        written.append(data)
        write(path, data)

    monkeypatch.setattr(cli, "_write_json", record)
    assert main(argv + ["--out", out]) == 0
    capsys.readouterr()
    assert len(written) == 1
    assert _written_as_indent_2(out, written[0])


_EDGE_STRINGS = ["", "plain", "α, β, γ", "\x00\x1f\x7f", '"quoted"', "back\\slash", "\u2028", "\U0001f600"]
_EDGE_SCALARS = [None, True, False, 0, -1, 7, 2**64, 2**64 + 1, -(2**70), 1.5, -0.0, 1e300] + _EDGE_STRINGS


def _random_json(rng, depth=0):
    """A random document of the types `_write_json` takes, leaning on the
    shapes it treats apart: scalar lists, int lists of one length, and
    their near misses."""
    kind = rng.randrange(4 if depth >= 4 else 9)
    if kind == 0:
        return rng.choice(_EDGE_SCALARS)
    if kind == 1:
        return [rng.choice(_EDGE_SCALARS) for _ in range(rng.randrange(4))]
    if kind == 2:  # int lists of one length, at times with a bool among them
        k, ints = rng.randrange(4), [0, 1, -5, 2**64 + 1, -(2**70), True, False]
        return [[rng.choice(ints) for _ in range(k)] for _ in range(rng.randrange(4))]
    if kind == 3:  # int lists of unequal lengths, as in a bol's lines
        return [[rng.randrange(-3, 30) for _ in range(rng.randrange(4))] for _ in range(rng.randrange(5))]
    if kind in (4, 5):
        keys = [rng.choice(_EDGE_STRINGS) + str(i) for i in range(rng.randrange(4))]
        return {key: _random_json(rng, depth + 1) for key in keys}
    items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return tuple(items) if kind == 6 else items


def test_write_json_has_the_bytes_of_indent_2_on_random_documents(tmp_path):
    path = tmp_path / "doc.json"
    rng = random.Random(20261020)
    edge_cases = [
        [], {}, [[]], [[], []], [{}], {"": {}}, [[1, 2], [3]], [[1, True]], [[False, 0]],
        [[-1, 2**64 + 1], [-(2**70), 0]], [(1, 2), [3, 4]], [[1.0, 2]], [None, {"a": None}],
        {"α\x00\"\\": ["β\n", "\ud800"]}, {"a": {"b": {"c": [[0]]}}},
    ]
    for doc in edge_cases + [_random_json(rng) for _ in range(400)]:
        cli._write_json(path, doc)
        assert _written_as_indent_2(path, doc), doc
        assert path.read_bytes().isascii()


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [object()], [b"bytes"], {1: "int key"}])
def test_write_json_takes_only_json_types(doc, tmp_path):
    with pytest.raises(TypeError):
        cli._write_json(tmp_path / "doc.json", doc)


def test_files_are_read_as_utf_8_under_an_ascii_locale(tmp_path):
    # with UTF-8 mode off, `open` without an encoding reads ASCII here and
    # fails on the first byte of "α"
    lattice, out = tmp_path / "greek.json", tmp_path / "report.json"
    names = ["0", "α", "β", "γ", "1"]
    covers = [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]
    lattice.write_bytes(json.dumps({"names": names, "covers": covers}, ensure_ascii=False).encode())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUTF8"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "modlat.cli", "analyze", "--lattice", str(lattice),
         "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["j"] == 3
