"""The library is what the commands run: every function in `src/modlat`
is entered by some command, or by `verdict_suite`, the benchmark's one
library op, on small inputs, except the functions listed here, each with
its caller and the reason no such run reaches it.

Functions are found by compiling each module's source and walking its
code objects; a run is watched with `sys.setprofile`, which sees every
call of a Python function.  A nested function counts only when the
function around it is entered, so an unreached outer function is listed
once.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from pathlib import Path

import modlat
import modlat.cli
from modlat.algebra import parse_group, subgroup_lattice
from modlat.analysis import verdict_suite
from modlat.corpus import m_n, seven_point_lattice, seven_point_lines, seven_point_poset
from modlat.lattice import Lattice, lattice_to_json

from oracles import poset_to_json

SRC = Path(modlat.__file__).resolve().parent

# qualified name -> who would call it, and why no small command input does
NEVER_ENTERED = {
    # the benchmark's tracer (`perfbench/tracing.py`) wraps these by name,
    # so they stay until it stops doing so
    "lattice.is_isomorphic": "tracer-wrapped; the tests' isomorphism check",
    "lattice.projectivity_classes": "tracer-wrapped; the analysis reads transpose_masks",
    "algebra.join_subgroups": "tracer-wrapped; subgroup_lattice joins cyclic subgroups",
    "analysis.is_locally_acyclic": "tracer-wrapped; params reads AnalysisContext",
    "bol.all_bols": "tracer-wrapped; no command or verdict lists bases",
    "pls.components": "tracer-wrapped; commands call mask_components",
    "pls.find_cycle": "tracer-wrapped; commands decide cycles by r*",
    "wildcard.expand": "tracer-wrapped; commands list strings as masks (row_masks)",
    "wildcard.make_row": "tracer-wrapped; the enumerator builds rows from rows",
    "wildcard.Row.same_content": "the tracer's impose_line wrapper",
    # the strict 47-vs-45 xfail of criterion 10 imports it
    "rebuild.implication_base_size": "no command counts implications",
    "lattice.Lattice.__repr__": "debugging aid; no command prints a lattice object",
    "cli._build_parser": "runs once at import, before any command",
    # `ELEVEN`'s one cycle of line-tops is blocked at its first peak, so
    # `_is_clean` returns before it looks at a valley
    "analysis._blocked_valley": "_is_clean, at a valley of a cycle not blocked at a peak",
}

# an 11-element modular lattice whose canonical base is acyclic and whose
# line-tops form a cycle, so `check_clean_cycles` lists that cycle and
# tests it for cleanness (it is not clean, and the verdict passes)
ELEVEN = Lattice(11, [(0, 4), (0, 5), (0, 10), (2, 1), (3, 2), (4, 3), (5, 3), (6, 2),
                      (7, 1), (8, 1), (9, 2), (9, 7), (9, 8), (10, 3), (10, 6), (10, 9)])


def _functions():
    """Every function defined in `src/modlat`, as a map from (file, first
    line, name) to its qualified name "module.Class.function", and to the
    qualified name of the function it is nested in, or None."""
    out = {}

    def walk(code, prefix, outer, path):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue  # comprehensions, lambdas and generator expressions
            name = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                out[path, const.co_firstlineno, const.co_name] = name, outer
                walk(const, name, name, path)
            else:
                walk(const, name, outer, path)

    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        walk(code, path.stem, None, str(path))
    return out


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def _runs(tmp_path):
    """One small run of every command and option, as (argument list, exit
    code), in an order where `rstar FILE` reads what `bol --out` wrote."""
    poset = seven_point_poset()
    inputs = {
        "poset.json": poset_to_json(poset),
        "lines.json": {"lines": [[poset.labels[p] for p in ln] for ln in seven_point_lines()]},
        # four unordered points and two lines that share two of them: the
        # second line meets the first one's group in two cells
        "antichain.json": {"points": ["a", "b", "c", "d"]},
        "shared.json": {"lines": [["a", "b", "c"], ["a", "b", "d"]]},
        "m3.json": lattice_to_json(m_n(3)),
        "seven.json": lattice_to_json(seven_point_lattice()),
        "z2cubed.json": lattice_to_json(subgroup_lattice(parse_group("2,2,2"))),
    }
    f = {}
    for name, data in inputs.items():
        f[name] = str(tmp_path / name)
        Path(f[name]).write_text(json.dumps(data))
    (tmp_path / "sets.txt").write_text("110\n011\n101\n")

    def out(name):
        return str(tmp_path / "out" / name)

    (tmp_path / "out").mkdir()
    enum = ["enumerate", "--poset", f["poset.json"], "--lines", f["lines.json"]]
    rebuild = ["rebuild", "--poset", f["poset.json"], "--lines", f["lines.json"]]
    dist = ["distributive", "--sets", str(tmp_path / "sets.txt")]
    group = ["subgroup-lattice", "--group", "2,4"]
    runs = [
        enum, enum + ["--count"], enum + ["--expand"], enum + ["--stats", "--out", out("rows")],
        ["enumerate", "--poset", f["antichain.json"], "--lines", f["shared.json"]],
        rebuild, rebuild + ["--dot"], rebuild + ["--out", out("rebuilt")],
        ["analyze", "--lattice", f["seven.json"], "--out", out("report")],
        ["verify"],
        ["bol", "--lattice", f["z2cubed.json"], "--out", out("bol")],
        ["bol", "--lattice", f["seven.json"], "--all-bols", "--out", out("all")],
        ["localize", "--lattice", f["m3.json"], "m1", "1", "--out", out("local")],
        group + ["--out", out("group")], group + ["--count"], group + ["--dot"],
        group + ["--analyze"],
        dist, dist + ["--count"], dist + ["--dot"], dist + ["--out", out("dist")],
        ["rstar", "--lattice", f["z2cubed.json"]],
        ["rstar", out("bol")],
        ["witness-triangle", "--lattice", f["z2cubed.json"]],
        ["witness-triangle", "--lattice", f["z2cubed.json"], "--count"],
        ["witness-triangle", "--lattice", f["m3.json"]],
    ]
    return [(argv, 0) for argv in runs] + [(["rstar"], 2)]


def test_every_library_function_is_run_by_a_command_or_listed(tmp_path, capsys):
    runs = _runs(tmp_path)
    z4z8 = subgroup_lattice(parse_group("4,8"))  # `triangle_at` runs on it
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    start = time.perf_counter()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        exits = [modlat.cli.main(argv) for argv, _ in runs]
        suite = verdict_suite(z4z8) + verdict_suite(ELEVEN)
    finally:
        sys.setprofile(previous)
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert exits == [code for _, code in runs]
    assert all(v.passed for v in suite)
    functions = _functions()
    reached = {functions[key][0] for key in map(_key, codes) if key in functions}
    never = {
        name for name, outer in functions.values()
        if name not in reached and (outer is None or outer in reached)
    }
    assert never == set(NEVER_ENTERED)
    assert elapsed < 1.0
