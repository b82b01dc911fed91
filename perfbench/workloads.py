"""The benchmark's workloads: seeded inputs, the ops that use them, and
the answer each op must give.

Every op is a user command run in-process through `modlat.cli.main`,
except `verdict_suite`, which no command reaches and which is called as
a library function.  Inputs are written to a directory under
.perfbench/ before timing starts; the program sees only those files.

The seed renames elements and points, shuffles cover lists, permutes
the factor order of groups and the op order, and draws the 0/1
matrices.  It keeps element ids and line order, because both change how
much work the program does: the canonical base of lines takes the
lowest-numbered witnesses, and reordering the lines of Z2^5 moved
`enumerate` between 2.4 and 10.5 s.  Every seed thus asks for about the
same work.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import modlat.analysis
import modlat.cli
import modlat.lattice

import reference
from groups import group_inputs

SUBGROUP_LADDER = [(2, 2, 2, 2), (3, 3, 3), (2, 2, 4), (8, 8), (2, 4, 8), (5, 5, 5), (2, 2, 2, 2, 2)]
ENUMERATE_GROUPS = [(2, 2, 2, 2), (2, 4, 8), (5, 5, 5), (4, 4, 4), (2, 2, 2, 2, 2)]
REBUILD_GROUPS = [(2, 2, 2), (2, 2, 4), (8, 8), (3, 3, 3)]
ANALYZE_GROUPS = [(2, 2, 2, 2), (3, 3, 3, 3), (2, 4, 8), (4, 8), (8, 8)]
VERDICT_SUITE_GROUPS = [(3, 3, 3, 3), (2, 2, 4)]

# 0/1 matrices for `distributive`: the closure size stays in a narrow
# band so that every seed asks for about the same work.
MATRICES = 3
MATRIX_SHAPE = (6, 12)
MATRIX_DENSITY = 0.4
CLOSURE_BAND = (180, 220)


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    value: object = None


@dataclass
class Op:
    command: str
    label: str
    check: Callable[[Outcome], str | None]
    argv: list | None = None
    lattice: Path | None = None
    written: list = field(default_factory=list)

    def execute(self):
        """Run the op once; exceptions other than SystemExit propagate."""
        out, err = io.StringIO(), io.StringIO()
        value = None
        with redirect_stdout(out), redirect_stderr(err):
            if self.argv is not None:
                try:
                    code = modlat.cli.main(self.argv)
                except SystemExit as exc:
                    code = exc.code
            else:
                L = modlat.lattice.lattice_from_json(json.loads(self.lattice.read_text()))
                value = modlat.analysis.verdict_suite(L)
                code = 0
        return Outcome(code, out.getvalue(), err.getvalue(), value)


# -- answer checks ------------------------------------------------------


def _expect_output(want):
    def check(res):
        got = res.stdout.strip()
        return None if got == want else f"printed {got[-200:]!r}, want {want!r}"
    return check


def _expect_last_line(want):
    def check(res):
        lines = res.stdout.strip().splitlines()
        got = lines[-1] if lines else ""
        return None if got == want else f"last line {got!r}, want {want!r}"
    return check


def _check_subgroup_lattice(factors, n, out):
    head = f"{reference.group_name(factors)}: {n} subgroups"

    def check(res):
        got = res.stdout.strip()
        if got != head:
            return f"printed {got!r}, want {head!r}"
        names = json.loads(out.read_text())["names"]
        return None if len(names) == n else f"{out.name} holds {len(names)} elements, want {n}"
    return check


def _check_analyze(j, delta):
    def check(res):
        got = {}
        for key in ("j", "delta"):
            m = re.search(rf"^{key} \(.*\)\s+(\d+)$", res.stdout, re.M)
            got[key] = int(m.group(1)) if m else None
        want = {"j": j, "delta": delta}
        return None if got == want else f"printed {got}, want {want}"
    return check


def _check_verdicts(j):
    def check(res):
        bad = [str(v) for v in res.value if not v.passed]
        if bad:
            return f"failing verdicts: {bad[:3]}"
        first = res.value[0]
        want = f"j={j} <="
        return None if first.detail.startswith(want) else f"{first.detail!r} lacks {want!r}"
    return check


# -- seeded inputs --------------------------------------------------------


class Inputs:
    """Writes one workload's seeded input files into `workdir`."""

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.dir = workdir
        self._groups = {}

    def group(self, factors):
        if factors not in self._groups:
            self._groups[factors] = group_inputs(factors)
        return self._groups[factors]

    def _write(self, name, data):
        path = self.dir / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return path

    def lattice(self, factors):
        g = self.group(factors)
        n = g["subgroups"]
        ids = list(range(n))
        self.rng.shuffle(ids)
        covers = [list(c) for c in g["lattice_covers"]]
        self.rng.shuffle(covers)
        data = {"names": [f"H{k}" for k in ids], "covers": covers}
        return self._write(f"lattice-{reference.group_name(factors)}.json", data)

    def poset_and_lines(self, factors):
        g = self.group(factors)
        width = g["ji"]
        labels = [f"p{k}" for k in range(width)]
        self.rng.shuffle(labels)
        covers = [[labels[a], labels[b]] for a, b in g["poset_covers"]]
        self.rng.shuffle(covers)
        lines = []
        for line in g["lines"]:
            pts = [labels[p] for p in line]
            self.rng.shuffle(pts)
            lines.append(pts)
        stem = reference.group_name(factors)
        poset = self._write(f"poset-{stem}.json", {"points": labels, "covers": covers})
        return poset, self._write(f"lines-{stem}.json", {"lines": lines})

    def matrix(self, k):
        rows, cols = MATRIX_SHAPE
        while True:
            m = [[int(self.rng.random() < MATRIX_DENSITY) for _ in range(cols)] for _ in range(rows)]
            size = reference.closure_size(m)
            if CLOSURE_BAND[0] <= size <= CLOSURE_BAND[1]:
                text = "".join("".join(map(str, row)) + "\n" for row in m)
                return self._write(f"sets-{k}.txt", text), size

    def shuffled(self, factors):
        factors = list(factors)
        self.rng.shuffle(factors)
        return tuple(factors)


# -- workloads --------------------------------------------------------------


def _subgroup_ladder(inp):
    ops = []
    for factors in SUBGROUP_LADDER:
        factors = inp.shuffled(factors)
        n = reference.subgroup_count(factors)
        out = inp.dir / f"subgroups-{reference.group_name(factors)}.json"
        ops.append(Op(
            "subgroup_lattice", f"subgroup-lattice {reference.group_name(factors)}",
            _check_subgroup_lattice(factors, n, out),
            argv=["subgroup-lattice", "--group", ",".join(map(str, factors)), "--out", str(out)],
            written=[out],
        ))
    return ops


def _rebuild(inp, factors):
    g = inp.group(factors)
    poset, lines = inp.poset_and_lines(factors)
    out = inp.dir / f"rebuilt-{reference.group_name(factors)}.json"
    want = (f"{g['subgroups']} elements, {g['ji']} join-irreducibles, "
            f"{g['line_intervals']} line intervals, roundtrip ok")
    return Op(
        "rebuild", f"rebuild {reference.group_name(factors)}", _expect_output(want),
        argv=["rebuild", "--poset", str(poset), "--lines", str(lines), "--out", str(out)],
        written=[out],
    )


def _closure_ladder(inp):
    ops = []
    for factors in ENUMERATE_GROUPS:
        poset, lines = inp.poset_and_lines(factors)
        out = inp.dir / f"rows-{reference.group_name(factors)}.json"
        ops.append(Op(
            "enumerate", f"enumerate {reference.group_name(factors)}",
            _expect_output(str(reference.subgroup_count(factors))),
            argv=["enumerate", "--poset", str(poset), "--lines", str(lines),
                  "--count", "--out", str(out)],
            written=[out],
        ))
    ops += [_rebuild(inp, factors) for factors in REBUILD_GROUPS]
    for k in range(MATRICES):
        sets, size = inp.matrix(k)
        ops.append(Op(
            "distributive", f"distributive sets-{k} ({size})", _expect_output(str(size)),
            argv=["distributive", "--sets", str(sets), "--count"],
        ))
    return ops


def _verdict_suite(inp, factors):
    return Op(
        "verdict_suite", f"verdict_suite {reference.group_name(factors)}",
        _check_verdicts(inp.group(factors)["ji"]), lattice=inp.lattice(factors),
    )


def _verdict_corpus(inp):
    ops = [Op("verify", "verify", _expect_last_line("33 lattices, 0 failing checks"),
              argv=["verify"])]
    for factors in ANALYZE_GROUPS:
        ops.append(Op(
            "analyze", f"analyze {reference.group_name(factors)}",
            _check_analyze(reference.cyclic_prime_power_count(factors), reference.height(factors)),
            argv=["analyze", "--lattice", str(inp.lattice(factors))],
        ))
    ops += [_verdict_suite(inp, factors) for factors in VERDICT_SUITE_GROUPS]
    return ops


def build(workload, seed, workdir):
    """The workload's ops for `seed`, in seeded order, inputs written."""
    inp = Inputs(seed, workdir)
    if workload == "subgroup-ladder":
        ops = _subgroup_ladder(inp)
    elif workload == "closure-ladder":
        ops = _closure_ladder(inp)
    elif workload == "verdict-corpus":
        ops = _verdict_corpus(inp)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inp.rng.shuffle(ops)
    return ops
