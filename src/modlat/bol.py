"""Bases of lines of a modular lattice.

A line interval is an interval [x0, x] of length two whose middle layer
has at least three elements, all of them lower covers of x.  A line picks
one join-irreducible witness per middle element; joining the bottom back
onto a witness recovers the middle element, and any two witnesses join to
x.  A base of lines carries one line per line interval, together with the
point-line structure the lines form on the set of all join-irreducibles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .lattice import (
    CapExceeded,
    LatticeError,
    bits,
    ji_below,
    ji_between,
    ji_elements,
    require_modular,
)
from .pls import Pls, TwoPointIntersection, _pkey, validate_pls


class EmptyChoice(LatticeError):
    pass


class NotACovering(LatticeError):
    pass


@dataclass(frozen=True)
class LineInterval:
    bottom: int
    top: int
    atoms: tuple  # the middle layer = all lower covers of top

    @property
    def n(self):
        return len(self.atoms)


@dataclass(frozen=True, eq=False)
class BaseOfLines:
    """Points are all join-irreducibles; lines are frozensets of points.

    `lattice` is None when the base was built from an external join
    oracle; in that case `bottom_of`/`interval_of` stay empty and
    `top_of` maps to whatever objects the oracle produced."""

    pls: Pls
    lattice: object
    top_of: dict
    bottom_of: dict
    interval_of: dict

    @property
    def lines(self):
        return self.pls.lines

    @property
    def points(self):
        return self.pls.points


def line_intervals(L):
    """All line intervals, sorted by top element."""
    require_modular(L)
    out = []
    for x in range(L.n):
        lows = L.lower_covers(x)
        if len(lows) < 3:
            continue
        x0 = L.meet_all(lows)
        if L.rank[x] - L.rank[x0] != 2:
            continue
        # the lower covers of x lie in [x0, x]; it must hold nothing else
        if (L.down[x] & L.up[x0]).bit_count() == len(lows) + 2:
            out.append(LineInterval(x0, x, tuple(sorted(lows))))
    return tuple(sorted(out, key=lambda iv: iv.top))


def interval_candidates(L, interval):
    """Per middle element, the join-irreducibles that can represent it."""
    cands = []
    for a in interval.atoms:
        opts = ji_between(L, interval.bottom, a)
        if not opts:
            raise EmptyChoice(f"no join-irreducible witness for {a} over {interval.bottom}")
        cands.append(tuple(sorted(opts)))
    return tuple(cands)


def extract_line(L, interval, chooser=None):
    """One line for the interval: a witness per middle element.

    The default chooser takes the smallest element id.  The returned set
    maps bijectively onto the middle layer via p -> bottom + p."""
    chosen = []
    for a, opts in zip(interval.atoms, interval_candidates(L, interval)):
        p = chooser(interval, a, opts) if chooser else opts[0]
        if p not in opts:
            raise EmptyChoice(f"chooser returned {p}, not a witness for {a}")
        chosen.append(p)
    line = frozenset(chosen)
    if len(line) != len(interval.atoms):
        raise LatticeError("two middle elements share a witness")
    if sorted(L.join(interval.bottom, p) for p in chosen) != sorted(interval.atoms):
        raise LatticeError("the witnesses do not recover the middle layer")
    return line


def _assemble(L, pls, intervals):
    top_of, bottom_of, interval_of = {}, {}, {}
    for line, iv in zip(pls.lines, intervals):
        top_of[line] = iv.top
        bottom_of[line] = iv.bottom
        interval_of[line] = iv
    return BaseOfLines(pls, L, top_of, bottom_of, interval_of)


def canonical_bol(L, ivs=None):
    """The base of lines under the default witness choice.

    Distributive lattices have no line intervals, so the line family is
    empty and the structure is just the join-irreducibles.  `ivs`, when
    given, is `line_intervals(L)`, computed once by the caller."""
    if ivs is None:
        ivs = line_intervals(L)
    lines = [extract_line(L, iv) for iv in ivs]
    return _assemble(L, validate_pls(ji_elements(L), lines), ivs)


def check_candidates(candidates):
    """Raise TwoPointIntersection unless any two candidate lines of
    different intervals share at most one point.

    `candidates` holds, per interval, its candidate lines as int masks of
    points.  Every base picks one line per interval, so this checks each
    pair of lines that any base could hold.  A modular lattice always
    passes: two points of a line join to the line's top, and the tops of
    distinct intervals differ."""
    for i, ci in enumerate(candidates):
        for j in range(i + 1, len(candidates)):
            for a in ci:
                for b in candidates[j]:
                    c = a & b
                    if c & (c - 1):
                        raise TwoPointIntersection(
                            f"candidate lines of intervals {i} and {j} "
                            f"share {list(bits(c))}"
                        )


def all_bols(L, cap=1000, ivs=None):
    """Yield every base of lines, each once, capped.

    Raises CapExceeded once a (cap+1)-th distinct base shows up, so a
    consumer that completes without the error has seen them all.  `ivs`
    is as for `canonical_bol`.  The partial-linear-space check runs once
    per lattice, here, not once per base: a candidate line is a set of
    at least three join-irreducibles by construction, and
    `check_candidates` covers every pair of lines from different
    intervals before the first base.  So each base's `Pls` is built
    without `validate_pls`, and distinct choices of lines are distinct
    bases."""
    if ivs is None:
        ivs = line_intervals(L)
    per_interval = []  # per interval, its candidate lines -> their masks
    for iv in ivs:
        seen = {}
        for combo in product(*interval_candidates(L, iv)):
            fs = frozenset(combo)
            if len(fs) == len(iv.atoms) and fs not in seen:
                seen[fs] = sum(1 << p for p in fs)
            if len(seen) > cap:
                raise CapExceeded(f"more than {cap} line choices for one interval")
        per_interval.append(seen)
    check_candidates([list(seen.values()) for seen in per_interval])
    points = frozenset(ji_elements(L))
    for count, combo in enumerate(product(*per_interval)):
        if count >= cap:
            raise CapExceeded(f"more than {cap} distinct bases of lines")
        yield _assemble(L, Pls(points, combo), ivs)


def bol_sample(L, cap=1000, ivs=None):
    """Up to `cap` distinct bases of lines, and whether the cap cut the
    list short (it may then be empty).  `ivs` is as for `canonical_bol`."""
    out = []
    try:
        for B in all_bols(L, cap=cap, ivs=ivs):
            out.append(B)
    except CapExceeded:
        return out, True
    return out, False


def lines_from_joins(points, join_oracle):
    """Build a base of lines from raw points and a join function.

    Scans pairs in a canonical order; a pair whose join x admits a third
    point with the same pairwise joins seeds a line, which is then
    extended to a maximal set with all pairwise joins equal to x.  One
    line per join value."""
    pts = sorted(points, key=_pkey)
    done = {}
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            x = join_oracle(p, q)
            if x in done:
                continue
            third = None
            for r in pts:
                if r in (p, q):
                    continue
                if join_oracle(p, r) == x and join_oracle(q, r) == x:
                    third = r
                    break
            if third is None:
                continue
            line = [p, q, third]
            for r in pts:
                if r in line:
                    continue
                if all(join_oracle(r, s) == x for s in line):
                    line.append(r)
            done[x] = frozenset(line)
    lines = [done[x] for x in sorted(done, key=_pkey)]
    pls = validate_pls(pts, lines)
    top_of = {line: x for x, line in done.items()}
    return BaseOfLines(pls, None, top_of, {}, {})


def induced(B, a):
    """The base of lines of the ideal below `a`: points under a, lines
    whose top is under a."""
    L = B.lattice
    pts = [p for p in ji_below(L, a)]
    lines = [ln for ln in B.lines if L.leq(B.top_of[ln], a)]
    pls = validate_pls(pts, lines)
    return BaseOfLines(
        pls,
        L,
        {ln: B.top_of[ln] for ln in lines},
        {ln: B.bottom_of[ln] for ln in lines if ln in B.bottom_of},
        {ln: B.interval_of[ln] for ln in lines if ln in B.interval_of},
    )


def localize(B, a, b):
    """The localization of the base at a covering a -< b.

    Points are the join-irreducibles under b but not a; every line whose
    top lies under b but not under a loses exactly one point, and the
    trimmed lines (deduplicated) form a point-line structure on them."""
    L = B.lattice
    if b not in L.upper_covers(a):
        raise NotACovering(f"{b} does not cover {a}")
    pts = set(ji_between(L, a, b))
    trimmed = []
    for ln in B.lines:
        if not L.leq(B.top_of[ln], b) or L.leq(B.top_of[ln], a):
            continue
        rest = ln & pts
        if len(rest) != len(ln) - 1:
            raise LatticeError(f"a qualifying line loses {len(ln) - len(rest)} points, not one")
        if rest not in trimmed:
            trimmed.append(rest)
    return validate_pls(pts, trimmed)


# -- serialization ----------------------------------------------------


def bol_to_json(B):
    lines = list(B.lines)
    return {
        "points": sorted(B.points, key=_pkey),
        "lines": [sorted(ln, key=_pkey) for ln in lines],
        "tops": [B.top_of.get(ln) for ln in lines],
        "bottoms": [B.bottom_of.get(ln) for ln in lines],
    }
