"""Bases of lines of a modular lattice.

A line interval is an interval [x0, x] of length two whose middle layer
has at least three elements, all of them lower covers of x.  A line picks
one join-irreducible witness per middle element; joining the bottom back
onto a witness recovers the middle element, and any two witnesses join to
x.  A base of lines carries one line per line interval, together with the
point-line structure the lines form on the set of all join-irreducibles.

`witness_masks` is the one table of the witnesses of each middle
element, checked once per lattice; the canonical base, `all_bols` and
the questions `analysis` asks of every base at once all read it.  Bar
the canonical `BaseOfLines`, a base is its tuple of line masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product

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

    `tops` and `intervals` run parallel to `lines`.  A sampled base is
    a tuple of line masks instead (see `all_bols`).  A base from
    `lines_from_joins` has no `lattice` or `intervals`, and its `tops`
    are the oracle's joins."""

    pls: Pls
    lattice: object
    tops: tuple
    intervals: tuple

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


def witness_masks(L, ivs):
    """Per interval of `ivs`, per atom of it, the mask of the points that
    can witness the atom on a line: those under it but not under the
    bottom.  The masks of one interval are disjoint (two atoms meet in
    the bottom).  The table is checked once, here, so any choice of one
    point per mask is a base and a partial linear space."""
    out = []
    for iv in ivs:
        ws = tuple(L.down[a] & ~L.down[iv.bottom] & L.ji_mask for a in iv.atoms)
        for a, w in zip(iv.atoms, ws):
            if not w:
                raise EmptyChoice(f"no join-irreducible witness for {a} over {iv.bottom}")
        out.append(ws)
    check_candidates(out)
    return tuple(out)


def canonical_masks(witnesses):
    """The canonical base's line masks: the lowest witness of each atom."""
    return tuple(sum(w & -w for w in ws) for ws in witnesses)


def canonical_bol(L):
    """The base of lines that takes the lowest-numbered witness per atom.

    Distributive lattices have no line intervals, so the line family is
    empty and the structure is just the join-irreducibles."""
    ivs = line_intervals(L)
    lines = [frozenset(bits(m)) for m in canonical_masks(witness_masks(L, ivs))]
    pls = validate_pls(ji_elements(L), lines)
    return BaseOfLines(pls, L, tuple(iv.top for iv in ivs), tuple(ivs))


def check_candidates(witnesses):
    """Raise TwoPointIntersection unless any two candidate lines of
    different intervals share at most one point.

    `witnesses` is a table as from `witness_masks`.  Lines of intervals i
    and j share two points exactly when some point lies in a & b and
    another in common & ~a & ~b, for an atom mask a of i, an atom mask b
    of j, and `common` the points both intervals can use.  So this checks
    each pair of lines that any base could hold without listing them.  A
    modular lattice always passes: two points of a line join to the
    line's top, and the tops of distinct intervals differ."""
    spans = [sum(ws) for ws in witnesses]
    for (i, wi), (j, wj) in combinations(enumerate(witnesses), 2):
        common = spans[i] & spans[j]
        if not common & (common - 1):
            continue
        for a, b in product(wi, wj):
            other = common & ~a & ~b
            if a & b and other:
                pair = sorted((next(bits(a & b)), next(bits(other))))
                msg = f"candidate lines of intervals {i} and {j} share {pair}"
                raise TwoPointIntersection(msg)


def all_bols(witnesses, cap=1000):
    """Yield every base of lines of the witness table `witnesses`, each
    once, as its tuple of line masks in interval order, capped.

    The bases come in lexicographic order of the witnesses, per
    (interval, atom) pair, so the canonical base is the first.  Raises
    CapExceeded once a (cap+1)-th base shows up, so a consumer that
    completes without the error has seen them all.  The k-th base uses
    no line of an interval past its k-th, so each interval's lines are
    listed up to the (cap+1)-th, in the product of its atoms' witnesses."""
    picks = [[[1 << p for p in bits(w)] for w in ws] for ws in witnesses]
    lines = [[sum(c) for c in islice(product(*ps), cap + 1)] for ps in picks]
    for count, masks in enumerate(product(*lines)):
        if count >= cap:
            raise CapExceeded(f"more than {cap} distinct bases of lines")
        yield masks


def bol_sample(witnesses, cap=1000):
    """Up to `cap` bases of lines of the witness table, as from
    `all_bols`, and whether the cap cut the list short (it is empty at
    cap 0)."""
    out = []
    try:
        for masks in all_bols(witnesses, cap=cap):
            out.append(masks)
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
    tops = tuple(sorted(done, key=_pkey))
    pls = validate_pls(pts, [done[x] for x in tops])
    return BaseOfLines(pls, None, tops, ())


def induced(B, a):
    """The base of lines of the ideal below `a`: points under a, lines
    whose top is under a."""
    L = B.lattice
    keep = [k for k, top in enumerate(B.tops) if L.down[a] >> top & 1]
    return BaseOfLines(
        validate_pls(ji_below(L, a), [B.lines[k] for k in keep]),
        L,
        tuple(B.tops[k] for k in keep),
        tuple(B.intervals[k] for k in keep),
    )


def localize(B, a, b):
    """The localization of the base at a covering a -< b.

    Points are the join-irreducibles under b but not a; every line whose
    top lies under b but not under a loses exactly one point, and the
    trimmed lines form a point-line structure on them."""
    L = B.lattice
    if b not in L.upper_covers(a):
        raise NotACovering(f"{b} does not cover {a}")
    pts = frozenset(ji_between(L, a, b))
    qualifying = L.down[b] & ~L.down[a]
    trimmed = []
    for ln, top in zip(B.lines, B.tops):
        if qualifying >> top & 1:
            rest = ln & pts
            if len(rest) != len(ln) - 1:
                raise LatticeError(f"a qualifying line loses {len(ln - rest)} points, not one")
            trimmed.append(rest)
    return validate_pls(pts, trimmed)


# -- serialization ----------------------------------------------------


def bol_to_json(B):
    return {
        "points": sorted(B.points, key=_pkey),
        "lines": [sorted(ln, key=_pkey) for ln in B.lines],
        "tops": list(B.tops),
        "bottoms": [iv.bottom for iv in B.intervals] or [None] * len(B.lines),
    }
