"""Bases of lines of a modular lattice.

A line interval is an interval [x0, x] of length two whose middle layer
has at least three elements, all of them lower covers of x.  A line picks
one join-irreducible witness per middle element; joining the bottom back
onto a witness recovers the middle element, and any two witnesses join to
x.  A base of lines carries one line per line interval; its points are all
the join-irreducibles.

A base is its tuple of int line masks over element ids, one mask per
interval in interval order.  `witness_masks` is the one table of the
witnesses of each middle element, checked once per lattice; the canonical
base, `all_bols` and the questions `analysis` asks of every base at once
all read it.  `localize` trims a base to the points of one covering,
and the JSON writers turn masks into lists of point ids.
"""

from __future__ import annotations

from itertools import combinations, islice, product
from typing import NamedTuple

from .lattice import BOLS_CAP, CapExceeded, LatticeError, bits, require_modular
from .pls import TwoPointIntersection, _pkey


class EmptyChoice(LatticeError):
    pass


class NotACovering(LatticeError):
    pass


class LineInterval(NamedTuple):
    bottom: int
    top: int
    atoms: tuple  # the middle layer = all lower covers of top

    @property
    def n(self):
        return len(self.atoms)


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
    """The line intervals of L and the line masks of the base of lines
    that takes the lowest-numbered witness per atom, as (ivs, masks).

    `witness_masks` has checked every base, so this one needs no further
    check.  Distributive lattices have no line intervals, so both are
    empty and the points are just the join-irreducibles."""
    ivs = line_intervals(L)
    return ivs, canonical_masks(witness_masks(L, ivs))


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


def all_bols(witnesses, cap=BOLS_CAP):
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


def bol_sample(witnesses, cap=BOLS_CAP):
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


def localize(L, ivs, masks, a, b):
    """The localization of the base with line masks `masks`, over the
    intervals `ivs`, at a covering a -< b, as (mask of J(a, b), trimmed
    line masks).

    Its points are the join-irreducibles under b but not a; every line
    whose top lies under b but not under a loses exactly one point, and
    the trimmed lines form a point-line structure on them."""
    if b not in L.upper_covers(a):
        raise NotACovering(f"{b} does not cover {a}")
    qualifying = L.down[b] & ~L.down[a]
    pts = qualifying & L.ji_mask
    trimmed = []
    for m, iv in zip(masks, ivs):
        if qualifying >> iv.top & 1:
            rest = m & pts
            lost = m.bit_count() - rest.bit_count()
            if lost != 1:
                raise LatticeError(f"a qualifying line loses {lost} points, not one")
            trimmed.append(rest)
    return pts, tuple(trimmed)


# -- serialization ----------------------------------------------------


def masks_to_json(pts, masks):
    """The point mask `pts` and the line `masks` as `pls.pls_from_json`
    reads a structure: point ids in `_pkey` order."""
    return {
        "points": sorted(bits(pts), key=_pkey),
        "lines": [sorted(bits(m), key=_pkey) for m in masks],
    }


def bol_to_json(L, ivs, masks):
    return {
        **masks_to_json(L.ji_mask, masks),
        "tops": [iv.top for iv in ivs],
        "bottoms": [iv.bottom for iv in ivs],
    }
