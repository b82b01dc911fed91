"""Rebuilding a lattice from its join-irreducible data.

A finite lattice is recovered, up to isomorphism, from the poset of its
join-irreducibles plus a base of lines: the map a -> {p join-irreducible,
p <= a} is an isomorphism onto the family of order ideals closed under
the line constraints, ordered by inclusion.  This module turns such
families back into lattices and provides the implication-base view of the
same closure system (Horn clauses over the points).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bol import canonical_bol
from .lattice import bits, build_lattice, covers_from_below, ji_elements
from .pls import _pkey
from .wildcard import GroundPoset, enumerate_ideals, rowset_bitstrings


class NotAClosureSystem(Exception):
    pass


def _member_name(s):
    return "{" + ",".join(str(e) for e in sorted(s, key=_pkey)) + "}"


def _member_key(s):
    """Sort key of a member set: by size, then by its sorted names."""
    return (len(s), tuple(sorted(map(str, s))))


def closed_ideals_lattice(members):
    """The lattice an intersection-closed family forms under inclusion.

    The family must contain the empty set and be closed under pairwise
    intersection; joins exist whenever the family has a top, which the
    lattice constructor verifies.  The canonical member order is attached
    to the result as `member_sets`."""
    canon = sorted({frozenset(m) for m in members}, key=_member_key)
    if not canon or canon[0] != frozenset():
        raise NotAClosureSystem("the empty set must be a member")
    index = {s: i for i, s in enumerate(canon)}
    for i, a in enumerate(canon):
        for b in canon[i + 1 :]:
            if a & b not in index:
                raise NotAClosureSystem(
                    f"intersection of {_member_name(a)} and {_member_name(b)} is missing"
                )
    # members are sorted by size, so proper subsets come first
    below = [sum(1 << i for i in range(j) if canon[i] < b) for j, b in enumerate(canon)]
    L = build_lattice([_member_name(s) for s in canon], covers_from_below(below))
    L.member_sets = tuple(canon)
    return L


def ji_ground_poset(L):
    """The join-irreducibles of L as a ground poset (their inclusion
    order, transitively reduced), plus the element ids in position order."""
    points = sorted(ji_elements(L))
    below = [sum(1 << i for i, p in enumerate(points) if p != q and L.leq(p, q)) for q in points]
    poset = GroundPoset(
        len(points), tuple(covers_from_below(below)), tuple(L.name(p) for p in points)
    )
    return poset, tuple(points)


def roundtrip_check(L):
    """Rebuild L from its join-irreducible poset and canonical base of
    lines.  True when the ideal map a -> J(a) = {p join-irreducible,
    p <= a} is an isomorphism onto the enumerated family: the family is
    exactly {J(a)} with one member per element, and a <= b holds exactly
    when J(a) is a subset of J(b)."""
    _, masks = canonical_bol(L)
    poset, points = ji_ground_poset(L)
    pos = {p: i for i, p in enumerate(points)}
    lines = [tuple(pos[p] for p in bits(m)) for m in masks]  # ascending, as points are
    rows = enumerate_ideals(poset, lines)
    # point sets as bit masks over element ids, like the ideals J(a)
    members = {
        sum(1 << points[i] for i, bit in enumerate(bs) if bit) for bs in rowset_bitstrings(rows)
    }
    ideal = [L.down[a] & L.ji_mask for a in range(L.n)]
    if members != set(ideal) or len(members) != L.n:
        return False
    return all(
        L.leq(a, b) == (ideal[a] & ~ideal[b] == 0) for a in range(L.n) for b in range(L.n)
    )


# -- implication view ---------------------------------------------------


@dataclass(frozen=True)
class Implication:
    premise: frozenset
    conclusion: frozenset


def natural_implication_base(lines, poset, points):
    """The stock Horn base for the closure system of closed ideals.

    One implication {p} -> (strict down-set of p) per non-minimal point,
    and one {p,q} -> l per unordered pair of a line l.  `lines` are sets
    of point ids; `poset` and `points` are as from `ji_ground_poset`, the
    p-th position of the poset standing for points[p]."""
    downs = {
        p: frozenset(points[q] for q in bits(poset.strict_down[i]))
        for i, p in enumerate(points)
    }
    out = []
    for p in sorted(points, key=_pkey):
        if downs[p]:
            out.append(Implication(frozenset([p]), downs[p]))
    for ln in lines:
        mem = sorted(ln, key=_pkey)
        for i, p in enumerate(mem):
            for q in mem[i + 1 :]:
                out.append(Implication(frozenset([p, q]), frozenset(ln)))
    return tuple(out)


def horn_closure(implications, xs):
    """Least superset of xs stable under every implication."""
    closed = set(xs)
    changed = True
    while changed:
        changed = False
        for imp in implications:
            if imp.premise <= closed and not imp.conclusion <= closed:
                closed |= imp.conclusion
                changed = True
    return frozenset(closed)


def implication_base_size(implications):
    """s(Sigma) = sum of premise and conclusion cardinalities."""
    return sum(len(i.premise) + len(i.conclusion) for i in implications)


def implications_to_json(implications):
    return [
        {"if": sorted(i.premise, key=_pkey), "then": sorted(i.conclusion, key=_pkey)}
        for i in implications
    ]


def implications_from_json(data):
    return tuple(
        Implication(frozenset(d["if"]), frozenset(d["then"])) for d in data
    )
