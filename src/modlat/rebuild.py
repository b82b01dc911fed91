"""Rebuilding a lattice from its join-irreducible data.

A finite lattice is recovered, up to isomorphism, from the poset of its
join-irreducibles plus a base of lines: the map a -> {p join-irreducible,
p <= a} is an isomorphism onto the family of order ideals closed under
the line constraints, ordered by inclusion.  `enumeration_data` reads
that poset and the canonical base's lines off a lattice, and
`ideals_lattice` is the one path from a poset and its lines back to the
rebuilt lattice.  An `Implication` is one Horn clause over the points,
and `implication_base_size` the size of a set of them.
"""

from __future__ import annotations

from typing import NamedTuple

from .bol import canonical_bol
from .lattice import (
    NotAClosureSystem,
    bits,
    build_lattice,
    check_lattice_size,
    covers_from_below,
    ji_elements,
)
from .pls import _pkey
from .wildcard import GroundPoset, enumerate_ideals, rowset_bitstrings, total_count


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


def ideals_lattice(poset, lines):
    """The lattice of the order ideals of `poset` closed under `lines`
    (tuples of positions), each member the frozenset of its positions.
    Raises CapExceeded from the row count, before any member is listed,
    when there are more than LATTICE_CAP of them."""
    rows = enumerate_ideals(poset, lines)
    check_lattice_size(total_count(rows))
    return closed_ideals_lattice(
        frozenset(k for k, bit in enumerate(bs) if bit) for bs in rowset_bitstrings(rows)
    )


def ji_ground_poset(L):
    """The join-irreducibles of L as a ground poset (their inclusion
    order, transitively reduced), plus the element ids in position order."""
    points = sorted(ji_elements(L))
    below = [sum(1 << i for i, p in enumerate(points) if p != q and L.leq(p, q)) for q in points]
    poset = GroundPoset(
        len(points), tuple(covers_from_below(below)), tuple(L.name(p) for p in points)
    )
    return poset, tuple(points)


def enumeration_data(L):
    """The input the ideal enumerator rebuilds L from, as (poset, points,
    lines): the join-irreducible poset and its element ids as from
    `ji_ground_poset`, and the canonical base's lines as ascending
    position tuples, in interval order."""
    _, masks = canonical_bol(L)
    poset, points = ji_ground_poset(L)
    pos = {p: i for i, p in enumerate(points)}
    return poset, points, [tuple(pos[p] for p in bits(m)) for m in masks]


def roundtrip_check(L):
    """Rebuild L from its join-irreducible poset and canonical base of
    lines.  True when the ideal map a -> J(a) = {p join-irreducible,
    p <= a} is an isomorphism onto the enumerated family: the family is
    exactly {J(a)} with one member per element, and a <= b holds exactly
    when J(a) is a subset of J(b)."""
    poset, points, lines = enumeration_data(L)
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


# -- implications -------------------------------------------------------


class Implication(NamedTuple):
    premise: frozenset
    conclusion: frozenset


def implication_base_size(implications):
    """s(Sigma) = sum of premise and conclusion cardinalities."""
    return sum(len(i.premise) + len(i.conclusion) for i in implications)
