"""Rebuilding a lattice from its join-irreducible data.

A finite lattice is recovered, up to isomorphism, from the poset of its
join-irreducibles plus a base of lines: the map a -> {p join-irreducible,
p <= a} is an isomorphism onto the family of order ideals closed under
the line constraints, ordered by inclusion.  `enumeration_data` reads
that poset and the canonical base's lines off a lattice, and
`ideals_lattice` is the one path from a poset and its lines back to the
rebuilt lattice; members stay int masks over the points all the way, and
`L.members` holds them.  An `Implication` is one Horn clause over the
points, and `implication_base_size` the size of a set of them.
"""

from __future__ import annotations

from typing import NamedTuple

from .bol import canonical_bol
from .lattice import Lattice, NotAClosureSystem, bits, check_lattice_size, covers_from_below
from .wildcard import GroundPoset, enumerate_ideals, rowset_masks, total_count


def closed_ideals_lattice(members, labels):
    """The lattice an intersection-closed family forms under inclusion.

    Each member is an int mask over the points `labels` (bit i is
    `labels[i]`).  The family must contain the empty set and be closed
    under pairwise intersection; joins exist whenever the family has a
    top, which the lattice constructor verifies.  Members are ordered by
    size, then by their sorted point names as strings, and named by those
    names; their masks in that order are attached to the result as
    `members`, as `algebra.subgroup_lattice` attaches `subgroups`."""
    names = [str(x) for x in labels]
    by_name = sorted(range(len(names)), key=names.__getitem__)
    keyed = sorted(
        (m.bit_count(), [names[i] for i in by_name if m >> i & 1], m) for m in set(members)
    )
    if not keyed or keyed[0][2]:
        raise NotAClosureSystem("the empty set must be a member")
    masks = tuple(m for _, _, m in keyed)
    member_names = ["{" + ",".join(ns) + "}" for _, ns, _ in keyed]
    present = set(masks)
    for i, a in enumerate(masks):
        if not {a & b for b in masks[i + 1 :]} <= present:
            j = next(j for j in range(i + 1, len(masks)) if a & masks[j] not in present)
            raise NotAClosureSystem(
                f"intersection of {member_names[i]} and {member_names[j]} is missing"
            )
    # per point, the mask of the members without it
    full = (1 << len(names)) - 1
    lacking = [sum(1 << i for i, m in enumerate(masks) if not m >> e & 1) for e in bits(full)]
    # members are sorted by size, so of two distinct members the earlier
    # one is inside the later only as a proper subset
    below = []
    for j, b in enumerate(masks):
        inside = (1 << j) - 1
        for e in bits(full & ~b):
            inside &= lacking[e]
        below.append(inside)
    L = Lattice(len(masks), covers_from_below(below), member_names)
    L.members = masks
    return L


def ideals_lattice(poset, lines):
    """The lattice of the order ideals of `poset` closed under `lines`
    (tuples of positions), each member the int mask of its positions.
    Raises CapExceeded from the row count, before any member is listed,
    when there are more than LATTICE_CAP of them."""
    rows = enumerate_ideals(poset, lines)
    check_lattice_size(total_count(rows))
    return closed_ideals_lattice(rowset_masks(rows), range(poset.width))


def ji_ground_poset(L):
    """The join-irreducibles of L as a ground poset (their inclusion
    order, transitively reduced), plus the element ids in position order.
    The order is reduced along L's linear extension, as
    `covers_from_below` wants, and its covers mapped back to positions."""
    points = tuple(bits(L.ji_mask))
    pos = {p: i for i, p in enumerate(points)}
    ext = [p for p in L.linear_extension if L.ji_mask >> p & 1]
    below = [
        sum(1 << i for i, p in enumerate(ext[:j]) if L.down[q] >> p & 1) for j, q in enumerate(ext)
    ]
    covers = [(pos[ext[a]], pos[ext[b]]) for a, b in covers_from_below(below)]
    poset = GroundPoset(len(points), tuple(covers), tuple(L.name(p) for p in points))
    return poset, points


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
    lines.  True when the enumerated family is exactly {J(a)}, one member
    per element, J(a) = {p join-irreducible, p <= a} over the poset's
    positions.  Then a -> J(a) is an isomorphism onto the family: each
    element is the join of its J(a), so a <= b exactly when J(a) <= J(b)."""
    poset, points, lines = enumeration_data(L)
    members = rowset_masks(enumerate_ideals(poset, lines))
    ideal = {sum(1 << i for i, p in enumerate(points) if L.down[a] >> p & 1) for a in range(L.n)}
    return len(members) == L.n and members == ideal


# -- implications -------------------------------------------------------


class Implication(NamedTuple):
    premise: frozenset
    conclusion: frozenset


def implication_base_size(implications):
    """s(Sigma) = sum of premise and conclusion cardinalities."""
    return sum(len(i.premise) + len(i.conclusion) for i in implications)
