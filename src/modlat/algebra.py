"""Concrete modular and distributive lattices from algebra.

Finite abelian groups are given as products of cyclic groups; their
subgroup lattices are generated by joining the cyclic subgroups of
prime-power order (the join-irreducibles).  Set systems generate
distributive sublattices of a powerset; their join-irreducibles are the
minimal generated sets A_v containing each universe element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .bol import lines_from_joins
from .lattice import CapExceeded, build_lattice, covers_from_below
from .wildcard import GroundPoset, enumerate_ideals, rowset_bitstrings

ORDER_CAP = 4096


@dataclass(frozen=True)
class Group:
    """A finite abelian group: the direct product of Z_n over `factors`."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))
        if not self.factors or any(f < 1 for f in self.factors):
            raise ValueError("factors must be positive integers")
        if self.order > ORDER_CAP:
            raise CapExceeded(f"group order {self.order} exceeds {ORDER_CAP}")

    @property
    def order(self):
        return prod(self.factors)

    @property
    def zero(self):
        return (0,) * len(self.factors)

    def add(self, x, y):
        return tuple((a + b) % f for a, b, f in zip(x, y, self.factors))

    @cached_property
    def elements(self):
        out = [()]
        for f in self.factors:
            out = [e + (i,) for e in out for i in range(f)]
        return tuple(sorted(out))

    def __str__(self):
        return "x".join(f"Z{f}" for f in self.factors)


def parse_group(text):
    """Moduli list like "4,4" or "2 2 4"."""
    parts = [p for p in text.replace(",", " ").split() if p]
    return Group(tuple(int(p) for p in parts))


@dataclass(frozen=True)
class Subgroup:
    elements: tuple  # sorted element tuples

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __str__(self):
        gen = min((e for e in self.elements if any(e)), default=None)
        return f"<{self.order}:{gen if gen else '0'}>"


def subgroup_key(H):
    return (H.order, H.elements)


def subgroup_leq(H, K):
    return set(H.elements) <= set(K.elements)


def cyclic_subgroup(G, x):
    seen = {G.zero}
    cur = x
    while cur not in seen:
        seen.add(cur)
        cur = G.add(cur, x)
    return Subgroup(tuple(sorted(seen)))


def join_subgroups(G, H, K):
    """The subgroup generated by H and K; sums suffice in abelian groups."""
    return Subgroup(tuple(sorted({G.add(h, k) for h in H.elements for k in K.elements})))


def trivial_subgroup(G):
    return Subgroup((G.zero,))


def _is_prime_power(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # n itself prime


def join_irreducible_subgroups(G):
    """Nontrivial cyclic subgroups of prime-power order, each of which has
    a unique maximal proper subgroup and is therefore join-irreducible."""
    seen = set()
    for x in G.elements:
        H = cyclic_subgroup(G, x)
        if _is_prime_power(H.order):
            seen.add(H)
    return tuple(sorted(seen, key=subgroup_key))


def _subgroup_family(G):
    jis = join_irreducible_subgroups(G)
    family = {trivial_subgroup(G)} | set(jis)
    frontier = list(family)
    while frontier:
        H = frontier.pop()
        for K in list(family):
            J = join_subgroups(G, H, K)
            if J not in family:
                family.add(J)
                frontier.append(J)
    return sorted(family, key=subgroup_key)


def _gen_name(G, H):
    gens = []
    span = trivial_subgroup(G)
    for x in H.elements:
        if x not in span:
            gens.append(x)
            span = join_subgroups(G, span, cyclic_subgroup(G, x))
    if not gens:
        return "0"
    return "<" + ",".join(",".join(map(str, g)) for g in gens) + ">"


def subgroup_lattice(G):
    """The lattice of all subgroups, generated by joins of the cyclic
    prime-power subgroups.  Every subgroup is such a join, so the family
    is complete.  Member subgroups are attached as `subgroups`."""
    family = _subgroup_family(G)
    family.sort(key=lambda H: (H.order, H.elements))
    sets = [set(H.elements) for H in family]
    # sorted by order, so proper subgroups come first
    below = [[i for i in range(j) if sets[i] < b] for j, b in enumerate(sets)]
    L = build_lattice([_gen_name(G, H) for H in family], covers_from_below(below))
    L.subgroups = tuple(family)
    return L


def enumeration_input(G):
    """The ground data the ideal enumerator needs for G: the poset of
    join-irreducible subgroups and a base of lines found by join scans."""
    jis = join_irreducible_subgroups(G)
    pos = {H: i for i, H in enumerate(jis)}
    # sorted by order, so proper subgroups come first
    below = [[i for i in range(j) if subgroup_leq(jis[i], b)] for j, b in enumerate(jis)]
    poset = GroundPoset(
        len(jis), tuple(covers_from_below(below)), tuple(_gen_name(G, H) for H in jis)
    )
    B = lines_from_joins(jis, lambda H, K: join_subgroups(G, H, K))
    lines = [tuple(sorted(pos[H] for H in ln)) for ln in B.lines]
    lines.sort()
    return poset, lines


# -- set systems and generated distributive lattices --------------------


@dataclass(frozen=True)
class SetSystem:
    universe: tuple
    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        ground = set(self.universe)
        for s in self.sets:
            if not s <= ground:
                raise ValueError("set uses elements outside the universe")

    def uncovered(self):
        """Universe elements in no set; they play no role downstream."""
        hit = set().union(*self.sets) if self.sets else set()
        return tuple(v for v in self.universe if v not in hit)


def parse_set_system(text, universe=None):
    """0/1 matrix, one row per set, columns in universe order."""
    rows = []
    for line in text.splitlines():
        bits = line.split() if " " in line.strip() else list(line.strip())
        bits = [b for b in bits if b in "01"]
        if bits:
            rows.append([int(b) for b in bits])
    if not rows:
        raise ValueError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    if universe is None:
        letters = "abcdefghijklmnopqrstuvwxyz"
        universe = tuple(letters[i] if width <= 26 else f"v{i}" for i in range(width))
    sets = [frozenset(universe[i] for i, b in enumerate(row) if b) for row in rows]
    return SetSystem(tuple(universe), tuple(sets))


def set_system_to_text(sys):
    out = []
    for s in sys.sets:
        out.append("".join("1" if v in s else "0" for v in sys.universe))
    return "\n".join(out) + "\n"


def distributive_ji(sys):
    """The join-irreducibles of the generated distributive lattice:
    deduplicated sets A_v = intersection of all members containing v.
    Elements in no member are skipped."""
    out = set()
    for v in sys.universe:
        containing = [s for s in sys.sets if v in s]
        if not containing:
            continue
        out.add(frozenset.intersection(*containing))
    return tuple(sorted(out, key=lambda s: (len(s), tuple(sorted(map(str, s))))))


def distributive_lattice(sys):
    """The distributive lattice the sets generate, realized as the family
    of unions of down-sets of the join-irreducibles (always including the
    empty set)."""
    from .rebuild import closed_ideals_lattice

    jis = distributive_ji(sys)
    # sorted by size, so proper subsets come first
    below = [[i for i in range(j) if jis[i] < b] for j, b in enumerate(jis)]
    poset = GroundPoset(len(jis), tuple(covers_from_below(below)))
    rows = enumerate_ideals(poset, [])
    members = set()
    for bits in rowset_bitstrings(rows):
        members.add(frozenset().union(*(jis[i] for i in range(len(jis)) if bits[i])))
    L = closed_ideals_lattice(members)
    assert L.n == sum(1 for _ in rowset_bitstrings(rows)), "down-set map must be injective"
    return L
