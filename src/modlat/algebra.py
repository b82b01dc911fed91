"""Concrete modular and distributive lattices from algebra.

Finite abelian groups are given as products of cyclic groups; their
subgroup lattices are generated by joining the cyclic subgroups of
prime-power order (the join-irreducibles), with the group elements
numbered and each subgroup held as an int mask over the numbers.  Set systems generate
distributive sublattices of a powerset; their join-irreducibles are the
minimal generated sets A_v containing each universe element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

from .bol import lines_from_joins
from .lattice import (
    CapExceeded, LatticeError, bits, build_lattice, check_lattice_size, covers_from_below)
from .rebuild import _member_key, closed_ideals_lattice
from .wildcard import GroundPoset, enumerate_ideals, rowset_bitstrings, total_count

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
    """The subgroup generated by H and K: the union of the cosets H + k for
    k in K.  A coset is added only for a k not yet covered, so the work is
    |H + K| additions rather than |H||K|."""
    span = set(H.elements)
    for k in K.elements:
        if k not in span:
            span.update(G.add(h, k) for h in H.elements)
    return Subgroup(tuple(sorted(span)))


def trivial_subgroup(G):
    return Subgroup((G.zero,))


def _prime_base(n):
    """The prime p when n is a power of p, else None."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
        p += 1
    return n if n > 1 else None  # n itself prime


class _Numbered:
    """G with its elements numbered 0..|G|-1 in `G.elements` order, so that
    0 is the identity and a subgroup is an int mask over the ids.

    `G.elements` is the mixed-radix order of the factors: the digit of a
    factor f sits at stride s, the product of the later factors.  Adding a
    to that digit moves the ids whose digit is below f - a up by a * s and
    wraps the others down by (f - a) * s.  The ids with a low digit form
    the mask `low`, a block of (f - a) * s ones repeated with period f * s,
    so a whole mask moves by x with two shifts per nonzero digit of x."""

    def __init__(self, G):
        self.G = G
        self._moves = {}  # x -> ((low, up, down) per nonzero digit of x)

    def _moves_of(self, x):
        moves = self._moves.get(x)
        if moves is None:
            factors, n = self.G.factors, self.G.order
            moves, s = [], n
            for f, a in zip(factors, self.G.elements[x]):
                s //= f
                if a:
                    period = f * s
                    repunit = ((1 << n) - 1) // ((1 << period) - 1)
                    low = ((1 << (f - a) * s) - 1) * repunit
                    moves.append((low, a * s, (f - a) * s))
            self._moves[x] = moves
        return moves

    def translate(self, mask, x):
        """The mask of y + x for y in `mask`."""
        for low, up, down in self._moves_of(x):
            stay = mask & low
            mask = stay << up | (mask ^ stay) >> down
        return mask

    def join_cyclic(self, mask, x):
        """The mask of H + <x>: H's translates by x, 2x, ... until one
        meets H, which it then equals."""
        out = coset = mask
        while True:
            coset = self.translate(coset, x)
            if coset & mask:
                return out
            out |= coset

    def multiples(self, x):
        """The ids of 0, x, 2x, ... up to the order of x."""
        ids, m = [0], self.translate(1, x)
        while m != 1:
            ids.append(m.bit_length() - 1)
            m = self.translate(m, x)
        return ids

    def subgroup(self, mask):
        elements = self.G.elements
        return Subgroup(tuple(elements[i] for i in bits(mask)))

    def name(self, mask):
        """Greedy generators of H: each element, in order, that the span of
        the earlier ones misses."""
        gens = []
        span, rest = 1, mask & ~1
        while rest:
            x = (rest & -rest).bit_length() - 1  # the least element outside the span
            gens.append(self.G.elements[x])
            span = self.join_cyclic(span, x)
            rest = mask & ~span
        if not gens:
            return "0"
        return "<" + ",".join(",".join(map(str, g)) for g in gens) + ">"


def _cyclic_prime_power(num):
    """Each nontrivial cyclic subgroup of prime-power order p^k, as the pair
    (its ids in the order 0, x, 2x, ... for one generator x, p)."""
    out = []
    found = bytearray(num.G.order)  # generators of the cyclic subgroups seen
    for x in range(1, num.G.order):
        if found[x]:
            continue
        ids = num.multiples(x)
        n = len(ids)
        for k in range(1, n):
            if gcd(k, n) == 1:
                found[ids[k]] = 1
        p = _prime_base(n)
        if p:
            out.append((ids, p))
    return out


def join_irreducible_subgroups(G):
    """Nontrivial cyclic subgroups of prime-power order, each of which has
    a unique maximal proper subgroup and is therefore join-irreducible."""
    num = _Numbered(G)
    subs = [num.subgroup(sum(1 << i for i in ids)) for ids, _ in _cyclic_prime_power(num)]
    return tuple(sorted(subs, key=subgroup_key))


def _subgroup_family(num):
    """Every subgroup of the group, as masks and as Subgroups in
    `subgroup_key` order, and the cover pairs of their indices.

    K covers H exactly when K = H + <x> for a generator x of a cyclic
    subgroup of order p^k with x not in H but px in H: K/H has prime
    order p, and K holds such an x because it is the join of the cyclic
    prime-power subgroups below it.  So a breadth-first search from the
    trivial subgroup along these steps finds every subgroup and every
    cover.  Raises CapExceeded once the family outgrows LATTICE_CAP
    members, which bounds the work as well as the output."""
    steps = [(ids[1], ids[p % len(ids)]) for ids, p in _cyclic_prime_power(num)]  # (x, px)
    family = [1]
    seen = {1}
    edges = []
    for mask in family:  # breadth first, so that the cap strikes early
        covered = mask  # H and its covers found so far
        for x, px in steps:
            # a cover K of H is H + <x> for every x in K but not in H
            if covered >> x & 1 or not mask >> px & 1:
                continue
            K = num.join_cyclic(mask, x)
            covered |= K
            edges.append((mask, K))
            if K not in seen:
                seen.add(K)
                family.append(K)
                check_lattice_size(len(family))
    subs = {m: num.subgroup(m) for m in family}
    order = sorted(family, key=lambda m: subgroup_key(subs[m]))
    index = {m: i for i, m in enumerate(order)}
    return order, tuple(subs[m] for m in order), sorted((index[a], index[b]) for a, b in edges)


def subgroup_lattice(G):
    """The lattice of all subgroups, generated by joins of the cyclic
    prime-power subgroups.  Every subgroup is such a join, so the family
    is complete.  Member subgroups are attached as `subgroups`."""
    num = _Numbered(G)
    family, subgroups, covers = _subgroup_family(num)
    L = build_lattice([num.name(m) for m in family], covers)
    L.subgroups = subgroups
    return L


def enumeration_input(G):
    """The ground data the ideal enumerator needs for G: the poset of
    join-irreducible subgroups and a base of lines found by join scans."""
    jis = join_irreducible_subgroups(G)
    pos = {H: i for i, H in enumerate(jis)}
    # sorted by order, so proper subgroups come first
    below = [sum(1 << i for i in range(j) if subgroup_leq(jis[i], b)) for j, b in enumerate(jis)]
    num = _Numbered(G)
    index = {x: i for i, x in enumerate(G.elements)}
    names = tuple(num.name(sum(1 << index[x] for x in H.elements)) for H in jis)
    poset = GroundPoset(len(jis), tuple(covers_from_below(below)), names)
    P = lines_from_joins(jis, lambda H, K: join_subgroups(G, H, K))
    lines = [tuple(sorted(pos[H] for H in ln)) for ln in P.lines]
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
    """0/1 matrix, one row per set, columns in universe order.  Whitespace
    between the cells is ignored; any other character is an error."""
    rows = []
    for k, line in enumerate(text.splitlines(), 1):
        bits = "".join(line.split())
        if bits.strip("01"):
            raise ValueError(f"line {k} holds characters other than 0, 1 and whitespace")
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
    return tuple(sorted(out, key=_member_key))


def distributive_lattice(sys):
    """The distributive lattice the sets generate, realized as the family
    of unions of down-sets of the join-irreducibles (always including the
    empty set)."""
    jis = distributive_ji(sys)
    # sorted by size, so proper subsets come first
    below = [sum(1 << i for i in range(j) if jis[i] < b) for j, b in enumerate(jis)]
    poset = GroundPoset(len(jis), tuple(covers_from_below(below)))
    rows = enumerate_ideals(poset, [])
    check_lattice_size(total_count(rows))
    unions = [
        frozenset().union(*(jis[i] for i in range(len(jis)) if bits[i]))
        for bits in rowset_bitstrings(rows)
    ]
    L = closed_ideals_lattice(unions)
    if L.n != len(unions):
        raise LatticeError(f"{len(unions)} down-sets have only {L.n} distinct unions")
    return L
