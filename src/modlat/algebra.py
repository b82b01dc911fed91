"""Concrete modular and distributive lattices from algebra.

Finite abelian groups are given as products of cyclic groups.  Their
elements are numbered in sorted order, and a subgroup is the int mask of
the ids of its elements, everywhere: the subgroup lattice is found by
joining cyclic prime-power subgroups onto masks, and `L.subgroups` holds
the masks.  A set system is one int mask per set over its universe.  It
generates a distributive sublattice of the powerset whose
join-irreducibles are the minimal generated sets A_v containing each
universe element; a down-set of them stands for the OR of its masks.

The subgroup half needs only `lattice`.  One function reaches into
`rebuild` and `wildcard`: `distributive_lattice`, for the ideal
enumerator and `rebuild.closed_ideals_lattice`.  It imports them inside
its body, so that `subgroup-lattice` loads neither module.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import gcd, prod
from operator import and_, or_

from .lattice import CapExceeded, Lattice, LatticeError, check_lattice_size, covers_from_below

ORDER_CAP = 4096


class Group:
    """A finite abelian group: the direct product of Z_n over `factors`,
    of order at most ORDER_CAP."""

    def __init__(self, factors):
        self.factors = tuple(int(f) for f in factors)
        if not self.factors or any(f < 1 for f in self.factors):
            raise ValueError("factors must be positive integers")
        self.order = prod(self.factors)
        if self.order > ORDER_CAP:
            raise CapExceeded(f"group order {self.order} exceeds {ORDER_CAP}")

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
        self._spans = {}  # (span, x) -> span + <x>, for the greedy prefixes `name` shares

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

    def name(self, mask):
        """Greedy generators of H: each element, in order, that the span of
        the earlier ones misses.  The span of a prefix of these generators
        is the subgroup that the prefix names, so subgroups share prefix
        spans, and each (span, x) step is joined once per `_Numbered`."""
        gens = []
        span, rest = 1, mask & ~1
        while rest:
            x = (rest & -rest).bit_length() - 1  # the least element outside the span
            gens.append(self.G.elements[x])
            key = span, x
            span = self._spans.get(key)
            if span is None:
                span = self._spans[key] = self.join_cyclic(*key)
            rest = mask & ~span
        if not gens:
            return "0"
        return "<" + ",".join(",".join(map(str, g)) for g in gens) + ">"


def join_subgroups(G, H, K):
    """The mask of H + K, for subgroup masks H and K: H joined with <k>
    for the least id k of K outside the span, until none is left."""
    num = _Numbered(G)
    rest = K & ~H
    while rest:
        H = num.join_cyclic(H, (rest & -rest).bit_length() - 1)
        rest &= ~H
    return H


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


def _subgroup_family(num):
    """Every subgroup of the group as a mask, by size and then by the
    sorted list of its ids, and the cover pairs of their indices.

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
    # two masks of one size first differ, in their sorted id lists, at the
    # least id that only one of them holds; that one sorts first, as its
    # complement read from id 0 up has a 0 there
    n = num.G.order
    full = (1 << n) - 1
    order = tuple(sorted(family, key=lambda m: (m.bit_count(), format(full ^ m, f"0{n}b")[::-1])))
    index = {m: i for i, m in enumerate(order)}
    return order, sorted((index[a], index[b]) for a, b in edges)


def subgroup_lattice(G):
    """The lattice of all subgroups, generated by joins of the cyclic
    prime-power subgroups.  Every subgroup is such a join, so the family
    is complete.  The subgroups' masks are attached as `subgroups`."""
    num = _Numbered(G)
    family, covers = _subgroup_family(num)
    L = Lattice(len(family), covers, [num.name(m) for m in family])
    L.subgroups = family
    return L


# -- set systems and generated distributive lattices --------------------


class SetSystem:
    """Int masks over `universe`, bit i for `universe[i]`, each checked to lie inside it."""

    def __init__(self, universe, sets):
        self.universe = universe
        self.sets = tuple(sets)
        full = (1 << len(universe)) - 1
        for s in self.sets:
            if s & ~full:
                raise ValueError("set uses elements outside the universe")


def parse_set_system(text):
    """0/1 matrix, one row per set, one column per universe element, named
    a, b, c, ... (v0, v1, ... past 26 columns).  Whitespace between the
    cells is ignored; any other character is an error."""
    rows = []
    for k, line in enumerate(text.splitlines(), 1):
        cells = "".join(line.split())
        if cells.strip("01"):
            raise ValueError(f"line {k} holds characters other than 0, 1 and whitespace")
        if cells:
            rows.append(cells)
    if not rows:
        raise ValueError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    letters = "abcdefghijklmnopqrstuvwxyz"
    universe = tuple(letters[i] if width <= 26 else f"v{i}" for i in range(width))
    # a row read right to left is its mask written in binary
    return SetSystem(universe, tuple(int(r[::-1], 2) for r in rows))


def distributive_ji(sys):
    """The join-irreducibles of the generated distributive lattice: the
    deduplicated masks A_v = intersection of all members containing v, by
    size, then mask.  Elements in no member are skipped."""
    out = set()
    for v in range(len(sys.universe)):
        containing = [m for m in sys.sets if m >> v & 1]
        if containing:
            out.add(reduce(and_, containing))
    return sorted(out, key=lambda m: (m.bit_count(), m))


def distributive_lattice(sys):
    """The distributive lattice the sets generate, realized as the family
    of unions of down-sets of the join-irreducibles (always including the
    empty set)."""
    from .rebuild import closed_ideals_lattice
    from .wildcard import GroundPoset, enumerate_ideals, rowset_masks, total_count

    jis = distributive_ji(sys)
    # sorted by size, so proper subsets come first
    below = [sum(1 << i for i in range(j) if not jis[i] & ~b) for j, b in enumerate(jis)]
    poset = GroundPoset(len(jis), tuple(covers_from_below(below)))
    rows = enumerate_ideals(poset, [])
    check_lattice_size(total_count(rows))
    unions = [
        reduce(or_, (a for i, a in enumerate(jis) if d >> i & 1), 0) for d in rowset_masks(rows)
    ]
    L = closed_ideals_lattice(unions, sys.universe)
    if L.n != len(unions):
        raise LatticeError(f"{len(unions)} down-sets have only {L.n} distinct unions")
    return L
