"""Finite lattices as explicit combinatorial objects.

A lattice is built from its cover relation on dense integer element ids
0..n-1.  The order is held only as int masks: bit y of `up[x]` is set when
x <= y, `down[x]` dually, and `ji_mask` marks the join-irreducibles, so a
point set such as J(a, b) is `down[b] & ~down[a] & ji_mask`.  The join of
x and y is the element whose up-mask is up[x] & up[y], found by one dict
lookup (dually for meets); a pair with no such element has no least bound.
Tables are built at construction time; instances are immutable afterwards
and safe to share between threads.  Everything here targets desk scale:
no lattice past LATTICE_CAP elements is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class LatticeError(Exception):
    """Base class for lattice construction and validation failures."""


class CycleInCovers(LatticeError):
    pass


class NotTransitivelyReduced(LatticeError):
    pass


class NotALattice(LatticeError):
    pass


class NotModular(LatticeError):
    pass


class CapExceeded(LatticeError):
    """Some enumeration outgrew its configured cap."""


# admits Z2^5 (374 subgroups); 512 elements build in a fraction of a second
LATTICE_CAP = 512


def check_lattice_size(n):
    """Raise CapExceeded for a lattice of (at least) n > LATTICE_CAP elements."""
    if n > LATTICE_CAP:
        raise CapExceeded(f"at least {n} lattice elements, more than the cap of {LATTICE_CAP}")


def bits(mask):
    """The positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class JoinIrreducible:
    """An element with exactly one lower cover, which is `lower_star`."""

    elem: int
    lower_star: int


class Lattice:
    """A finite lattice given by its cover relation.

    `covers` is a set of (lower, upper) pairs that must already be the
    transitive reduction of the order.  Construction validates acyclicity,
    reducedness and existence of all joins and meets.  `up[x]`, `down[x]`
    and `ji_mask` are the order and the join-irreducibles as int masks.
    """

    def __init__(self, n, covers, names=None):
        if n <= 0:
            raise NotALattice("a lattice needs at least one element")
        check_lattice_size(n)
        covers = sorted(set((int(a), int(b)) for a, b in covers))
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise NotALattice(f"cover ({a},{b}) out of range for n={n}")
            if a == b:
                raise CycleInCovers(f"self-loop at {a}")
        if names is not None:
            names = tuple(str(x) for x in names)
            if len(names) != n:
                raise NotALattice("names length does not match element count")
        self.n = n
        self.names = names
        self.covers = tuple(covers)
        self._upcov = [[] for _ in range(n)]
        self._lowcov = [[] for _ in range(n)]
        for a, b in covers:
            self._upcov[a].append(b)
            self._lowcov[b].append(a)

        topo, up = topological_up_sets(n, covers)
        _, down = topological_up_sets(n, [(b, a) for a, b in covers])  # the dual order
        self.up, self.down = tuple(up), tuple(down)
        self.ji_mask = sum(1 << v for v in range(n) if len(self._lowcov[v]) == 1)

        for a, b in covers:
            # a shortcut through a third element means (a,b) is redundant
            if (up[a] & down[b]).bit_count() > 2:
                raise NotTransitivelyReduced(f"cover ({a},{b}) is implied")

        # x + y is the element whose up-set is up(x) & up(y); dually for meets
        by_up = {m: v for v, m in enumerate(up)}
        by_down = {m: v for v, m in enumerate(down)}
        self._join = [[by_up.get(ux & u) for u in up] for ux in up]
        self._meet = [[by_down.get(dx & d) for d in down] for dx in down]
        for x in range(n):
            jx, mx = self._join[x], self._meet[x]
            if None in jx or None in mx:
                # report the first pair (x, y), y >= x, in row order
                for y in range(x, n):
                    if jx[y] is None or mx[y] is None:
                        side = "upper" if jx[y] is None else "lower"
                        raise NotALattice(f"elements {x},{y} have no least {side} bound")

        self.rank = [0] * n
        for v in topo:
            if self._lowcov[v]:
                self.rank[v] = 1 + max(self.rank[u] for u in self._lowcov[v])
        self.rank = tuple(self.rank)
        full = (1 << n) - 1
        self.bottom, self.top = up.index(full), down.index(full)

    # -- basic queries ------------------------------------------------

    def leq(self, x, y):
        return self.up[x] >> y & 1 == 1

    def join(self, x, y):
        return self._join[x][y]

    def meet(self, x, y):
        return self._meet[x][y]

    def meet_all(self, xs):
        acc = self.top
        for x in xs:
            acc = self._meet[acc][x]
        return acc

    def upper_covers(self, x):
        return tuple(self._upcov[x])

    def lower_covers(self, x):
        return tuple(self._lowcov[x])

    def name(self, x):
        return self.names[x] if self.names else str(x)

    @cached_property
    def atoms(self):
        return tuple(self._upcov[self.bottom])

    @cached_property
    def coatoms(self):
        return tuple(self._lowcov[self.top])

    @cached_property
    def height(self):
        return self.rank[self.top]

    @cached_property
    def modular(self):
        # x <= z  =>  x + (y*z) = (x+y)*z
        for z in range(self.n):
            for x in bits(self.down[z]):
                jx, mz = self._join[x], self._meet[z]
                for y in range(self.n):
                    if jx[self._meet[y][z]] != mz[jx[y]]:
                        return False
        return True

    @cached_property
    def cover_set(self):
        return frozenset(self.covers)

    @cached_property
    def join_irreducible_list(self):
        return tuple(JoinIrreducible(v, self._lowcov[v][0]) for v in bits(self.ji_mask))

    def __repr__(self):
        return f"Lattice(n={self.n}, covers={len(self.covers)})"


def covers_from_below(below):
    """The sorted cover pairs (a, b) of a strict order on 0..n-1 given as
    below[b] = the int mask of the indices strictly below b.  The order
    must be transitive; a is covered by b when nothing below b lies above a."""
    covers = []
    for b, m in enumerate(below):
        shadow = 0
        for c in bits(m):
            shadow |= below[c]
        covers.extend((a, b) for a in bits(m & ~shadow))
    return sorted(covers)


def topological_up_sets(n, covers):
    """A topological order of 0..n-1 under the (lower, upper) pairs in
    `covers`, and the inclusive up-set of each element as an int mask.
    Raises CycleInCovers when the pairs contain a directed cycle."""
    upcov = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in covers:
        upcov[a].append(b)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for w in upcov[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != n:
        raise CycleInCovers("cover relation contains a directed cycle")
    up = [0] * n
    for v in reversed(order):
        m = 1 << v
        for w in upcov[v]:
            m |= up[w]
        up[v] = m
    return order, up


def build_lattice(elements, covers, names=None):
    """Build and validate a lattice.

    `elements` is either an element count or a sequence of names.
    """
    if isinstance(elements, int):
        return Lattice(elements, covers, names)
    names = [str(e) for e in elements]
    return Lattice(len(names), covers, names)


def is_modular(L):
    return L.modular


def require_modular(L):
    if not L.modular:
        raise NotModular("operation requires a modular lattice")


def join_irreducibles(L):
    """All elements with exactly one lower cover, paired with that cover."""
    return L.join_irreducible_list


def ji_elements(L):
    return tuple(j.elem for j in L.join_irreducible_list)


def ji_below(L, a):
    """The join-irreducibles p with p <= a, ascending."""
    return tuple(bits(L.down[a] & L.ji_mask))


def ji_between(L, a, b):
    """The join-irreducibles p with p <= b but p not<= a, ascending."""
    return tuple(bits(L.down[b] & ~L.down[a] & L.ji_mask))


def lower_star(L, p):
    """The unique lower cover of a join-irreducible element."""
    lows = L.lower_covers(p)
    if len(lows) != 1:
        raise LatticeError(f"element {p} is not join-irreducible")
    return lows[0]


def transposes_up(L, quot1, quot2):
    """Whether the quotient quot1 = [a,b] transposes up to quot2 = [c,d].

    Defined for arbitrary quotients, not only prime ones: true iff
    d = b + c and a = b * c.
    """
    a, b = quot1
    c, d = quot2
    if not (L.leq(a, b) and L.leq(c, d)):
        raise LatticeError("transposes_up expects quotients a<=b, c<=d")
    return L.join(b, c) == d and L.meet(b, c) == a


def up_transposes(L, quot):
    """The covers (c, b + c) with c >= a and b * c = a, in order of c: the
    prime quotients that the prime quotient quot = (a, b) transposes up
    to.  Cover membership is tested, so non-modular lattices work too."""
    a, b = quot
    return [
        (c, L.join(b, c))
        for c in bits(L.up[a] & ~L.up[b])
        if L.meet(b, c) == a and (c, L.join(b, c)) in L.cover_set
    ]


def projectivity_classes(L):
    """Partition of the prime quotients under the transposition closure.

    Two covering pairs land in one class iff a chain of up/down
    transpositions links them; each is united with its up-transposes.
    """
    parent = {q: q for q in L.covers}

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    for q in L.covers:
        for up in up_transposes(L, q):
            parent[find(up)] = find(q)
    classes = {}
    for q in L.covers:
        classes.setdefault(find(q), []).append(q)
    return sorted((frozenset(v) for v in classes.values()), key=min)


def is_isomorphic(L1, L2, cap=200):
    """Exact order-isomorphism test by backtracking.

    Candidates are pruned by (rank, cover degrees, cone sizes); no
    canonical-form hashing, so keep inputs at desk scale (`cap`).
    """
    if max(L1.n, L2.n) > cap:
        raise CapExceeded(f"isomorphism test capped at {cap} elements")
    if L1.n != L2.n or len(L1.covers) != len(L2.covers):
        return False

    def invariant(L, v):
        return (
            L.rank[v],
            len(L.lower_covers(v)),
            len(L.upper_covers(v)),
            L.down[v].bit_count(),
            L.up[v].bit_count(),
        )

    inv1 = [invariant(L1, v) for v in range(L1.n)]
    inv2 = [invariant(L2, v) for v in range(L2.n)]
    if sorted(inv1) != sorted(inv2):
        return False
    cands = {v: [w for w in range(L2.n) if inv2[w] == inv1[v]] for v in range(L1.n)}
    order = sorted(range(L1.n), key=lambda v: len(cands[v]))
    assigned = {}
    used = set()

    def compatible(v, w):
        for v2, w2 in assigned.items():
            if L1.leq(v, v2) != L2.leq(w, w2) or L1.leq(v2, v) != L2.leq(w2, w):
                return False
            if ((v, v2) in L1.cover_set) != ((w, w2) in L2.cover_set):
                return False
            if ((v2, v) in L1.cover_set) != ((w2, w) in L2.cover_set):
                return False
        return True

    def extend(k):
        if k == len(order):
            return True
        v = order[k]
        for w in cands[v]:
            if w not in used and compatible(v, w):
                assigned[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del assigned[v]
                used.remove(w)
        return False

    return extend(0)


# -- serialization ----------------------------------------------------


def lattice_to_json(L):
    return {
        "names": [L.name(v) for v in range(L.n)],
        "covers": [[a, b] for a, b in L.covers],
    }


def lattice_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("lattice JSON must be an object")
    names, covers = data.get("names"), data["covers"]
    if not isinstance(names, (list, type(None))) or not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(isinstance(v, int) for v in c) for c in covers
    ):
        raise ValueError("'names' must be a list and 'covers' a list of [lower, upper] pairs")
    if names is not None:
        return Lattice(len(names), covers, names)
    ids = {v for c in covers for v in c}
    n = 1 + max(ids, default=0)
    if n > 1 and len(ids) < n:
        # in a lattice of two or more elements every element lies on a cover
        gap = next(v for v in range(n) if v not in ids)
        raise NotALattice(f"element {gap} lies on no cover")
    return Lattice(n, covers)


def lattice_to_dot(L, graph_name="lattice"):
    """Hasse diagram in DOT form, edges drawn bottom-to-top."""
    lines = [f"digraph {graph_name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for v in range(L.n):
        lines.append(f'  n{v} [label="{L.name(v)}"];')
    for a, b in L.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
