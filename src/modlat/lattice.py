"""Finite lattices as explicit combinatorial objects.

A lattice is built from its cover relation on dense integer element ids
0..n-1.  `cover_order` is the one core that checks a cover relation and
derives its order; `Lattice` and `wildcard.GroundPoset` both call it.
The order is held only as int masks: bit y of `up[x]` is set when
x <= y, `down[x]` dually, and `ji_mask` marks the join-irreducibles, so a
point set such as J(a, b) is `down[b] & ~down[a] & ji_mask`.  The join of
x and y is the element whose up-mask is up[x] & up[y], found by one dict
lookup (dually for meets); a pair with no such element has no least bound.
Construction checks that the order is a lattice in time linear in the pairs
of upper covers, and no n x n table is ever built.  Every builder hands
it covers, and the order is fixed at construction.  Later writes only
cache derived facts (`atoms`, `height`, `modular`, `cover_set`) or attach
`subgroups` (in `algebra.subgroup_lattice`) and `member_sets` (in
`rebuild.closed_ideals_lattice`, from masks) to the lattice just built.
Everything here targets desk scale: no lattice past LATTICE_CAP elements
is built.
"""

from __future__ import annotations

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


# The error bases of the pls, wildcard and rebuild layers are defined here,
# so that the command line catches them without importing those modules;
# each module imports its own, and `modlat.pls.PlsError` and the others
# name the same classes.


class PlsError(Exception):
    """Base class for point-line structure failures (`modlat.pls`)."""


class WildcardError(Exception):
    """Base class for wildcard row failures (`modlat.wildcard`)."""


class NotAClosureSystem(Exception):
    """A family that is not intersection-closed (`modlat.rebuild`)."""


# admits Z2^5 (374 subgroups); 512 elements build in a fraction of a second
LATTICE_CAP = 512

# the default bound on the bases of lines listed or sampled (`modlat.bol`)
BOLS_CAP = 1000


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


def cover_order(n, covers, name=str):
    """The order on 0..n-1 whose covering (lower, upper) pairs are `covers`,
    as (covers, order, upcov, lowcov, up, down): the pairs deduped and
    sorted, a linear extension, each element's upper and lower covers, and
    its inclusive up-set and down-set masks.  Raises NotALattice for a pair
    out of range, CycleInCovers for a self-loop or a cycle, and
    NotTransitivelyReduced for a pair implied by two others; `name` writes
    an element in range into those messages."""
    covers = tuple(sorted(set((int(a), int(b)) for a, b in covers)))
    upcov = [[] for _ in range(n)]
    lowcov = [[] for _ in range(n)]
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise NotALattice(f"cover ({a},{b}) out of range for n={n}")
        if a == b:
            raise CycleInCovers(f"self-loop at {name(a)}")
        upcov[a].append(b)
        lowcov[b].append(a)
    indeg = [len(lows) for lows in lowcov]
    order = [v for v in range(n) if not indeg[v]]
    for v in order:
        for w in upcov[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) != n:
        raise CycleInCovers("cover relation contains a directed cycle")
    up, down = [1 << v for v in range(n)], [1 << v for v in range(n)]
    for v in reversed(order):
        for w in upcov[v]:
            up[v] |= up[w]
    for v in order:
        for w in lowcov[v]:
            down[v] |= down[w]
    for a, b in covers:
        # a shortcut through a third element means (a,b) is redundant
        if (up[a] & down[b]).bit_count() > 2:
            raise NotTransitivelyReduced(f"cover ({name(a)},{name(b)}) is implied")
    return covers, order, upcov, lowcov, up, down


class Lattice:
    """A finite lattice given by its cover relation.

    `covers` are (lower, upper) pairs, the transitive reduction of the
    order; `cover_order`, shared with `wildcard.GroundPoset`, checks them
    and derives the order, and construction then checks that all joins
    and meets exist.  `up[x]`, `down[x]` and `ji_mask` are the order and
    the join-irreducibles as int masks; `linear_extension` lists every
    element after its lower covers.
    """

    def __init__(self, n, covers, names=None):
        if n <= 0:
            raise NotALattice("a lattice needs at least one element")
        check_lattice_size(n)
        if names is not None:
            names = tuple(str(x) for x in names)
            if len(names) != n:
                raise NotALattice("names length does not match element count")
        self.covers, order, self._upcov, self._lowcov, up, down = cover_order(n, covers)
        self.n = n
        self.names = names
        self.linear_extension = tuple(order)
        self.up, self.down = tuple(up), tuple(down)
        self.ji_mask = sum(1 << v for v in range(n) if len(self._lowcov[v]) == 1)

        # x + y is the element whose up-set is up(x) & up(y); dually for meets
        full = (1 << n) - 1
        self._by_up = by_up = {m: v for v, m in enumerate(up)}
        self._by_down = by_down = {m: v for v, m in enumerate(down)}
        # A finite poset with a least element is a lattice iff any two upper
        # covers a != b of a common element have a join.  By induction on z
        # from the top down, any u, v >= z have a join: take upper covers
        # a <= u and b <= v of z (if u or v is z there is nothing to show,
        # and a == b falls to the claim at a), and j = a + b.  Then
        # p = u + j exists by the claim at a, q = v + j by the claim at b,
        # and r = p + q by the claim at j; every upper bound of u and v lies
        # above a, b, j, p and q, so r = u + v.  At the bottom this gives
        # every join, and a meet is the join of the (nonempty) lower bounds.
        if full not in by_up or any(
            up[a] & up[b] not in by_up
            for ups in self._upcov
            for i, a in enumerate(ups)
            for b in ups[i + 1 :]
        ):
            # report the first pair (x, y), y >= x, in row order
            for x in range(n):
                for y in range(x, n):
                    if up[x] & up[y] not in by_up:
                        raise NotALattice(f"elements {x},{y} have no least upper bound")
                    if down[x] & down[y] not in by_down:
                        raise NotALattice(f"elements {x},{y} have no least lower bound")

        self.rank = [0] * n
        for v in order:
            if self._lowcov[v]:
                self.rank[v] = 1 + max(self.rank[u] for u in self._lowcov[v])
        self.rank = tuple(self.rank)
        self.bottom, self.top = up.index(full), down.index(full)

    # -- basic queries ------------------------------------------------

    def leq(self, x, y):
        return self.up[x] >> y & 1 == 1

    def join(self, x, y):
        return self._by_up[self.up[x] & self.up[y]]

    def meet(self, x, y):
        return self._by_down[self.down[x] & self.down[y]]

    def meet_all(self, xs):
        acc = self.down[self.top]
        for x in xs:
            acc &= self.down[x]
        return self._by_down[acc]

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
        # Birkhoff: a finite lattice is modular iff it is upper and lower
        # semimodular, i.e. any two upper covers of an element join to a
        # common upper cover of both, and dually for lower covers
        covers, up, down = self.cover_set, self.up, self.down
        for x in range(self.n):
            ups, lows = self._upcov[x], self._lowcov[x]
            for i, y in enumerate(ups):
                for z in ups[i + 1 :]:
                    j = self._by_up[up[y] & up[z]]
                    if (y, j) not in covers or (z, j) not in covers:
                        return False
            for i, y in enumerate(lows):
                for z in lows[i + 1 :]:
                    m = self._by_down[down[y] & down[z]]
                    if (m, y) not in covers or (m, z) not in covers:
                        return False
        return True

    @cached_property
    def cover_set(self):
        return frozenset(self.covers)

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


def build_lattice(elements, covers, names=None):
    """Build and validate a lattice.

    `elements` is either an element count or a sequence of names.
    """
    if isinstance(elements, int):
        return Lattice(elements, covers, names)
    names = [str(e) for e in elements]
    return Lattice(len(names), covers, names)


def require_modular(L):
    if not L.modular:
        raise NotModular("operation requires a modular lattice")


def ji_elements(L):
    """The join-irreducible elements, ascending."""
    return tuple(bits(L.ji_mask))


def lower_star(L, p):
    """The unique lower cover of a join-irreducible element."""
    lows = L.lower_covers(p)
    if len(lows) != 1:
        raise LatticeError(f"element {p} is not join-irreducible")
    return lows[0]


def transpose_masks(L):
    """Per cover (a, b) of `L.covers`, in that order, the mask S(a, b) of
    the join-irreducibles p <= b, p not<= a with p_* <= a: the points p
    whose prime quotient (p_*, p) transposes up to (a, b).  S(a, b) is
    never empty, as a minimal element of {x <= b : x not<= a} lies in it.
    One pass along `L.linear_extension` builds, per element a, the points
    p with p_* <= a."""
    low = L._lowcov
    okat = [0] * L.n
    for p in bits(L.ji_mask):
        okat[low[p][0]] |= 1 << p
    for a in L.linear_extension:
        for c in low[a]:
            okat[a] |= okat[c]
    down = L.down
    return [down[b] & ~down[a] & okat[a] for a, b in L.covers]


def projectivity_classes(L):
    """Partition of the prime quotients under the transposition closure,
    read off the masks S of `transpose_masks`.

    If (a, b) transposes up to (c, d), a minimal element of {x <= b : x
    not<= a} lies in S(a, b) and in S(c, d); and the points of one S
    have quotients that transpose up to a common cover.  So the unions
    of the S masks that share points, transitively, are the classes
    restricted to the quotients (p_*, p), and each cover lies in the
    class of the lowest point of its S.  No step uses modularity.
    """
    from .pls import merge_masks  # pls imports this module

    masks = transpose_masks(L)
    home = {p: comp for comp in merge_masks(masks) for p in bits(comp)}
    classes = {}
    for q, m in zip(L.covers, masks):
        classes.setdefault(home[(m & -m).bit_length() - 1], []).append(q)
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


def first_repeat(names):
    """The first name in `names` that occurs again later, or None."""
    last = {x: i for i, x in enumerate(names)}
    return next((x for i, x in enumerate(names) if last[x] != i), None)


def lattice_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("lattice JSON must be an object")
    if "covers" not in data:
        raise ValueError("lattice JSON has no 'covers' key")
    names, covers = data.get("names"), data["covers"]
    if not isinstance(names, (list, type(None))) or not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 for c in covers
    ):
        raise ValueError("'names' must be a list and 'covers' a list of [lower, upper] pairs")
    for c in covers:
        for v in c:
            if type(v) is not int:  # a JSON boolean is an int to isinstance
                raise ValueError(f"cover {c} holds {v!r}, not an element index")
    if names is not None:
        dup = first_repeat([str(x) for x in names])
        if dup is not None:
            raise ValueError(f"lattice JSON names element {dup!r} more than once")
        return Lattice(len(names), covers, names)
    ids = {v for c in covers for v in c}
    n = 1 + max(ids, default=0)
    if n > 1 and len(ids) < n:
        # in a lattice of two or more elements every element lies on a cover
        gap = next(v for v in range(n) if v not in ids)
        raise NotALattice(f"element {gap} lies on no cover")
    return Lattice(n, covers)


def lattice_to_dot(L):
    """Hasse diagram in DOT form, edges drawn bottom-to-top."""
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for v in range(L.n):
        lines.append(f'  n{v} [label="{L.name(v)}"];')
    for a, b in L.covers:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
