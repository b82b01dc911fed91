"""Structural profile of a modular lattice and checks of the counting
identities tying it to its bases of lines.

The profile collects

  j      number of join-irreducibles (points of every base of lines)
  delta  height of the lattice
  s      connected components of a base of lines, which is also the
         number of congruence-simple factors
  i      number of line intervals
  o      largest n - 1 over the M_n line intervals, 1 when there are none
  mu     sum of all n over the line intervals
  r*     splittings needed to acyclify the canonical base

and evaluates the identities and bounds that relate them, each reported
as a named pass/fail verdict with the concrete numbers filled in.  The
facts these checks share are computed once per lattice in the
`AnalysisContext` that every check takes; a base of lines there is its
tuple of line masks, and the only one it lists is the canonical base.
Whether some base of lines has a cycle, a cyclic localization or a
triangle is decided over every base at once, as a properly coloured
cycle in a witness graph (Yeo's theorem); whether every base is cyclic
with the canonical one from witness spans and projectivity classes; and
whether every localization of every base is connected from the slots
that force points onto lines, not by enumerating bases.  The last two
facts make the components of every base the projectivity classes, so
s, r* and the interval bounds read off the canonical base hold in every
base, and no check lists bases.  The module also houses the triangle
machinery that manufactures a covering with a cyclic localization, and
`check_clean_cycles`, which lists the cycles of line-tops of an acyclic
canonical base and tests each for cleanness.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .bol import canonical_masks, line_intervals, localize, witness_masks
from .lattice import LatticeError, bits, lower_star, require_modular, transpose_masks
from .pls import mask_components, merge_masks


class ClaimViolated(LatticeError):
    """An assertion inside the cyclic-localization construction failed."""


# -- analysis context --------------------------------------------------

SEARCH_PARTS = 16  # `connected_at` tries the unions of at most this many parts


class AnalysisContext:
    """The facts about one modular lattice `L` that the checks read, each
    computed once per lattice; modularity is required.

    Every base here is a tuple of int line masks, one per interval in
    interval order, read off `witnesses`: the witness table of
    `bol.witness_masks`, computed and checked once per lattice.  Per
    interval and per atom of it, the table holds the mask of the
    join-irreducibles that can represent that atom on a line.  A base
    picks one witness per (interval, atom) pair, and any choice is a
    base, so questions of the form "does some base have ..." are asked of
    these masks over all bases at once: `cyclic_at`, `connected_at`,
    `triangle_at`, `locally_acyclic` and `some_base_cyclic`.  `base` is
    the canonical base, the lowest witness per atom; the context lists no
    other base.  `coverings` holds, per covering u -< v, the mask of
    J(u, v) and `qual`, the mask of the indices of the line intervals
    with top under v but not under u: a base's localization there is its
    lines for those intervals, each AND-ed with the J(u, v) mask.
    `base_facts` are the canonical base's components and r*, and
    `acyclic` says whether that r* is 0.
    `transposes` holds, per cover a -< b, the mask S(a, b) of the points
    whose quotient (p_*, p) transposes up to (a, b) (`transpose_masks`).
    `class_partition`, the points by projectivity class, is their merge,
    and p, q are perspective when p != q and some S holds both: a bit
    test in `shares`, which only the verdict suite reads.
    """

    def __init__(self, L):
        require_modular(L)
        self.lattice = L
        self.intervals = ivs = line_intervals(L)
        # per interval, per atom: the mask of its witnesses
        self.witnesses = witness_masks(L, ivs)
        self.lower = {p: lower_star(L, p) for p in bits(L.ji_mask)}  # join-irreducible p -> p_*
        # per cover, the points p whose quotient (p_*, p) transposes up to it
        self.transposes = transpose_masks(L)
        self.base = canonical_masks(self.witnesses)  # the canonical base's line masks
        self.j, self.delta, self.i = len(self.lower), L.height, len(ivs)
        self.o = max((iv.n - 1 for iv in ivs), default=1)
        self.mu = sum(iv.n for iv in ivs)
        # (u, v, mask of J(u, v), mask of the qualifying interval indices)
        self.coverings = _coverings(L, ivs)

    @cached_property
    def base_facts(self):
        """(component masks, r*) of the canonical base, isolated points
        included."""
        return mask_components(self.base, self.lattice.ji_mask)

    @property
    def acyclic(self):
        return self.base_facts[1] == 0

    def cyclic_at(self, k):
        """Whether some base of lines has a cycle in its localization at
        the k-th covering u -< v.

        Its witness graph joins each point p of J(u, v) to each qualifying
        interval I that p can represent an atom a of, in colour (I, a).  A
        cycle of a localization passes each line through two of its
        points, which represent different atoms, and each point through
        two lines; so it is a properly coloured cycle of this graph, and
        any such cycle is a cycle of the base that puts those points on
        those lines.  It passes at least three intervals: `witness_masks`
        has checked that two candidate lines share at most one point, so
        two intervals cannot close one."""
        _, _, pts, qual = self.coverings[k]
        if qual.bit_count() < 3:
            return False
        return _has_coloured_cycle([[w & pts for w in self.witnesses[i]] for i in bits(qual)])

    @cached_property
    def _forced(self):
        """Per interval, the mask of the points that its single-option
        slots put on its line in every base; the mask of the indices of
        the intervals with a slot of two or more options; and per point of
        those forced lines, keyed by its bit 1 << p, the mask of the
        indices of the intervals whose forced line holds it."""
        forced = [sum(w for w in ws if not w & (w - 1)) for ws in self.witnesses]
        choosy = sum(1 << i for i, ws in enumerate(self.witnesses) if any(w & (w - 1) for w in ws))
        on = {}
        for i, m in enumerate(forced):
            for p in bits(m):
                on[1 << p] = on.get(1 << p, 0) | 1 << i
        return forced, choosy, on

    def connected_at(self, k):
        """Whether every base of lines has a connected localization at the
        k-th covering u -< v, or None when more than `SEARCH_PARTS` parts
        are left to search.

        There each qualifying line holds the witness of each of its
        (interval, atom) slots that lies in J(u, v).  A point that every
        slot holding it can let go of is isolated in some base.  Else
        single-option slots force every point onto a line, and the forced
        lines cut J(u, v) into parts connected in every base.  Each part is
        flooded out from the lowest point not yet placed: each step ORs in
        the qualifying forced lines, not yet used, through the points the
        last step added, and a part that is all of J(u, v) answers at once.
        A line with a whole slot inside a part touches it in every base,
        so the parts it touches that way merge, until nothing merges.
        Only the part that holds a slot's lowest point can hold the slot,
        so each round maps every point to its part and tests each slot
        against that one part; a slot with a point outside J(u, v) lies in
        none.  With no choice left, the parts are the one base's
        components; else some base is disconnected exactly when a union S
        of parts, with the first and not all, lets every line lie inside S
        or outside it.  The order of the parts changes no answer."""
        _, _, pts, qual = self.coverings[k]
        if not pts & (pts - 1):
            return pts != 0
        forced, choosy, on = self._forced
        # inline bit walks, not `bits`: on the elementary abelian groups
        # this flood is nearly all of the check
        parts, left, unused = [], pts, qual
        while left:
            part = low = left & -left
            lines = on.get(low, 0) & unused
            if not lines:  # the point is on no qualifying forced line
                return False
            while lines:  # the unused lines through the newest points
                unused &= ~lines
                new = 0
                while lines:
                    low = lines & -lines
                    new |= forced[low.bit_length() - 1]
                    lines ^= low
                new &= pts & ~part
                part |= new
                if part == pts:
                    return True
                while new:
                    low = new & -new
                    lines |= on[low]
                    new ^= low
                lines &= unused
            parts.append(part)
            left &= ~part
        if not qual & choosy:
            return False
        slots = [[w for w in self.witnesses[i] if w & pts] for i in bits(qual & choosy)]
        # per line, its slots inside J(u, v), each with its lowest point
        inner = [[(w & -w, w) for w in ws if not w & ~pts] for ws in slots]
        count = 0
        while count != len(parts) > 1:  # one part left merges no further
            count = len(parts)
            part_of = {1 << p: P for P in parts for p in bits(P)}
            touched = []
            for pairs in inner:
                hit = 0
                for low, w in pairs:
                    P = part_of[low]  # the one part that can hold w
                    if not w & ~P:
                        hit |= P
                if hit:
                    touched.append(hit)
            parts = merge_masks(parts + touched)
        if len(parts) > SEARCH_PARTS:
            return None
        unions = [parts[0]]
        for P in parts[1:]:
            unions += [S | P for S in unions]
        for S in unions[:-1]:  # the last is J(u, v); one part has no other
            rest = pts & ~S
            if all(all(w & ~rest for w in ws) or all(w & ~S for w in ws) for ws in slots):
                return False
        return True

    @cached_property
    def first_split(self):
        """The first covering, in cover order, that `connected_at` does
        not find connected, as "covering (u,v) splits in some base" or
        "covering (u,v) undecided"; else None."""
        for k, (u, v, _, _) in enumerate(self.coverings):
            connected = self.connected_at(k)
            if not connected:
                why = "undecided" if connected is None else "splits in some base"
                return f"covering ({u},{v}) {why}"
        return None

    def triangle_at(self, i, j, k):
        """Whether some base of lines makes a triangle of the lines of the
        intervals i, j and k: pairwise meets in three distinct corners.
        That is a properly coloured 6-cycle through the three intervals of
        the witness graph; two lines meet at most once, so a shorter
        cycle does not exist."""
        ws = self.witnesses
        return _has_coloured_cycle([ws[i], ws[j], ws[k]])

    @cached_property
    def locally_acyclic(self):
        """Whether no localization of any base of lines has a cycle."""
        if self.acyclic:
            return True
        return not any(self.cyclic_at(k) for k in range(len(self.coverings)))

    @cached_property
    def some_base_cyclic(self):
        """Whether some base of lines has a cycle, over every base."""
        return _has_coloured_cycle(self.witnesses)

    @cached_property
    def class_partition(self):
        """The points as masks, grouped by the projectivity class of
        (p_*, p): the unions of the transpose masks that share points."""
        return frozenset(merge_masks(self.transposes))

    @cached_property
    def crossing(self):
        """The top of the first interval whose witness span crosses
        projectivity classes, or None (see `check_point_count`)."""
        return next((iv.top for iv, ws in zip(self.intervals, self.witnesses)
                     if all(sum(ws) & ~cls for cls in self.class_partition)), None)

    @cached_property
    def shares(self):
        """Per element, the mask of the points that share a transpose mask
        with it: for a point p, p itself and the points perspective to p."""
        out = [0] * self.lattice.n
        for m in self.transposes:
            for p in bits(m):
                out[p] |= m
        return out

    def perspective(self, p, q):
        """Distinct join-irreducibles with a common upper transpose, that
        is, with some transpose mask holding both."""
        return p != q and self.shares[p] >> q & 1 == 1


def _coverings(L, ivs):
    """Per cover u -< v of L, in cover order, (u, v, mask of J(u, v),
    qual): bit i of `qual` is set when the top of the interval ivs[i] lies
    under v but not under u.  One pass along the linear extension builds
    under[v], the mask of the intervals with top under v."""
    under = [0] * L.n
    for k, iv in enumerate(ivs):
        under[iv.top] = 1 << k
    for v in L.linear_extension:
        for w in L.lower_covers(v):
            under[v] |= under[w]
    down, ji = L.down, L.ji_mask
    return tuple((u, v, down[v] & ~down[u] & ji, under[v] & ~under[u]) for u, v in L.covers)


def _has_coloured_cycle(graph):
    """Whether the witness graph has a properly coloured cycle, one whose
    consecutive edges differ in colour.

    `graph` holds, per interval vertex, its edges to points grouped by
    colour: disjoint point masks, one per atom.  A point's edges go to
    different intervals, so they all differ in colour.  Yeo's theorem
    (A. Yeo, "A note on alternating cycles in edge-coloured graphs", JCTB
    69, 1997): a graph with no such cycle has a vertex z that reaches each
    component of G - z in one colour only.  Such a z is on no such cycle,
    so it is deleted and the search repeats; when no vertex qualifies, a
    cycle exists.  A point on one interval and an interval with one
    colour left qualify outright and go first.  After that only
    intervals need to be tried.  Were only points to qualify, take one,
    p, and a component C of G - p, with C as small as possible over all
    such pairs.  C meets the rest of G only through p, so a vertex that
    qualifies in C, which has no such cycle either, qualifies in G.  It
    is a point, and then one component of G less that point lies inside
    C and is smaller than C, a contradiction.
    """
    graph = [[m for m in colours if m] for colours in graph]
    while True:
        once = twice = 0
        for colours in graph:
            span = sum(colours)
            twice |= once & span
            once |= span
        pruned = [[m & twice for m in colours if m & twice] for colours in graph]
        pruned = [colours for colours in pruned if len(colours) > 1]
        if pruned != graph:
            graph = pruned
            continue
        if not graph:
            return False
        spans = [sum(colours) for colours in graph]
        for h, colours in enumerate(graph):
            rest = merge_masks(spans[:h] + spans[h + 1 :])
            if all(sum(1 for m in colours if m & comp) < 2 for comp in rest):
                del graph[h]
                break
        else:
            return True


# -- parameter profile -------------------------------------------------


class Verdict(NamedTuple):
    name: str
    passed: bool
    detail: str

    def __str__(self):
        flag = "pass" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"


class ParamsReport(NamedTuple):
    """The profile of a lattice: `locally_acyclic` and the verdicts read
    the witness table and the canonical base."""

    j: int
    delta: int
    s: int
    i: int
    o: int
    mu: int
    rstar_canonical: int
    acyclic: bool
    locally_acyclic: bool
    verdicts: tuple

    @property
    def ok(self):
        return all(v.passed for v in self.verdicts)


def component_count(ctx):
    """Number of connected components of the canonical base of lines.

    Cross-computed as the number of projectivity classes met by the
    prime quotients (p_*, p) of join-irreducibles p; the two counts must
    agree, and their common value is the number of congruence-simple
    factors of the lattice.
    """
    from_pls = len(ctx.base_facts[0])
    from_classes = len(ctx.class_partition)
    if from_pls != from_classes:
        raise LatticeError(
            f"component count {from_pls} disagrees with "
            f"projectivity-class count {from_classes}"
        )
    return from_pls


def params(L):
    """Profile the lattice; modularity is required.

    The verdicts bundle the point-count and interval-bound checks for the
    canonical base.  `locally_acyclic` and "acyclicity agrees across
    bases" are decided over every base of lines from the witness table.
    """
    ctx = AnalysisContext(L)
    return ParamsReport(
        j=ctx.j,
        delta=ctx.delta,
        s=component_count(ctx),
        i=ctx.i,
        o=ctx.o,
        mu=ctx.mu,
        rstar_canonical=ctx.base_facts[1],
        acyclic=ctx.acyclic,
        locally_acyclic=ctx.locally_acyclic,
        verdicts=check_point_count(ctx) + check_interval_bounds(ctx),
    )


def check_point_count(ctx):
    """j <= mu - i + s, with equality exactly for acyclic lattices.

    Acyclicity of a finite modular lattice does not depend on the chosen
    base of lines, so every base must agree with the canonical one; that
    is decided over all bases.  An acyclic canonical base agrees when no
    base has a coloured cycle.  A cyclic one agrees when each interval's
    witness span lies in one projectivity class: then every base B has
    s(B) >= c = s(canonical) (`component_count`), so r*(B) = mu - j - i +
    s(B) >= r*(canonical) > 0.  Modularity puts every span in one class:
    for a witness p of the atom a of [x0, x], (p_*, p) transposes up to
    (x0, a), and that up to (b, x) for each other atom b.  So only a
    doctored table has a span that crosses classes; it fails the verdict,
    which names the interval's top.
    """
    j, acyclic = ctx.j, ctx.acyclic
    rhs = ctx.mu - ctx.i + component_count(ctx)
    if acyclic:
        agree, note = not ctx.some_base_cyclic, "some base has a cycle"
    else:
        agree, note = ctx.crossing is None, f"witness span at top {ctx.crossing} crosses classes"
    return (
        Verdict("point count bound", j <= rhs, f"j={j} <= mu-i+s={rhs}"),
        Verdict(
            "point count equality iff acyclic",
            (j == rhs) == acyclic,
            f"j={j}, mu-i+s={rhs}, acyclic={acyclic}",
        ),
        Verdict("acyclicity agrees across bases", agree, "all bases" if agree else note),
    )


def check_interval_bounds(ctx):
    """Bounds linking i, j, delta, s and the splitting number r* of the
    canonical base.

    Every clause whose hypothesis (o <= 2, acyclic, locally acyclic)
    holds is evaluated; the rest are skipped.  Any base B has r*(B) =
    mu - j - i + s(B), so its bounds are these whenever s(B) = s, which
    "components match projectivity" decides for every base.
    """
    i, j, o, delta = ctx.i, ctx.j, ctx.o, ctx.delta
    s = component_count(ctx)
    r = ctx.base_facts[1]
    out = []

    def add(name, passed, detail):
        out.append(Verdict(name, passed, detail))

    add("interval count lower bound", i >= delta - s, f"i={i} >= delta-s={delta - s}")
    add("point count lower bound", j >= 2 * delta - s,
        f"j={j} >= 2delta-s={2 * delta - s}")
    if o <= 2:
        mid = 2 * i + s - r
        add("split-adjusted point bound", j >= mid >= 2 * delta - s,
            f"j={j} >= 2i+s-r*={mid} >= 2delta-s={2 * delta - s}")
        lo, hi = 2 * i + s - j, 2 * i + 2 * s - 2 * delta
        add("split count range", lo <= r <= hi, f"{lo} <= r*={r} <= {hi}")
    if ctx.locally_acyclic:
        add("locally acyclic interval identity", i == delta - s + r,
            f"i={i} = delta-s+r*={delta - s + r}")
        add("locally acyclic point bound", j >= i + delta,
            f"j={j} >= i+delta={i + delta}")
        if o <= 2:
            add("locally acyclic point identity", j == i + delta,
                f"j={j} = i+delta={i + delta}")
    if ctx.acyclic:
        add("acyclic interval identity", i == delta - s, f"i={i} = delta-s={delta - s}")
        if o <= 2:
            add("acyclic point identity", j == 2 * delta - s,
                f"j={j} = 2delta-s={2 * delta - s}")
    return tuple(out)


def is_locally_acyclic(L):
    """Whether every localization of every base of lines is acyclic,
    decided over all bases without enumerating them."""
    return AnalysisContext(L).locally_acyclic


# -- triangle configurations -------------------------------------------


class TriangleConfig(NamedTuple):
    """Three mutually meeting lines plus a transversal, as line masks
    and point ids.

    l1 and l2 meet in s, l3 meets them in p1 and p2, and the transversal
    l4 touches l1, l2, l3 in q, r, p3, none of which is a corner of the
    triangle s, p1, p2.
    """

    l1: int
    l2: int
    l3: int
    l4: int
    s: int
    p1: int
    p2: int
    q: int
    r: int
    p3: int


def _incidences(masks):
    """For the lines given as int `masks`: through[p], the lines through
    point p; and once[i], the lines meeting line i in exactly one point.
    A line j meets line i where through[p] holds j, for p on i; once it
    does so twice it is dropped, as are i and the lines that meet i
    nowhere."""
    through = {}
    for i, a in enumerate(masks):
        for p in bits(a):
            through[p] = through.get(p, 0) | 1 << i
    once = []
    for i, a in enumerate(masks):
        one = two = 0
        for p in bits(a):
            t = through[p]
            two |= one & t
            one |= t
        once.append(one & ~two & ~(1 << i))
    return through, once


def _pairwise_meets(masks):
    """(meets, once, through): meets[i][j], j > i, the bit of the single
    point where lines i and j meet, for j ascending, and `once` and
    `through` as `_incidences` gives them."""
    through, once = _incidences(masks)
    meets = [{j: (a & masks[j]).bit_length() - 1 for j in bits(once[i] & -(2 << i))}
             for i, a in enumerate(masks)]
    return meets, once, through


def _triangles(masks):
    """The triangles among the lines given as int `masks`: index triples
    (i, j, k), i < j < k in lexicographic order, whose lines meet pairwise
    in single points that are three distinct corners, each with its
    corners (ij, ik, jk) as bit positions and the mask of the indices of
    its transversals.  Those are the lines that meet each side in exactly
    one point, less the lines through a corner; a side meets itself in all
    its points, so none is a transversal."""
    meets, once, through = _pairwise_meets(masks)
    for i, mi in enumerate(meets):
        later = list(mi)  # ascending, as inserted
        for a, j in enumerate(later):
            mj = meets[j]
            for k in later[a + 1 :]:
                if k in mj:
                    c, d, e = corners = (mi[j], mi[k], mj[k])
                    if len(set(corners)) == 3:
                        corner_lines = through[c] | through[d] | through[e]
                        yield (i, j, k), corners, once[i] & once[j] & once[k] & ~corner_lines


def _triangle_count(masks):
    """How many triangles `_triangles` yields: lines i < j meeting once,
    in c, and k > j meeting both once but not in c.  Its two meets then
    differ, as a common one would lie on i and j and so be c.  Each such
    pair i, j is found at its one common point c, among the lines through
    c, so no pair of lines that do not meet is looked at."""
    through, once = _incidences(masks)
    count = 0
    for t in through.values():
        for i in bits(t):
            oi = once[i]
            for j in bits(oi & t & -(2 << i)):
                count += (oi & once[j] & ~t & -(2 << j)).bit_count()
    return count


def triangle_configurations(masks):
    """Yield the triangle configurations of the base with line masks
    `masks`, in a deterministic order.

    Each unordered triangle with a qualifying transversal contributes
    three configurations, one per choice of which triangle line plays the
    role of l3 (the side opposite the corner s).
    """
    for (i, j, k), (ij, ik, jk), transversals in _triangles(masks):
        l1, l2, l3 = masks[i], masks[j], masks[k]
        for t in bits(transversals):
            l4 = masks[t]
            c1, c2, c3 = ((l4 & m).bit_length() - 1 for m in (l1, l2, l3))
            # one configuration per choice of the side opposite s
            yield TriangleConfig(l1, l2, l3, l4, ij, ik, jk, c1, c2, c3)
            yield TriangleConfig(l1, l3, l2, l4, ik, ij, jk, c1, c3, c2)
            yield TriangleConfig(l2, l3, l1, l4, jk, ij, ik, c2, c3, c1)


def triangle_configuration_count(masks):
    """How many configurations `triangle_configurations` yields, without
    building them: three per triangle and transversal."""
    return 3 * sum(t.bit_count() for *_, t in _triangles(masks))


def cyclic_localization_witness(L, ivs, masks, config):
    """A covering (a, b) where the localization of the base with line
    masks `masks`, over the intervals `ivs`, contains a cycle.

    Builds u = q + r, requires s not under u, and returns
    (u + s_*, u + s).  Every intermediate fact is checked and a failure
    raises ClaimViolated, which signals a bug or non-modular input.
    """
    s, p1, p2 = config.s, config.p1, config.p2
    q, r, p3 = config.q, config.r, config.p3
    u = L.join(q, r)
    if not (u == L.join(q, p3) == L.join(r, p3)):
        raise ClaimViolated("transversal contacts do not share their join")
    if L.leq(s, u):
        raise ClaimViolated("corner s lies under u = q + r")
    a = L.join(u, lower_star(L, s))
    b = L.join(u, s)
    if b not in L.upper_covers(a):
        raise ClaimViolated(f"{b} does not cover {a}")
    for point in (s, p1, p2):
        if not L.leq(point, b) or L.leq(point, a):
            raise ClaimViolated(f"corner {point} is not in J({a}, {b})")
    pts, trimmed = localize(L, ivs, masks, a, b)
    if mask_components(trimmed, pts)[1] == 0:
        raise ClaimViolated("localization has no cycle")
    return a, b


# -- cycles of line-tops -----------------------------------------------


def _tight_masks(L, tops):
    """Per line-top y, the mask of the line-tops strictly below y but not
    below the bottom of y's interval."""
    mask = sum(1 << t for t in tops)
    return {y: L.down[y] & ~L.down[iv.bottom] & mask & ~(1 << y) for y, iv in tops.items()}


def _top_cycles(below, maxlen):
    """Cycles of line-tops up to rotation and reflection, from the
    tight-below masks of `_tight_masks`.

    Simple cycles of length 3..maxlen in the tight-comparability graph,
    each reported once as a tuple of at least three distinct tops,
    anchored at its smallest top; consecutive tops, wrapping around, are
    tightly comparable.
    """
    above = dict.fromkeys(below, 0)
    for y, m in below.items():
        for x in bits(m):
            above[x] |= 1 << y
    nbr = {x: below[x] | above[x] for x in below}
    found = []

    def walk(path, seen):
        # path is simple, starts at its smallest top, and `seen` masks it
        last = path[-1]
        if len(path) >= 3 and nbr[last] >> path[0] & 1 and path[1] < last:
            found.append(tuple(path))
        if len(path) < maxlen:
            for w in bits(nbr[last] & ~seen & -(2 << path[0])):
                path.append(w)
                walk(path, seen | 1 << w)
                path.pop()

    for start in sorted(below):
        walk([start], 1 << start)
    return found


def _comparable(L, x, y):
    return L.leq(x, y) or L.leq(y, x)


def _blocked_peak(L, tops, v, u, z):
    """v <* u >* z: mutually comparable and sharing the entry into u."""
    if not (_comparable(L, v, z) and _comparable(L, v, u) and _comparable(L, u, z)):
        return False
    # (vi, v) transposes up to (u0, uj) iff uj = v + u0 and vi = v * u0
    u0 = tops[u].bottom
    uj = L.join(v, u0)
    return (
        uj in tops[u].atoms
        and L.join(z, u0) == uj
        and L.meet(v, u0) in tops[v].atoms
        and L.meet(z, u0) in tops[z].atoms
    )


def _blocked_valley(L, tops, v, u, z):
    """v >* u <* z: mutually comparable and sharing the exit out of u."""
    if not (_comparable(L, v, z) and _comparable(L, v, u) and _comparable(L, u, z)):
        return False
    # (uj, u) transposes up to (v0, vi) iff vi = u + v0 and uj = u * v0
    v0, z0 = tops[v].bottom, tops[z].bottom
    uj = L.meet(u, v0)
    return (
        uj in tops[u].atoms
        and L.meet(u, z0) == uj
        and L.join(u, v0) in tops[v].atoms
        and L.join(u, z0) in tops[z].atoms
    )


def _is_clean(L, tops, below, cycle):
    """Whether a cycle of line-tops, as from `_top_cycles`, avoids the
    blocked local patterns.

    Around every peak v <* u >* z and every valley v >* u <* z the three
    tops must not be simultaneously mutually comparable and wired to a
    single covering of u's interval.
    """
    k = len(cycle)
    for idx in range(k):
        v, u, z = cycle[idx - 1], cycle[idx], cycle[(idx + 1) % k]
        into = below[u] >> v & 1
        outof = below[z] >> u & 1
        if into and not outof and _blocked_peak(L, tops, v, u, z):
            return False
        if not into and outof and _blocked_valley(L, tops, v, u, z):
            return False
    return True


# -- whole-lattice verdict suite ---------------------------------------


def check_components_match_projectivity(ctx):
    """Two points share a component of a base iff their quotients are
    projective, in every base of lines.

    The canonical base's components must be the classes, else the first
    pair of points split differently is reported.  Every base B then has
    them when no witness span crosses classes and no covering splits
    (`first_split`): each transpose mask S(a, b) lies in J(a, b), which
    B's localization at a -< b connects, so each class lies in one
    component; and each line lies in its interval's witness span, so
    each component lies in one class."""
    name = "components match projectivity"
    comps = ctx.base_facts[0]
    if set(comps) != ctx.class_partition:
        # the partitions differ, so some pair of points is split differently
        comp_of = {p: k for k, comp in enumerate(comps) for p in bits(comp)}
        class_of = {p: k for k, cls in enumerate(ctx.class_partition) for p in bits(cls)}
        for p, q in combinations(sorted(comp_of), 2):
            same_comp = comp_of[p] == comp_of[q]
            same_class = class_of[p] == class_of[q]
            if same_comp != same_class:
                detail = f"points {p}, {q}: component {same_comp}, class {same_class}"
                return Verdict(name, False, detail)
    if ctx.crossing is not None:
        return Verdict(name, False, f"witness span at top {ctx.crossing} crosses classes")
    if ctx.first_split is not None:
        return Verdict(name, False, ctx.first_split)
    return Verdict(name, True, f"{ctx.j} points agree in every base")


def check_localizations_connected(ctx):
    """Every localization of every base of lines is a single component:
    `connected_at` each covering, in cover order.  A covering that it
    leaves undecided fails the verdict."""
    name = "localizations connected"
    if ctx.first_split is not None:
        return Verdict(name, False, ctx.first_split)
    return Verdict(name, True, f"{len(ctx.coverings)} coverings checked")


def check_line_feet(ctx):
    """On every line of every base, each point pair is perspective and
    p_* + q_* is the bottom of the line's interval.

    Each pair of atoms of each interval is checked over each pair of
    their witnesses, which covers every line.  The count of point pairs
    on the lines of a base is the same for every base."""
    L, lower = ctx.lattice, ctx.lower
    pairs = 0
    for iv, ws in zip(ctx.intervals, ctx.witnesses):
        pairs += len(ws) * (len(ws) - 1) // 2
        for wa, wb in combinations(ws, 2):
            for x in bits(wa):
                for y in bits(wb):
                    p, q = min(x, y), max(x, y)
                    if L.join(lower[p], lower[q]) != iv.bottom:
                        return Verdict(
                            "line feet", False, f"p_*+q_* misses the foot for {p},{q}"
                        )
                    if not ctx.perspective(p, q):
                        return Verdict(
                            "line feet", False, f"{p},{q} on a line but not perspective"
                        )
    return Verdict("line feet", True, f"{pairs} point pairs checked")


def check_triangle_tops(ctx):
    """The tops of a three-line cycle are never mutually comparable, in
    any base of lines.

    Only intervals with pairwise comparable tops can fail, so each such
    triple is asked whether some base makes a triangle of its lines.  The
    lines of a triangle meet pairwise, so a triple is asked only when
    each two of its intervals share a point of their witness spans (the
    points that can lie on their lines).  The pass detail counts the
    triangles of the canonical base."""
    up, down = ctx.lattice.up, ctx.lattice.down
    index = {iv.top: k for k, iv in enumerate(ctx.intervals)}
    span = {iv.top: sum(ws) for iv, ws in zip(ctx.intervals, ctx.witnesses)}
    tops = sum(1 << t for t in index)
    # per top, the later tops comparable with it whose spans meet its
    # own (index grows with the top)
    later = {
        t: sum(1 << u for u in bits((up[t] | down[t]) & tops & -(2 << t)) if span[u] & span[t])
        for t in index
    }
    for ta in index:
        for tb in bits(later[ta]):
            for tc in bits(later[ta] & later[tb]):
                if ctx.triangle_at(index[ta], index[tb], index[tc]):
                    return Verdict(
                        "triangle tops incomparable",
                        False,
                        f"tops {ta},{tb},{tc} are mutually comparable",
                    )
    return Verdict("triangle tops incomparable", True, f"{_triangle_count(ctx.base)} triangles")


def check_perspective_intervals(ctx):
    """Perspective pairs p, q land in the line interval [p_*+q_*, p+q].
    The pairs are walked in order: each point p with the points above p
    in its `shares` mask."""
    L, lower, shares = ctx.lattice, ctx.lower, ctx.shares
    ivs = {iv.top: iv for iv in ctx.intervals}
    tried = 0
    for p in lower:
        for q in bits(shares[p] & -(2 << p)):
            tried += 1
            top = L.join(p, q)
            iv = ivs.get(top)
            msg = None
            if iv is None:
                msg = f"join {top} of {p},{q} is not a line-top"
            elif iv.bottom != L.join(lower[p], lower[q]):
                msg = f"interval at {top} does not start at p_*+q_*"
            elif L.join(iv.bottom, p) not in iv.atoms or L.join(iv.bottom, q) not in iv.atoms:
                msg = f"{p} or {q} misses the middle layer at {top}"
            if msg:
                return Verdict("perspective pairs span line intervals", False, msg)
    return Verdict(
        "perspective pairs span line intervals", True, f"{tried} pairs"
    )


def check_join_witness(L):
    """r in J(a, a+q) with q, r incomparable forces some p in J(a) with
    p + q = r + q.

    One sweep up `L.linear_extension` asks this of every point q at once.
    The points are numbered 0..m-1, and the masks over them, one per q,
    are the fields of one packed int, each a whole number of bytes wide.
    ok[a] holds, per q, the points r with r + q = p + q for some point
    p <= a: the OR of ok[b] over a's lower covers b, and for a point a its
    class under t -> t + q.  The r to test at a are the packed J(a + q),
    less J(a) and the points comparable with q; for q <= a that field is
    0.  A join x + y is named by its up-set, up(x) & up(y), so J(a + q) is
    looked up as bytes by that mask.  That needs no modularity.  Each a is
    one mask test, and a failure reports the least (a, q, r)."""
    up = L.up
    pts = tuple(bits(L.ji_mask))
    ups = [up[q] for q in pts]
    size = (len(pts) + 7) // 8  # bytes per field
    width = 8 * size
    dj = [0] * L.n  # per element, the numbers of the points under it
    for i, p in enumerate(pts):
        dj[p] = 1 << i
    for a in L.linear_extension:
        for b in L.lower_covers(a):
            dj[a] |= dj[b]
    # per point, ok starts as its class; `off` holds, per q, the points
    # incomparable with q, and `rep` a 1 in every field
    ok, off, rep = [0] * L.n, 0, 0
    for j, uq in enumerate(ups):
        tops = [ut & uq for ut in ups]  # the up-sets of the t + q
        same, apart = {}, 0
        for i, (ut, x) in enumerate(zip(ups, tops)):
            same[x] = same.get(x, 0) | 1 << i
            if x != ut and x != uq:
                apart |= 1 << i
        shift = width * j
        for t, x in zip(pts, tops):
            ok[t] |= same[x] << shift
        off |= apart << shift
        rep |= 1 << shift
    under = {up[x]: d.to_bytes(size, "little") for x, d in enumerate(dj)}
    tried, fails = 0, []
    for a in L.linear_extension:
        have = ok[a]
        for b in L.lower_covers(a):
            have |= ok[b]
        ok[a] = have
        ua = up[a]
        rs = int.from_bytes(b"".join([under[ua & uq] for uq in ups]), "little")
        rs &= off & ~(dj[a] * rep)
        tried += rs.bit_count()
        bad = rs & ~have
        if bad:
            j, i = divmod((bad & -bad).bit_length() - 1, width)
            fails.append((a, pts[j], pts[i]))
    msg = fails and "a={}, q={}, r={}: no witness".format(*min(fails))
    return Verdict("join witness below a", not fails, msg or f"{tried} triples checked")


def check_clean_cycles(ctx):
    """A clean cycle of line-tops forces cycles in the bases of lines.
    Only an acyclic canonical base can fail this, so a cyclic one passes
    at once: listing its cycles of at most 8 line-tops may take minutes
    (Z16xZ16)."""
    name = "clean cycles force base cycles"
    if not ctx.acyclic:
        return Verdict(name, True, "base cyclic, so nothing to force")
    L = ctx.lattice
    tops = {iv.top: iv for iv in ctx.intervals}
    below = _tight_masks(L, tops)
    cycles = _top_cycles(below, 8)
    clean = [c for c in cycles if _is_clean(L, tops, below, c)]
    if not clean:
        return Verdict(name, True, f"untriggered ({len(cycles)} cycles, none clean)")
    return Verdict(name, False, f"{len(clean)} clean of {len(cycles)} cycles; base cyclic=False")


def verdict_suite(L):
    """Every check the module knows, each asked once, over every base of
    lines; none lists bases.  Every base has the canonical base's r*,
    given the components check, so "split counts observed" lists it."""
    ctx = AnalysisContext(L)
    return (
        *check_point_count(ctx),
        *check_interval_bounds(ctx),
        Verdict("split counts observed", True, f"r* values [{ctx.base_facts[1]}]"),
        check_components_match_projectivity(ctx),
        check_localizations_connected(ctx),
        check_line_feet(ctx),
        check_triangle_tops(ctx),
        check_perspective_intervals(ctx),
        check_join_witness(L),
        check_clean_cycles(ctx),
    )
