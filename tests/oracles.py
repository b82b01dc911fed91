"""What the tests check the package against, and the inputs they build.

Three kinds of code live here:

- references: independent, deliberately brute-force implementations of
  what a package function computes (the closed ideals, the enumerator
  without its shortcuts, union-find components and r*, exhaustive
  splittings and the acyclifier, transpositions and projectivity
  classes, group addition (`group_add`, for `_Numbered.translate`),
  brute-force subgroups and closed forms, the modular law, the per-base
  choices of lines, Horn closures).  A reference never calls
  the function it is the reference for.  It may call package code that
  it does not check: the checked constructors (`validate_pls`,
  `make_row`), the queries of a `Lattice`, and, in the enumerator
  references, `seed_order_ideals`, `impose_line` and `_try_merge`.
- input builders: random posets, rows, structures and families, the
  Fano plane, the enumerator's input for a group, and writers of the JSON the command line reads (`poset_to_json`,
  `pls_to_json`, `set_system_to_text`).  These may call the package,
  since they only make inputs.
- converters, which put the package's int masks in the form the
  references are written on: `rowset_bitstrings`, a row set's strings as
  the 0/1 tuples `brute_closed_ideals` lists, and `mask_set`, the
  frozenset of a mask's points (a closed-family member, a set of a set
  system, a join-irreducible A_v).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import gcd

from modlat.algebra import subgroup_lattice
from modlat.lattice import LatticeError, bits
from modlat.pls import TwoPointIntersection, _pkey, validate_pls
from modlat.rebuild import enumeration_data
from modlat.rebuild import Implication
from modlat import wildcard
from modlat.wildcard import FIXED0, FIXED1, FREE, GroupSpec, make_row


# -- constrained order ideals -------------------------------------------


def line_admits(bits, line):
    hits = sum(bits[p] for p in line)
    return hits <= 1 or hits == len(line)


def is_down_closed(poset, string):
    return all(string[a] >= string[b] for a, b in poset.covers)


def brute_closed_ideals(poset, lines):
    """All bitstrings that are downward closed and satisfy every line."""
    out = set()
    for string in product((0, 1), repeat=poset.width):
        if is_down_closed(poset, string) and all(line_admits(string, l) for l in lines):
            out.add(string)
    return out


def rowset_bitstrings(rowset):
    """The strings of `wildcard.rowset_masks`, as tuples of 0s and 1s, the
    form `brute_closed_ideals` lists."""
    return {
        tuple([s >> p & 1 for p in range(rowset.width)]) for s in wildcard.rowset_masks(rowset)
    }


def mask_set(mask, labels=None):
    """The frozenset of the points of an int mask: `labels[i]` for bit i,
    or i itself when no labels are given."""
    return frozenset(bits(mask) if labels is None else (labels[i] for i in bits(mask)))


def poset_to_json(poset):
    """The poset as `wildcard.poset_from_json` reads it: each point by its
    label, p1, p2, ... for a poset without labels."""
    label = poset.labels.__getitem__ if poset.labels else lambda p: f"p{p + 1}"
    return {
        "points": [label(p) for p in range(poset.width)],
        "covers": [[label(a), label(b)] for a, b in poset.covers],
    }


def random_poset_covers(rng, width):
    """A random strict order on 0..width-1, returned as cover pairs."""
    below = [set() for _ in range(width)]
    for b in range(width):
        for a in range(b):
            if rng.random() < 0.3:
                below[b].add(a)
    for b in range(width):
        stack = list(below[b])
        while stack:
            a = stack.pop()
            for c in below[a] - below[b]:
                below[b].add(c)
                stack.append(c)
    covers = []
    for b in range(width):
        for a in below[b]:
            if not any(a in below[m] for m in below[b]):
                covers.append((a, b))
    return sorted(covers)


def random_lines(rng, width, max_lines=3):
    lines = []
    for _ in range(rng.randint(0, max_lines)):
        if width < 2:
            break
        size = rng.randint(2, min(4, width))
        lines.append(tuple(sorted(rng.sample(range(width), size))))
    return lines


# -- rows ----------------------------------------------------------------


def random_row(rng, width):
    """A random valid Row: disjoint groups over some cells, the rest
    fixed or free."""
    pos = list(range(width))
    rng.shuffle(pos)
    cells = [FREE] * width
    groups = []
    i = 0
    while i < len(pos):
        if rng.random() < 0.45 and len(pos) - i >= 2:
            size = rng.randint(2, min(4, len(pos) - i))
            mem = tuple(sorted(pos[i : i + size]))
            i += size
            kind = rng.choice(("imp", "d", "eps", "g", "ell"))
            members = sum(1 << p for p in mem)
            if kind == "imp":
                picks = list(mem)
                rng.shuffle(picks)
                cut = rng.randint(1, size - 1)
                spec = GroupSpec("imp", members, sum(1 << p for p in picks[:cut]))
            else:
                spec = GroupSpec(kind, members)
            gid = len(groups)
            groups.append(spec)
            for p in mem:
                cells[p] = gid
        else:
            cells[pos[i]] = rng.choice((FIXED0, FIXED1, FREE, FREE))
            i += 1
    return make_row(width, cells, tuple(groups))


def group_admits(spec, ones):
    """Whether the valuation setting the members in `ones` to 1 is one
    the group admits."""
    x = ones & spec.members
    single = not x & (x - 1)
    if spec.kind == "d":
        return x in (0, spec.members)
    if spec.kind == "eps":
        return single
    if spec.kind == "g":
        return x != 0 and single
    if spec.kind == "ell":
        return single or x == spec.members
    return not x & spec.premise or not spec.conclusion & ~x


def contains(row, string):
    """Whether the bitstring `string` is one of the row's members."""
    if len(string) != row.width:
        return False
    ones = sum(1 << p for p, b in enumerate(string) if b)
    if ones & row.zeros or row.ones & ~ones:
        return False
    return all(group_admits(spec, ones) for spec in row.groups)


class LinearStore:
    """The final-row store as a linear scan: an arriving row is tried
    against every stored row in arrival order with `_try_merge`, the scan
    restarting after each merge, and the row finally kept goes to the end.
    The reference for `wildcard.FinalRows`."""

    def __init__(self):
        self.finals, self.labels, self.provenance = [], [], []
        self.merges = 0

    def add(self, row, label):
        why = "exhausted"
        i = 0
        while i < len(self.finals):
            merged = wildcard._try_merge(self.finals[i], row)
            if merged is not None:
                self.merges += 1
                why = f"merge({self.labels[i]},{label})"
                del self.finals[i], self.labels[i], self.provenance[i]
                row = merged
                i = 0
                continue
            i += 1
        self.finals.append(row)
        self.labels.append(label)
        self.provenance.append(why)


def plain_enumerate(poset, lines):
    """`enumerate_ideals` without its shortcuts: every row meets every
    line through `impose_line`, a row dies only when an imposition
    returns nothing, and final rows go to a `LinearStore`.  Its rows are
    the reference for the pruned and skipping enumerator; its labels and
    provenance number every row the plain traversal makes."""
    line_sets = [tuple(sorted(set(int(p) for p in line))) for line in lines]
    seeds = wildcard.seed_order_ideals(poset)
    counter = len(seeds.rows)
    stack = [(row, 0, lab) for row, lab in zip(seeds.rows, seeds.labels)]
    stack.reverse()
    store = LinearStore()

    while stack:
        row, k, label = stack.pop()
        if k == len(line_sets):
            store.add(row, label)
            continue
        parts = wildcard.impose_line(row, line_sets[k])
        if len(parts) == 1 and parts[0].same_content(row):
            stack.append((parts[0], k + 1, label))
            continue
        for i in reversed(range(len(parts))):
            stack.append((parts[i], k + 1, f"r{counter + 1 + i}"))
        counter += len(parts)
    return wildcard.RowSet(
        poset.width, tuple(store.finals), tuple(store.labels), tuple(store.provenance)
    )


def scanning_enumerate(poset, lines):
    """`enumerate_ideals` with each popped row's line standing found by a
    scan: every line from k on is tested on the row's own fixed cells,
    with no memo of the lines that held above it.  A row is pruned when
    one of them holds two fixed 1s and a fixed 0, and the cursor steps
    over the lines that hold; final rows go to a `LinearStore`.  The
    reference for the enumerator's rows, labels, provenance and stats."""
    line_sets = [tuple(sorted(set(int(p) for p in line))) for line in lines]
    masks = [sum(1 << p for p in line) for line in line_sets]
    seeds = wildcard.seed_order_ideals(poset)
    counter = len(seeds.rows)
    stack = [(row, 0, lab) for row, lab in zip(seeds.rows, seeds.labels)]
    stack.reverse()
    store = LinearStore()
    sizes = Counter()
    skipped = pruned = noops = violations = 0
    peak = len(stack)

    def holds(row, m):
        ones = (row.ones & m).bit_count()
        undet = (m & ~(row.ones | row.zeros)).bit_count()
        return ones == m.bit_count() or ones <= 1 and not undet or not ones and undet <= 1

    while stack:
        row, k, label = stack.pop()
        if any((row.ones & m).bit_count() >= 2 and row.zeros & m for m in masks[k:]):
            pruned += 1
            continue
        start = k
        while k < len(masks) and holds(row, masks[k]):
            k += 1
        skipped += k - start
        if k == len(masks):
            store.add(row, label)
            continue
        parts = wildcard.impose_line(row, line_sets[k])
        sizes[len(parts)] += 1
        violations += len(parts) > len(line_sets[k]) + 2
        if len(parts) == 1 and parts[0].same_content(row):
            noops += 1
            stack.append((parts[0], k + 1, label))
            continue
        for i in reversed(range(len(parts))):
            stack.append((parts[i], k + 1, f"r{counter + 1 + i}"))
        counter += len(parts)
        peak = max(peak, len(stack))
    stats = wildcard.EnumStats(
        seeds=len(seeds.rows),
        impositions=sum(sizes.values()),
        noop_impositions=noops,
        skipped=skipped,
        split_sizes=dict(sorted(sizes.items())),
        split_bound_violations=violations,
        dead_rows=sizes[0],
        pruned_rows=pruned,
        merges=store.merges,
        peak_stack=peak,
    )
    return wildcard.RowSet(
        poset.width, tuple(store.finals), tuple(store.labels), tuple(store.provenance), stats
    )


# -- partial linear spaces ----------------------------------------------


def random_pls(rng, max_lines=8, max_points=10):
    points = list(range(rng.randint(2, max_points)))
    lines = []
    for _ in range(rng.randint(0, max_lines)):
        size = rng.randint(2, min(4, len(points)))
        for _attempt in range(20):
            cand = frozenset(rng.sample(points, size))
            if cand in lines or any(len(cand & l) > 1 for l in lines):
                continue
            lines.append(cand)
            break
    return validate_pls(points, lines)


def fano_pls():
    """The seven-point plane: every pair of points on exactly one line."""
    lines = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]
    return validate_pls(range(1, 8), [frozenset(l) for l in lines])


def union_find_components(P):
    """Components of P's point set, isolated points included, by union-find
    on the points: frozensets ordered by their least point in `_pkey` order."""
    parent = {p: p for p in P.points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for line in P.lines:
        pts = sorted(line, key=_pkey)
        for q in pts[1:]:
            rp, rq = find(pts[0]), find(q)
            if rp != rq:
                parent[rq] = rp
    groups = {}
    for p in P.points:
        groups.setdefault(find(p), set()).add(p)
    comps = [frozenset(g) for g in groups.values()]
    return sorted(comps, key=lambda c: _pkey(min(c, key=_pkey)))


def union_find_rstar(P):
    """E - V + c of P's incidence graph, c from `union_find_components`."""
    e = sum(len(line) for line in P.lines)
    v = len(P.points) + len(P.lines)
    c = len(union_find_components(P)) if P.points else 0
    return e - v + c


def _incidence_graph(P):
    """(vertex count, incidences) of P's incidence graph: points are the
    vertices 0.., in `_pkey` order, lines follow, and each incidence is a
    (line vertex, point vertex) pair."""
    pts = sorted(P.points, key=_pkey)
    index = {p: i for i, p in enumerate(pts)}
    edges = [
        (len(pts) + li, index[p])
        for li, line in enumerate(P.lines)
        for p in sorted(line, key=_pkey)
    ]
    return len(pts) + len(P.lines), edges


def _detached_forest_components(n, edges, removed):
    """The component count of the incidence graph (`n` vertices, `edges`)
    after detaching the incidences in `removed` onto fresh pendant
    vertices, or None if that graph has a cycle.  Fresh pendants hang off
    their line, so only the original vertices are counted."""
    parent = list(range(n + len(edges)))  # incidence i's pendant is n + i

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (line, p) in enumerate(edges):
        ra, rb = find(line), find(n + i if i in removed else p)
        if ra == rb:
            return None
        parent[ra] = rb
    return len({find(v) for v in range(n)})


def min_splittings(P, limit):
    """Fewest detachments that leave a forest with the original component
    count, by exhaustive subset search.  None if above `limit`."""
    n, edges = _incidence_graph(P)
    base = len(union_find_components(P))  # every line holds a point
    for k in range(limit + 1):
        for removed in combinations(range(len(edges)), k):
            if _detached_forest_components(n, edges, set(removed)) == base:
                return k
    return None


# Point ids of the form "+k" are reserved for the points that
# `split_point` mints, so the structures split here avoid that shape.


class PointNotOnLine(Exception):
    pass


def fresh_point(P):
    """Next unused id from the reserved "+k" namespace."""
    used = -1
    for p in P.points:
        if isinstance(p, str) and p.startswith("+") and p[1:].isdigit():
            used = max(used, int(p[1:]))
    return f"+{used + 1}"


def split_point(P, line_index, point):
    """Detach `point` from one line, replacing it there by a fresh point.

    Every other incidence is untouched, so the incidence count is kept,
    and so is the component count when the split incidence lay on a
    cycle."""
    if point not in P.lines[line_index]:
        raise PointNotOnLine(f"point {point!r} is not on line {line_index}")
    new = fresh_point(P)
    lines = list(P.lines)
    lines[line_index] = (lines[line_index] - {point}) | {new}
    return validate_pls(P.points | {new}, lines)


def acyclifier(P):
    """A splitting sequence that makes P acyclic and keeps its components
    (§7), as [(line index, point), ...] for `split_point`, in order.

    One union-find pass over the incidences of each line in turn, its
    points in `_pkey` order: an incidence whose line and point are
    already joined closes a cycle, so it is split; any other joins them.
    The incidences kept form a spanning forest of the incidence graph, so
    the splits number E - V + c, the r* of P; each lies on a cycle of
    the structure current when it is made, which still holds the forest."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for li, line in enumerate(P.lines):
        for p in sorted(line, key=_pkey):
            a, b = find(("line", li)), find(("point", p))
            if a == b:
                out.append((li, p))
            else:
                parent[a] = b
    return out


def pls_to_json(P):
    """P as `modlat.pls.pls_from_json` reads it: points and each line's
    points in `_pkey` order."""
    return {
        "points": P.sorted_points(),
        "lines": [sorted(line, key=_pkey) for line in P.lines],
    }


def cycle_is_valid(P, cyc):
    """Consecutive lines of the `PlsCycle` really meet in the stated
    junction, and no line or junction repeats."""
    k = len(cyc.lines)
    if k < 3 or len(cyc.junctions) != k:
        return False
    if len(set(cyc.lines)) != k or len(set(cyc.junctions)) != k:
        return False
    for i in range(k):
        a, b = cyc.lines[i], cyc.lines[(i + 1) % k]
        p = cyc.junctions[i]
        if p not in P.lines[a] or p not in P.lines[b]:
            return False
    return True


def set_system_to_text(sys):
    """The 0/1 matrix `modlat.algebra.parse_set_system` reads back."""
    out = []
    for s in sys.sets:
        out.append("".join(str(s >> i & 1) for i in range(len(sys.universe))))
    return "\n".join(out) + "\n"


# -- lattices -------------------------------------------------------------


def ji_below(L, a):
    """The join-irreducibles p with p <= a, ascending, read off the masks."""
    return tuple(p for p in range(L.n) if (L.down[a] & L.ji_mask) >> p & 1)


def ji_between(L, a, b):
    """The join-irreducibles p with p <= b but p not<= a, ascending, read
    off the masks `down` and `ji_mask`."""
    m = L.down[b] & ~L.down[a] & L.ji_mask
    return tuple(p for p in range(L.n) if m >> p & 1)


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
    pairs = (
        (c, L.join(b, c))
        for c in range(L.n)
        if L.leq(a, c) and not L.leq(b, c) and L.meet(b, c) == a
    )
    covers = set(L.covers)
    return [pair for pair in pairs if pair in covers]


def projectivity_partition(L):
    """The prime quotients of L partitioned under up/down transposition,
    by testing every pair of covers; classes ordered by their least
    quotient."""
    classes = [{q} for q in L.covers]
    for q1, q2 in combinations(L.covers, 2):
        if transposes_up(L, q1, q2) or transposes_up(L, q2, q1):
            c1 = next(c for c in classes if q1 in c)
            c2 = next(c for c in classes if q2 in c)
            if c1 is not c2:
                c1 |= c2
                classes.remove(c2)
    return sorted((frozenset(c) for c in classes), key=min)


def random_intersection_closed(rng, width):
    """A random family of subsets of 0..width-1 that holds the whole set
    and is closed under intersection, hence a lattice under inclusion;
    returns (n, covers) with the members sorted by size, then mask."""
    fam = {(1 << width) - 1} | {rng.getrandbits(width) for _ in range(rng.randint(2, 8))}
    grown = True
    while grown:
        new = {a & b for a in fam for b in fam} - fam
        fam |= new
        grown = bool(new)
    members = sorted(fam, key=lambda m: (m.bit_count(), m))
    covers = []
    for j, b in enumerate(members):
        below = [i for i, a in enumerate(members) if a != b and a & b == a]
        covers += [
            (i, j) for i in below
            if not any(members[i] & members[k] == members[i] for k in below if k != i)
        ]
    return len(members), covers


def identity_modular(L):
    """Whether x <= z implies x + (y*z) = (x+y)*z for all x, y, z: the
    modular law itself, checked over every triple."""
    for z in range(L.n):
        for x in range(L.n):
            if not L.leq(x, z):
                continue
            for y in range(L.n):
                if L.join(x, L.meet(y, z)) != L.meet(L.join(x, y), z):
                    return False
    return True


def join_witness_failure(L):
    """(triples tried, first (a, q, r) with q, r incomparable join-
    irreducibles, r in J(a, a+q), and no join-irreducible p <= a with
    p + q = r + q, or None), scanning a, q and r in ascending order."""
    jis = [p for p in range(L.n) if len(L.lower_covers(p)) == 1]
    tried = 0
    for a in range(L.n):
        for q in jis:
            if L.leq(q, a):
                continue
            for r in jis:
                if L.leq(r, q) or L.leq(q, r) or L.leq(r, a) or not L.leq(r, L.join(a, q)):
                    continue
                tried += 1
                if not any(L.join(p, q) == L.join(r, q) for p in jis if L.leq(p, a)):
                    return tried, (a, q, r)
    return tried, None


# -- choices of lines ------------------------------------------------------
#
# A line of the line interval iv takes, for each atom a of iv, one
# join-irreducible under a but not under the bottom of iv.  The functions
# below enumerate such choices outright.


def _ji_list(L):
    return [p for p in range(L.n) if len(L.lower_covers(p)) == 1]


def line_choices(L, iv, pts=None):
    """Every line of the interval iv, as frozensets, kept to the points
    `pts` (all join-irreducibles by default); an atom with no witness in
    `pts` adds nothing."""
    pts = _ji_list(L) if pts is None else pts
    per_atom = [[p for p in pts if L.leq(p, a) and not L.leq(p, iv.bottom)] for a in iv.atoms]
    return [frozenset(c) for c in product(*[ws for ws in per_atom if ws])]


def localization_choices(L, intervals, u, v):
    """Per interval whose top is under v but not under u, every line of it
    kept to J(u, v): the lines a base's localization at u -< v can hold."""
    pts = [p for p in _ji_list(L) if L.leq(p, v) and not L.leq(p, u)]
    return [
        line_choices(L, iv, pts)
        for iv in intervals
        if L.leq(iv.top, v) and not L.leq(iv.top, u)
    ]


def localize(L, lines, tops, a, b):
    """The localization at the covering a -< b of the base with the
    frozenset `lines` and their `tops`, as a checked partial linear
    space: the join-irreducibles under b but not under a, and each line
    whose top is, cut down to them."""
    if (a, b) not in L.covers:
        raise LatticeError(f"{b} does not cover {a}")
    pts = frozenset(p for p in _ji_list(L) if L.leq(p, b) and not L.leq(p, a))
    trimmed = []
    for line, top in zip(lines, tops):
        if L.leq(top, b) and not L.leq(top, a):
            if len(line - pts) != 1:
                raise LatticeError(f"a qualifying line loses {len(line - pts)} points")
            trimmed.append(line & pts)
    return validate_pls(pts, trimmed)


def triangle_configurations(lines):
    """Every triangle configuration of the frozenset `lines`, listed.

    Per index triple i < j < k in lexicographic order whose lines meet
    pairwise in one point each, at three distinct corners, and per other
    line t in index order that meets each side in one point, none a
    corner: three tuples (l1, l2, l3, l4, s, p1, p2, q, r, p3), one per
    side l3 opposite the corner s = l1 & l2, with l4 = lines[t]."""

    def meet(x, y):
        common = x & y
        return next(iter(common)) if len(common) == 1 else None

    out = []
    for tri in combinations(range(len(lines)), 3):
        sides = [lines[i] for i in tri]
        corners = [meet(x, y) for x, y in combinations(sides, 2)]
        if None in corners or len(set(corners)) != 3:
            continue
        for t, l4 in enumerate(lines):
            contacts = [meet(l4, side) for side in sides]
            if t in tri or any(c is None or c in corners for c in contacts):
                continue
            for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                lx, ly, lz = sides[x], sides[y], sides[z]
                out.append((lx, ly, lz, l4, meet(lx, ly), meet(lx, lz), meet(ly, lz),
                            contacts[x], contacts[y], contacts[z]))
    return out


def check_candidate_lines(candidates):
    """Raise TwoPointIntersection unless any two candidate lines of
    different intervals share at most one point, trying every pair.
    `candidates` holds, per interval, its candidate lines as int masks."""
    for i, ci in enumerate(candidates):
        for j in range(i + 1, len(candidates)):
            for a in ci:
                for b in candidates[j]:
                    c = a & b
                    if c & (c - 1):
                        shared = [p for p in range(c.bit_length()) if c >> p & 1]
                        raise TwoPointIntersection(
                            f"candidate lines of intervals {i} and {j} share {shared}"
                        )


def candidate_lines(witnesses):
    """Per interval of a witness table, every line as an int mask: one
    point of each atom mask."""
    out = []
    for ws in witnesses:
        per_atom = [[p for p in range(w.bit_length()) if w >> p & 1] for w in ws]
        out.append([sum(1 << p for p in c) for c in product(*per_atom)])
    return out


def choice_count(choices):
    count = 1
    for lines in choices:
        count *= len(lines)
    return count


def some_choice_has_a_cycle(choices):
    """Whether some choice of one line per list gives a point-line
    structure with a cycle, trying every choice."""
    return _some_choice(choices, cyclic=True)


def every_choice_has_a_cycle(choices):
    """Whether every choice of one line per list gives a point-line
    structure with a cycle, trying every choice."""
    return not _some_choice(choices, cyclic=False)


def _some_choice(choices, cyclic):
    """Whether some choice of one line per list gives a structure that has
    a cycle (`cyclic`) or none.  Choices share their prefixes; a line that
    joins two points already connected closes a cycle, and then every
    completion has one."""

    def find(parent, p):
        while parent.get(p, p) != p:
            p = parent[p]
        return p

    def extend(k, parent):
        if k == len(choices):
            return not cyclic
        for line in choices[k]:
            roots = {find(parent, p) for p in line}
            if len(roots) < len(line):
                if cyclic:
                    return True
                continue
            grown = dict(parent)
            first, *rest = roots
            for r in rest:
                grown[r] = first
            if extend(k + 1, grown):
                return True
        return False

    return extend(0, {})


def every_choice_is_connected(choices, pts):
    """Whether every choice of one frozenset line per list connects the
    points `pts`, isolated points counting as components, trying every
    choice.  Choices share their prefixes, and once a prefix connects
    `pts`, every completion does."""

    def extend(k, comps):
        if len(comps) == 1 or k == len(choices):
            return len(comps) == 1
        for line in choices[k]:
            touched = [c for c in comps if c & line]
            rest = [c for c in comps if not c & line]
            if not extend(k + 1, (rest + [line.union(*touched)]) if line else comps):
                return False
        return True

    return extend(0, [frozenset([p]) for p in pts])


def some_choice_is_a_triangle(choices):
    """Whether some choice of one line from each of three lists gives
    three lines that meet pairwise in single points, at three distinct
    corners, trying every choice."""
    first, second, third = choices
    for a in first:
        for b in second:
            ab = a & b
            if len(ab) != 1:
                continue
            for c in third:
                ac, bc = a & c, b & c
                if len(ac) == 1 and len(bc) == 1 and len(ab | ac | bc) == 3:
                    return True
    return False


def blocked_by_transposition(L, tops, v, u, z, peak):
    """Whether line-tops v, u, z are mutually comparable and, for a peak,
    some prime quotient (vi, v) and some (zk, z) both transpose up to one
    (u0, uj) of u's interval; for a valley, (uj, u) transposes up to
    some (v0, vi) and to some (z0, zk).  Every atom is tried."""
    if not all(L.leq(a, b) or L.leq(b, a) for a, b in ((v, z), (v, u), (u, z))):
        return False
    if peak:
        return any(
            any(transposes_up(L, (vi, v), (tops[u].bottom, uj)) for vi in tops[v].atoms)
            and any(transposes_up(L, (zk, z), (tops[u].bottom, uj)) for zk in tops[z].atoms)
            for uj in tops[u].atoms
        )
    return any(
        any(transposes_up(L, (uj, u), (tops[v].bottom, vi)) for vi in tops[v].atoms)
        and any(transposes_up(L, (uj, u), (tops[z].bottom, zk)) for zk in tops[z].atoms)
        for uj in tops[u].atoms
    )


# -- groups --------------------------------------------------------------


def group_add(G, x, y):
    """x + y in the group G, on element tuples."""
    return tuple((a + b) % f for a, b, f in zip(x, y, G.factors))


def enumeration_input(G):
    """The ground data the ideal enumerator needs for G: the poset of the
    join-irreducible subgroups and the sorted lines of the canonical base
    of lines, both read off the subgroup lattice."""
    poset, _, lines = enumeration_data(subgroup_lattice(G))
    return poset, sorted(lines)


def brute_subgroups(factors):
    """Every subgroup of Z_f1 x ... x Z_fk, as frozensets of tuples: the
    trivial subgroup closed under adding any one element to the
    generators of a known subgroup."""
    factors = tuple(factors)
    elems = list(product(*[range(n) for n in factors]))
    zero = tuple(0 for _ in factors)

    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, factors))

    def closure(gens):
        # in a finite group the sums of generators already form a subgroup
        seen = {zero}
        frontier = [zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                z = add(x, g)
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
        return frozenset(seen)

    trivial = closure([])
    subs = {trivial: ()}
    frontier = [trivial]
    while frontier:
        H = frontier.pop()
        for g in elems:
            if g in H:
                continue
            gens = subs[H] + (g,)
            K = closure(gens)
            if K not in subs:
                subs[K] = gens
                frontier.append(K)
    return set(subs)


def gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_abelian_subgroup_count(p, n):
    """Subgroups of Z_p^n: the subspaces of GF(p)^n."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def rank_two_subgroup_count(m, n):
    """Subgroups of Z_m x Z_n: the sum of gcd(a, b) over the divisors a of m
    and b of n (Hampejs, Holighaus, Toth and Wiesmeyr)."""
    return sum(
        gcd(a, b)
        for a in range(1, m + 1)
        if m % a == 0
        for b in range(1, n + 1)
        if n % b == 0
    )


def order_relation(n, covers):
    """leq[a][b] for the reflexive-transitive closure of the cover pairs."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        leq[a][b] = True
    for k in range(n):
        for a in range(n):
            if leq[a][k]:
                for b in range(n):
                    if leq[k][b]:
                        leq[a][b] = True
    return leq


def least_upper_bound(leq, x, y):
    """The least common upper bound of x and y, or None."""
    n = len(leq)
    uppers = [z for z in range(n) if leq[x][z] and leq[y][z]]
    least = [z for z in uppers if all(leq[z][w] for w in uppers)]
    return least[0] if least else None


# -- set systems ----------------------------------------------------------


def union_intersection_closure(sets):
    fam = {frozenset(s) for s in sets}
    changed = True
    while changed:
        changed = False
        for a, b in list(combinations(list(fam), 2)):
            for c in (a | b, a & b):
                if c not in fam:
                    fam.add(c)
                    changed = True
    return fam


def family_join_irreducibles(fam):
    """Members with exactly one maximal proper sub-member."""
    out = set()
    for m in fam:
        below = [x for x in fam if x < m]
        maxi = [x for x in below if not any(x < y < m for y in below)]
        if len(maxi) == 1:
            out.add(m)
    return out


def inclusion_lattice(fam):
    """Cover pairs of the family under inclusion, plus the sorted family."""
    canon = sorted(fam, key=lambda s: (len(s), tuple(sorted(map(str, s)))))
    covers = []
    for i, a in enumerate(canon):
        for j, b in enumerate(canon):
            if a < b and not any(a < c < b for c in canon):
                covers.append((i, j))
    return canon, covers


# -- bases of lines from external join data ----------------------------------


def lines_from_joins(points, join_oracle):
    """Build the lines of a base from raw points and a join function, as
    a checked `Pls`, its lines in `_pkey` order of their joins.

    Scans pairs in a canonical order; a pair whose join x admits a third
    point with the same pairwise joins seeds a line, which is then
    extended to a maximal set with all pairwise joins equal to x.  One
    line per join value."""
    pts = sorted(points, key=_pkey)
    done = {}
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            x = join_oracle(p, q)
            if x in done:
                continue
            third = None
            for r in pts:
                if r in (p, q):
                    continue
                if join_oracle(p, r) == x and join_oracle(q, r) == x:
                    third = r
                    break
            if third is None:
                continue
            line = [p, q, third]
            for r in pts:
                if r in line:
                    continue
                if all(join_oracle(r, s) == x for s in line):
                    line.append(r)
            done[x] = frozenset(line)
    return validate_pls(pts, [done[x] for x in sorted(done, key=_pkey)])


# -- implication bases -----------------------------------------------------------


def natural_implication_base(lines, poset, points):
    """The stock Horn base for the closure system of closed ideals.

    One implication {p} -> (strict down-set of p) per non-minimal point,
    and one {p,q} -> l per unordered pair of a line l.  `lines` are sets
    of point ids; `poset` and `points` are as from `ji_ground_poset`, the
    p-th position of the poset standing for points[p]."""
    downs = {
        p: mask_set(poset.down[i] & ~(1 << i), points)
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


def implications_to_json(implications):
    return [
        {"if": sorted(i.premise, key=_pkey), "then": sorted(i.conclusion, key=_pkey)}
        for i in implications
    ]


def implications_from_json(data):
    return tuple(Implication(frozenset(d["if"]), frozenset(d["then"])) for d in data)


# -- the verdict suite --------------------------------------------------------


def per_base_reference(L, limit=None):
    """Checked base by base, the facts that `verdict_suite` derives for
    every base of lines, as (whether each base's components are the
    projectivity classes, the sorted r* values of the bases).

    The bases are every choice of one line per interval of
    `line_choices`, in product order, only the first `limit` of them when
    `limit` is given.  Each base's components and r* come from
    `pls.mask_components`; p and q share a class when their quotients
    (p_*, p) and (q_*, q) share a class of `projectivity_partition`."""
    from modlat.bol import line_intervals
    from modlat.pls import mask_components

    ji = _ji_list(L)
    class_of = {q: k for k, cls in enumerate(projectivity_partition(L)) for q in cls}
    classes = {}
    for p in ji:
        k = class_of[L.lower_covers(p)[0], p]
        classes[k] = classes.get(k, 0) | 1 << p
    want = set(classes.values())
    choices = [[sum(1 << p for p in line) for line in line_choices(L, iv)]
               for iv in line_intervals(L)]
    points = sum(1 << p for p in ji)
    match, rstars = True, set()
    for count, masks in enumerate(product(*choices)):
        if count == limit:
            break
        comps, r = mask_components(masks, points)
        match = match and set(comps) == want
        rstars.add(r)
    return match, sorted(rstars)
