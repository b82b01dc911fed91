"""Independent reference implementations the tests check the package
against.  Everything here is deliberately brute force and shares no code
with the modules under test."""

from __future__ import annotations

from itertools import combinations, product
from math import gcd

from modlat.lattice import transposes_up
from modlat.pls import _pkey, validate_pls
from modlat import wildcard
from modlat.wildcard import FIXED0, FIXED1, FREE, GroupSpec, make_row


# -- constrained order ideals -------------------------------------------


def line_admits(bits, line):
    hits = sum(bits[p] for p in line)
    return hits <= 1 or hits == len(line)


def brute_closed_ideals(poset, lines):
    """All bitstrings that are downward closed and satisfy every line."""
    out = set()
    for bits in product((0, 1), repeat=poset.width):
        if poset.is_down_closed(bits) and all(line_admits(bits, l) for l in lines):
            out.add(bits)
    return out


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
            if kind == "imp":
                picks = list(mem)
                rng.shuffle(picks)
                cut = rng.randint(1, size - 1)
                spec = GroupSpec(
                    "imp",
                    mem,
                    tuple(sorted(picks[:cut])),
                    tuple(sorted(picks[cut:])),
                )
            else:
                spec = GroupSpec(kind, mem)
            gid = len(groups)
            groups.append(spec)
            for p in mem:
                cells[p] = gid
        else:
            cells[pos[i]] = rng.choice((FIXED0, FIXED1, FREE, FREE))
            i += 1
    return make_row(width, cells, tuple(groups))


def plain_enumerate(poset, lines):
    """`enumerate_ideals` without its shortcuts: every row meets every
    line through `impose_line`, and a row dies only when an imposition
    returns nothing.  Its rows are the reference for the pruned and
    skipping enumerator; its labels and provenance number every row the
    plain traversal makes."""
    line_sets = [tuple(sorted(set(int(p) for p in line))) for line in lines]
    seeds = wildcard.seed_order_ideals(poset)
    counter = len(seeds.rows)
    stack = [(row, 0, lab) for row, lab in zip(seeds.rows, seeds.labels)]
    stack.reverse()
    finals, flabels, fprov = [], [], []

    def store(row, label, why):
        i = 0
        while i < len(finals):
            merged = wildcard._try_merge(finals[i], row)
            if merged is not None:
                why = f"merge({flabels[i]},{label})"
                del finals[i], flabels[i], fprov[i]
                row = merged
                i = 0
                continue
            i += 1
        finals.append(row)
        flabels.append(label)
        fprov.append(why)

    while stack:
        row, k, label = stack.pop()
        if k == len(line_sets):
            store(row, label, "exhausted")
            continue
        parts = wildcard.impose_line(row, line_sets[k])
        if len(parts) == 1 and parts[0].same_content(row):
            stack.append((parts[0], k + 1, label))
            continue
        for i in reversed(range(len(parts))):
            stack.append((parts[i], k + 1, f"r{counter + 1 + i}"))
        counter += len(parts)
    return wildcard.RowSet(poset.width, tuple(finals), tuple(flabels), tuple(fprov))


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


def _incidences(P):
    return [
        (li, p)
        for li, line in enumerate(P.lines)
        for p in sorted(line, key=_pkey)
    ]


def _forest_state(P, removed):
    """(is_forest, component_count) of the incidence graph after detaching
    the incidences in `removed` onto fresh pendant vertices."""
    incid = _incidences(P)
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nodes = [("p", p) for p in P.points]
    nodes += [("l", i) for i in range(len(P.lines))]
    nodes += [("f", i) for i in removed]
    for v in nodes:
        parent[v] = v
    forest = True
    for i, (li, p) in enumerate(incid):
        a = ("l", li)
        b = ("f", i) if i in removed else ("p", p)
        ra, rb = find(a), find(b)
        if ra == rb:
            forest = False
            continue
        parent[ra] = rb
    # fresh pendants always hang off their line, so counting only the
    # original vertices gives the structure's component count
    comps = len({find(v) for v in nodes if v[0] != "f"})
    return forest, comps


def min_splittings(P, limit):
    """Fewest detachments that leave a forest with the original component
    count, by exhaustive subset search.  None if above `limit`."""
    _, base = _forest_state(P, set())
    incid = _incidences(P)
    for k in range(limit + 1):
        for removed in combinations(range(len(incid)), k):
            forest, comps = _forest_state(P, set(removed))
            if forest and comps == base:
                return k
    return None


# -- lattices -------------------------------------------------------------


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


# -- groups --------------------------------------------------------------


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
