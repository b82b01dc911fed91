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
facts these checks share are computed once per lattice, and those of
each base of lines once per base, in the `AnalysisContext` that every
check takes.  The module also houses the triangle machinery that
manufactures a covering with a cyclic localization, and the
cycles-of-line-tops vocabulary (tightly below, tightly comparable, clean
cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .bol import bol_sample, canonical_bol, line_intervals, localize
from .lattice import (
    CapExceeded,
    LatticeError,
    bits,
    ji_below,
    join_irreducibles,
    lower_star,
    projectivity_classes,
    require_modular,
    transposes_up,
    up_transposes,
)
from .pls import find_cycle, mask_components


class ClaimViolated(LatticeError):
    """An assertion inside the cyclic-localization construction failed."""


class NotALineTop(LatticeError):
    pass


# -- analysis context --------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnalysisContext:
    """The facts about one modular lattice that the checks read, each
    computed once per lattice.

    `sample` holds up to `bols_cap` bases of lines and is never empty:
    when the cap stops the enumeration before its first base it is the
    canonical base by itself.  `truncated` says whether the cap cut it
    short.  Both are computed on first use, so a check that reads neither
    does not enumerate bases.
    `coverings` holds, per covering u -< v, the mask of J(u, v) and the
    indices of the line intervals with top under v but not under u: a
    base's localization there is its lines for those intervals, each
    AND-ed with the mask.  Each base's facts, `base_facts` and
    `localization_summary`, are computed at most once, from its line masks
    in interval order.  `acyclic` says whether the canonical base has r* 0,
    and `rstars` holds r* of each sampled base.  `locally_acyclic` is True
    for an acyclic lattice, False once a sampled base has a cyclic
    localization, and None only when the sample was truncated before such
    a base turned up.
    """

    lattice: object
    intervals: tuple
    base: object
    j: int
    delta: int
    i: int
    o: int
    mu: int
    lower: dict  # join-irreducible p -> p_*
    class_of: dict  # prime quotient -> index of its projectivity class
    bols_cap: int
    coverings: tuple  # (u, v, mask of J(u, v), qualifying interval indices)
    _components: dict = field(default_factory=dict, init=False)  # base -> base_facts
    _summaries: dict = field(default_factory=dict, init=False)  # base -> its summary

    @cached_property
    def _bases(self):
        sample, truncated = bol_sample(self.lattice, self.bols_cap, self.intervals)
        return tuple(sample) or (self.base,), truncated  # the cap struck before the first base

    @property
    def sample(self):
        return self._bases[0]

    @property
    def truncated(self):
        return self._bases[1]

    def base_facts(self, B):
        """(component masks, r*) of the base B, isolated points included."""
        if B not in self._components:
            self._components[B] = mask_components(_line_masks(B), self.lattice.ji_mask)
        return self._components[B]

    def localization_summary(self, B):
        """(first, cyclic) over B's localizations in cover order: `first` is
        (u, v, c) for the first covering u -< v whose localization has
        c != 1 components, or None; `cyclic` says whether one has a cycle."""
        if B not in self._summaries:
            self._summaries[B] = _summarize_localizations(self.coverings, _line_masks(B))
        return self._summaries[B]

    @property
    def acyclic(self):
        return self.base_facts(self.base)[1] == 0

    @cached_property
    def locally_acyclic(self):
        if self.acyclic:
            return True
        if any(self.localization_summary(B)[1] for B in self.sample):
            return False
        return None if self.truncated else True

    @cached_property
    def rstars(self):
        return tuple(self.base_facts(B)[1] for B in self.sample)

    @cached_property
    def up_transposes(self):
        """Per join-irreducible p, the prime quotients (p_*, p) transposes up to."""
        L = self.lattice
        return {p: frozenset(up_transposes(L, (low, p))) for p, low in self.lower.items()}

    def perspective(self, p, q):
        """Distinct join-irreducibles with a common upper transpose."""
        up = self.up_transposes
        return p != q and not up[p].isdisjoint(up[q])


def _line_masks(B):
    return [sum(1 << p for p in ln) for ln in B.lines]


def _coverings(L, ivs):
    index = {iv.top: k for k, iv in enumerate(ivs)}  # ascending, as ivs are sorted by top
    tops = sum(1 << top for top in index)
    return tuple(
        (u, v, L.down[v] & ~L.down[u] & L.ji_mask,
         tuple(index[top] for top in bits(tops & L.down[v] & ~L.down[u])))
        for u, v in L.covers
    )


def _summarize_localizations(coverings, masks):
    # see AnalysisContext.localization_summary; stops once both are known
    first, cyclic = None, False
    for u, v, pts, qual in coverings:
        comps, r = mask_components([masks[k] & pts for k in qual], pts)
        if first is None and len(comps) != 1:
            first = (u, v, len(comps))
        cyclic = cyclic or r > 0
        if first is not None and cyclic:
            break
    return first, cyclic


def analysis_context(L, bols_cap=1000):
    """Compute every shared fact about `L` once; modularity is required."""
    require_modular(L)
    ivs = line_intervals(L)
    base = canonical_bol(L, ivs)
    lower = {ji.elem: ji.lower_star for ji in join_irreducibles(L)}
    classes = projectivity_classes(L)
    return AnalysisContext(
        lattice=L,
        intervals=ivs,
        base=base,
        j=len(lower),
        delta=L.height,
        i=len(ivs),
        o=max((iv.n - 1 for iv in ivs), default=1),
        mu=sum(iv.n for iv in ivs),
        lower=lower,
        class_of={q: k for k, cls in enumerate(classes) for q in cls},
        bols_cap=bols_cap,
        coverings=_coverings(L, ivs),
    )


# -- parameter profile -------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str

    def __str__(self):
        flag = "pass" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class ParamsReport:
    """The profile of a lattice; `locally_acyclic` is None only when the
    bases-of-lines cap cut the sample short before a cyclic localization
    turned up."""

    j: int
    delta: int
    s: int
    i: int
    o: int
    mu: int
    rstar_canonical: int
    acyclic: bool
    locally_acyclic: bool | None
    verdicts: tuple

    @property
    def ok(self):
        return all(v.passed for v in self.verdicts)


def component_count(ctx, B):
    """Number of connected components of the base of lines.

    Cross-computed as the number of projectivity classes met by the
    prime quotients (p_*, p) of join-irreducibles p; the two counts must
    agree, and their common value is the number of congruence-simple
    factors of the lattice.
    """
    from_pls = len(ctx.base_facts(B)[0])
    from_classes = len({ctx.class_of[(low, p)] for p, low in ctx.lower.items()})
    if from_pls != from_classes:
        raise LatticeError(
            f"component count {from_pls} disagrees with "
            f"projectivity-class count {from_classes}"
        )
    return from_pls


def params(L, bols_cap=1000):
    """Profile the lattice; modularity is required.

    `locally_acyclic` is read off the same sample of at most `bols_cap`
    bases of lines that the verdicts use; it is None only when the cap
    cut that sample short and no sampled base has a cyclic localization.
    The verdicts bundle the point-count and interval-bound checks for
    the canonical base.
    """
    ctx = analysis_context(L, bols_cap)
    B = ctx.base
    return ParamsReport(
        j=ctx.j,
        delta=ctx.delta,
        s=component_count(ctx, B),
        i=ctx.i,
        o=ctx.o,
        mu=ctx.mu,
        rstar_canonical=ctx.base_facts(B)[1],
        acyclic=ctx.acyclic,
        locally_acyclic=ctx.locally_acyclic,
        verdicts=check_point_count(ctx) + check_interval_bounds(ctx, B),
    )


def params_to_json(report):
    return {
        "j": report.j,
        "delta": report.delta,
        "s": report.s,
        "i": report.i,
        "o": report.o,
        "mu": report.mu,
        "rstar_canonical": report.rstar_canonical,
        "acyclic": report.acyclic,
        "locally_acyclic": report.locally_acyclic,
        "verdicts": [
            {"name": v.name, "passed": v.passed, "detail": v.detail}
            for v in report.verdicts
        ],
    }


def check_point_count(ctx):
    """j <= mu - i + s, with equality exactly for acyclic lattices.

    Acyclicity of a finite modular lattice does not depend on the chosen
    base of lines, so all sampled bases must agree with the canonical one.
    """
    j, acyclic = ctx.j, ctx.acyclic
    rhs = ctx.mu - ctx.i + component_count(ctx, ctx.base)
    agree = all((r == 0) == acyclic for r in ctx.rstars)
    note = f"{len(ctx.sample)} bases" + (", truncated" if ctx.truncated else "")
    return (
        Verdict("point count bound", j <= rhs, f"j={j} <= mu-i+s={rhs}"),
        Verdict(
            "point count equality iff acyclic",
            (j == rhs) == acyclic,
            f"j={j}, mu-i+s={rhs}, acyclic={acyclic}",
        ),
        Verdict("acyclicity agrees across bases", agree, note),
    )


def check_interval_bounds(ctx, B):
    """Bounds linking i, j, delta, s and the splitting number of B.

    Every clause whose hypothesis (o <= 2, acyclic, locally acyclic)
    holds is evaluated; the rest are skipped, including the locally
    acyclic clauses when the cap leaves local acyclicity unknown.
    """
    i, j, o, delta = ctx.i, ctx.j, ctx.o, ctx.delta
    s = component_count(ctx, B)
    r = ctx.base_facts(B)[1]
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


def is_locally_acyclic(L, cap=1000):
    """Whether every localization of every base of lines is acyclic.

    The bases are those of `analysis_context(L, cap)`; CapExceeded is
    raised when more than `cap` bases exist and none of the first `cap`
    has a cyclic localization.  An acyclic lattice is locally acyclic
    without enumerating bases.
    """
    verdict = analysis_context(L, cap).locally_acyclic
    if verdict is None:
        raise CapExceeded(f"more than {cap} distinct bases of lines")
    return verdict


# -- triangle configurations -------------------------------------------


@dataclass(frozen=True)
class TriangleConfig:
    """Three mutually meeting lines plus a transversal.

    l1 and l2 meet in s, l3 meets them in p1 and p2, and the transversal
    l4 touches l1, l2, l3 in q, r, p3, none of which is a corner of the
    triangle s, p1, p2.
    """

    l1: frozenset
    l2: frozenset
    l3: frozenset
    l4: frozenset
    s: object
    p1: object
    p2: object
    q: object
    r: object
    p3: object


def _single_meet(a, b):
    common = a & b
    if len(common) == 1:
        return next(iter(common))
    return None


def _triangles(lines):
    """The triangles among `lines`: index triples i < j < k, in
    lexicographic order, whose lines meet pairwise in single points that
    are three distinct corners, with the corners (ij, ik, jk).  Each
    pair's meet is found once."""
    meets = [{} for _ in lines]  # meets[i][j], j > i: the single common point
    for i, j in combinations(range(len(lines)), 2):
        c = _single_meet(lines[i], lines[j])
        if c is not None:
            meets[i][j] = c
    for i, mi in enumerate(meets):
        later = list(mi)  # ascending, as inserted
        for a, j in enumerate(later):
            mj = meets[j]
            for k in later[a + 1 :]:
                if k in mj:
                    corners = (mi[j], mi[k], mj[k])
                    if len(set(corners)) == 3:
                        yield i, j, k, corners


def triangle_configurations(B):
    """All triangle configurations of the base, in a deterministic order.

    Each unordered triangle with a qualifying transversal contributes
    three configurations, one per choice of which triangle line plays the
    role of l3 (the side opposite the corner s).
    """
    lines = list(B.lines)
    out = []
    for ia, ib, ic, corners in _triangles(lines):
        tri = (lines[ia], lines[ib], lines[ic])
        corner_set = set(corners)
        for it, transversal in enumerate(lines):
            if it in (ia, ib, ic):
                continue
            contacts = tuple(_single_meet(transversal, side) for side in tri)
            if any(c is None or c in corner_set for c in contacts):
                continue
            # one configuration per choice of the side opposite s
            for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                out.append(
                    TriangleConfig(
                        l1=tri[x],
                        l2=tri[y],
                        l3=tri[z],
                        l4=transversal,
                        s=_single_meet(tri[x], tri[y]),
                        p1=_single_meet(tri[x], tri[z]),
                        p2=_single_meet(tri[y], tri[z]),
                        q=contacts[x],
                        r=contacts[y],
                        p3=contacts[z],
                    )
                )
    return out


def cyclic_localization_witness(L, B, config):
    """A covering (a, b) whose localization of B contains a cycle.

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
    if find_cycle(localize(B, a, b)) is None:
        raise ClaimViolated("localization has no cycle")
    return a, b


# -- cycles of line-tops -----------------------------------------------


@dataclass(frozen=True)
class TopCycle:
    """Cyclic sequence of at least three distinct line-tops.

    Consecutive entries, wrapping around, are tightly comparable;
    directions[k] is "up" when tops[k] is tightly below its successor
    and "down" otherwise.
    """

    tops: tuple
    directions: tuple

    def __len__(self):
        return len(self.tops)


def _top_map(L):
    return {iv.top: iv for iv in line_intervals(L)}

def _require_top(tops, x):
    if x not in tops:
        raise NotALineTop(f"{x} is not the top of a line interval")

def _tight_below(L, tops, x, y):
    # strictly below y, but not below the bottom of y's interval
    return x != y and L.leq(x, y) and not L.leq(x, tops[y].bottom)


def tight_below(L, x, y):
    """Whether line-top x sits strictly below y but not below y's bottom."""
    tops = _top_map(L)
    _require_top(tops, x)
    _require_top(tops, y)
    return _tight_below(L, tops, x, y)


def tight_comparable(L, x, y):
    """Whether one of the two line-tops is tightly below the other."""
    tops = _top_map(L)
    _require_top(tops, x)
    _require_top(tops, y)
    return _tight_below(L, tops, x, y) or _tight_below(L, tops, y, x)


def top_cycles(L, maxlen=8):
    """Cycles of line-tops up to rotation and reflection.

    Simple cycles of length 3..maxlen in the tight-comparability graph,
    each reported once, anchored at its smallest top.
    """
    require_modular(L)
    return _top_cycles(L, _top_map(L), maxlen)


def _top_cycles(L, tops, maxlen):
    verts = sorted(tops)
    nbr = {
        x: [y for y in verts if y != x and (
            _tight_below(L, tops, x, y) or _tight_below(L, tops, y, x))]
        for x in verts
    }
    found = []

    def walk(path):
        for w in nbr[path[-1]]:
            if w == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    found.append(tuple(path))
            elif w > path[0] and w not in path and len(path) < maxlen:
                walk(path + [w])

    for start in verts:
        walk([start])
    out = []
    for seq in found:
        dirs = tuple(
            "up" if _tight_below(L, tops, seq[k], seq[(k + 1) % len(seq)]) else "down"
            for k in range(len(seq))
        )
        out.append(TopCycle(tops=seq, directions=dirs))
    return out


def _comparable(L, x, y):
    return L.leq(x, y) or L.leq(y, x)


def _blocked_peak(L, tops, v, u, z):
    """v <* u >* z: mutually comparable and sharing the entry into u."""
    if not (_comparable(L, v, z) and _comparable(L, v, u) and _comparable(L, u, z)):
        return False
    u0 = tops[u].bottom
    return any(
        any(transposes_up(L, (vi, v), (u0, uj)) for vi in tops[v].atoms)
        and any(transposes_up(L, (zk, z), (u0, uj)) for zk in tops[z].atoms)
        for uj in tops[u].atoms
    )


def _blocked_valley(L, tops, v, u, z):
    """v >* u <* z: mutually comparable and sharing the exit out of u."""
    if not (_comparable(L, v, z) and _comparable(L, v, u) and _comparable(L, u, z)):
        return False
    return any(
        any(transposes_up(L, (uj, u), (tops[v].bottom, vi)) for vi in tops[v].atoms)
        and any(transposes_up(L, (uj, u), (tops[z].bottom, zk)) for zk in tops[z].atoms)
        for uj in tops[u].atoms
    )


def is_clean_cycle(L, cycle):
    """Whether a cycle of line-tops avoids the blocked local patterns.

    Around every peak v <* u >* z and every valley v >* u <* z the three
    tops must not be simultaneously mutually comparable and wired to a
    single covering of u's interval; repeated tops are never clean.
    """
    return _is_clean(L, _top_map(L), cycle)


def _is_clean(L, tops, cycle):
    seq = tuple(cycle.tops) if isinstance(cycle, TopCycle) else tuple(cycle)
    if len(seq) < 3:
        raise ValueError("a cycle needs at least three line-tops")
    for x in seq:
        _require_top(tops, x)
    if len(set(seq)) != len(seq):
        return False
    k = len(seq)
    for idx in range(k):
        v, u, z = seq[idx - 1], seq[idx], seq[(idx + 1) % k]
        for a, b in ((v, u), (u, z)):
            if not (_tight_below(L, tops, a, b) or _tight_below(L, tops, b, a)):
                raise ValueError(f"{a} and {b} are not tightly comparable")
        into = _tight_below(L, tops, v, u)
        outof = _tight_below(L, tops, u, z)
        if into and not outof and _blocked_peak(L, tops, v, u, z):
            return False
        if not into and outof and _blocked_valley(L, tops, v, u, z):
            return False
    return True


# -- whole-lattice verdict suite ---------------------------------------


def check_components_match_projectivity(ctx, B):
    """Two points share a base component iff their quotients are projective."""
    comp_of = {p: k for k, comp in enumerate(ctx.base_facts(B)[0]) for p in bits(comp)}
    class_of, lower = ctx.class_of, ctx.lower
    pts = sorted(comp_of)
    for p, q in combinations(pts, 2):
        same_comp = comp_of[p] == comp_of[q]
        same_class = class_of[(lower[p], p)] == class_of[(lower[q], q)]
        if same_comp != same_class:
            return Verdict(
                "components match projectivity",
                False,
                f"points {p}, {q}: component {same_comp}, class {same_class}",
            )
    return Verdict(
        "components match projectivity", True, f"{len(pts)} points agree"
    )


def check_localizations_connected(ctx, B):
    """Every localization of the base is a single component."""
    first, _ = ctx.localization_summary(B)
    if first is not None:
        u, v, n = first
        return Verdict(
            "localizations connected", False, f"covering ({u},{v}) has {n} components"
        )
    return Verdict(
        "localizations connected", True, f"{len(ctx.coverings)} coverings checked"
    )


def check_line_feet(ctx, B):
    """On every line, each point pair is perspective and p_* + q_* is
    the bottom of the line's interval."""
    L, lower = ctx.lattice, ctx.lower
    pairs = 0
    for line in B.lines:
        foot = B.bottom_of[line]
        for p, q in combinations(sorted(line), 2):
            pairs += 1
            if L.join(lower[p], lower[q]) != foot:
                return Verdict(
                    "line feet", False, f"p_*+q_* misses the foot for {p},{q}"
                )
            if not ctx.perspective(p, q):
                return Verdict(
                    "line feet", False, f"{p},{q} on a line but not perspective"
                )
    return Verdict("line feet", True, f"{pairs} point pairs checked")


def check_triangle_tops(ctx, B):
    """The tops of a three-line cycle are never mutually comparable."""
    L = ctx.lattice
    lines = list(B.lines)
    tried = 0
    for ia, ib, ic, _ in _triangles(lines):
        tried += 1
        ta, tb, tc = (B.top_of[lines[x]] for x in (ia, ib, ic))
        if (
            _comparable(L, ta, tb)
            and _comparable(L, ta, tc)
            and _comparable(L, tb, tc)
        ):
            return Verdict(
                "triangle tops incomparable",
                False,
                f"tops {ta},{tb},{tc} are mutually comparable",
            )
    return Verdict("triangle tops incomparable", True, f"{tried} triangles")


def check_perspective_intervals(ctx):
    """Perspective pairs p, q land in the line interval [p_*+q_*, p+q]."""
    L, lower = ctx.lattice, ctx.lower
    ivs = {iv.top: iv for iv in ctx.intervals}
    tried = 0
    for p, q in combinations(lower, 2):
        if not ctx.perspective(p, q):
            continue
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
    p + q = r + q."""
    up, down, jis = L.up, L.down, L.ji_mask
    tried = 0
    for a in range(L.n):
        below = ji_below(L, a)
        for q in bits(jis & ~down[a]):
            # J(a, a+q), less the points comparable with q
            for r in bits(jis & down[L.join(a, q)] & ~down[a] & ~up[q] & ~down[q]):
                tried += 1
                want = L.join(r, q)
                if not any(L.join(p, q) == want for p in below):
                    return Verdict(
                        "join witness below a",
                        False,
                        f"a={a}, q={q}, r={r}: no witness",
                    )
    return Verdict("join witness below a", True, f"{tried} triples checked")


def check_clean_cycles(ctx, maxlen=8):
    """A clean cycle of line-tops forces cycles in the bases of lines."""
    L = ctx.lattice
    tops = {iv.top: iv for iv in ctx.intervals}
    cycles = _top_cycles(L, tops, maxlen)
    clean = [c for c in cycles if _is_clean(L, tops, c)]
    if not clean:
        return Verdict(
            "clean cycles force base cycles",
            True,
            f"untriggered ({len(cycles)} cycles, none clean)",
        )
    cyclic = not ctx.acyclic
    return Verdict(
        "clean cycles force base cycles",
        cyclic,
        f"{len(clean)} clean of {len(cycles)} cycles; base cyclic={cyclic}",
    )


def _merge_runs(runs, note):
    """Collapse per-base verdict tuples into one verdict per name."""
    merged = []
    for idx, first in enumerate(runs[0]):
        bad = next((run[idx] for run in runs if not run[idx].passed), None)
        merged.append(
            bad or Verdict(first.name, True, f"{first.detail}; {note}")
        )
    return merged


def verdict_suite(L, bols_cap=1000, maxlen=8):
    """Every check the module knows, aggregated over sampled bases."""
    ctx = analysis_context(L, bols_cap)
    note = f"{len(ctx.sample)} bases" + (" (truncated)" if ctx.truncated else "")
    out = list(check_point_count(ctx))
    out += _merge_runs([check_interval_bounds(ctx, Bk) for Bk in ctx.sample], note)
    observed = sorted(set(ctx.rstars))
    out.append(
        Verdict("split counts observed", True, f"r* values {observed}; {note}")
    )
    out += _merge_runs(
        [
            (
                check_components_match_projectivity(ctx, Bk),
                check_localizations_connected(ctx, Bk),
                check_line_feet(ctx, Bk),
                check_triangle_tops(ctx, Bk),
            )
            for Bk in ctx.sample
        ],
        note,
    )
    out.append(check_perspective_intervals(ctx))
    out.append(check_join_witness(L))
    out.append(check_clean_cycles(ctx, maxlen=maxlen))
    return tuple(out)
