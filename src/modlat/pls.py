"""Partial linear spaces: point-line structures where two distinct lines
share at most one point.

Lines are index-addressed (position in the `lines` tuple); points may be
ints or strings.

The cyclomatic number of the bipartite point-line incidence graph,
`rstar`, counts the independent cycles: it is the number of splits (a
point detached from one line onto a fresh point) that make the structure
acyclic while keeping its components (§7).  `mask_components`, on int
masks of points, is the one routine for components and r*: `components`
and `rstar` call it on a `Pls`, `analysis` on bases of lines.  Its merge
step, `merge_masks`, also serves `analysis`' witness graphs.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import PlsError, bits, first_repeat


class TwoPointIntersection(PlsError):
    pass


class LineTooSmall(PlsError):
    pass


class UnknownPoint(PlsError):
    pass


def _pkey(p):
    # stable sort key for heterogeneous point ids
    return (p.__class__.__name__, str(p))


class Pls(NamedTuple):
    points: frozenset
    lines: tuple

    def sorted_points(self):
        return sorted(self.points, key=_pkey)


class PlsCycle(NamedTuple):
    """A simple cycle: lines[i] and lines[i+1] meet in junctions[i]
    (indices mod the length).  At least three lines are involved."""

    lines: tuple
    junctions: tuple


def validate_pls(points, lines):
    """Check the partial-linear-space axioms and freeze the structure."""
    pts = frozenset(points)
    frozen = []
    for i, line in enumerate(lines):
        fs = frozenset(line)
        if len(fs) < 2:
            raise LineTooSmall(f"line {i} has fewer than two points")
        stray = fs - pts
        if stray:
            raise UnknownPoint(f"line {i} uses unknown points {sorted(stray, key=_pkey)}")
        frozen.append(fs)
    for i in range(len(frozen)):
        for j in range(i + 1, len(frozen)):
            common = frozen[i] & frozen[j]
            if len(common) > 1:
                raise TwoPointIntersection(
                    f"lines {i} and {j} share {sorted(common, key=_pkey)}"
                )
    return Pls(pts, tuple(frozen))


def merge_masks(masks):
    """The unions of the int `masks` that share bits, transitively: the
    point sets of the components that the masks, as lines, span."""
    comps = []
    for m in masks:
        apart = []
        for comp in comps:
            if comp & m:
                m |= comp
            else:
                apart.append(comp)
        apart.append(m)
        comps = apart
    return comps


def mask_components(line_masks, pts):
    """The components of the point-line structure on the point mask `pts`
    whose lines are the list of submasks `line_masks`, and its r*.

    Returns (component masks, r*): the components, isolated points
    included (one bit each, after the others), and r* = E - V + c.
    """
    comps = merge_masks(line_masks)
    incidences = sum(m.bit_count() for m in line_masks)
    isolated = pts & ~sum(comps)  # the components are disjoint
    if isolated:
        comps += [1 << p for p in bits(isolated)]
    return comps, incidences - pts.bit_count() - len(line_masks) + len(comps)


def _mask_components(P):
    # bit i stands for the i-th point in `_pkey` order
    pts = P.sorted_points()
    index = {p: i for i, p in enumerate(pts)}
    masks = [sum(1 << index[p] for p in line) for line in P.lines]
    return pts, *mask_components(masks, (1 << len(pts)) - 1)


def components(P):
    """Connected components of the point set; isolated points count.

    Returned as a list of frozensets, ordered by their least point.
    """
    pts, comps, _ = _mask_components(P)
    return [frozenset(pts[i] for i in bits(m)) for m in sorted(comps, key=lambda m: m & -m)]


def find_cycle(P):
    """Some simple cycle of the incidence graph, or None.

    The result alternates lines and junction points; a cycle always
    involves at least three lines because two lines meet at most once.
    """
    adj = {}
    for p in P.sorted_points():
        adj[("p", p)] = []
    for i, line in enumerate(P.lines):
        key = ("l", i)
        adj[key] = [("p", p) for p in sorted(line, key=_pkey)]
        for p in adj[key]:
            adj[p].append(key)

    depth = {}
    parent = {}
    for root in adj:
        if root in depth:
            continue
        depth[root] = 0
        parent[root] = None
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent[v]:
                    continue
                if w in depth:
                    # back edge: walk v up to w
                    walk = [v]
                    u = v
                    while u != w:
                        u = parent[u]
                        walk.append(u)
                    # walk alternates point/line vertices; rotate so a line comes first
                    if walk[0][0] == "p":
                        walk = walk[1:] + walk[:1]
                    lines = tuple(v[1] for v in walk[0::2])
                    junctions = tuple(v[1] for v in walk[1::2])
                    return PlsCycle(lines, junctions)
                depth[w] = depth[v] + 1
                parent[w] = v
                stack.append((w, iter(adj[w])))
                advanced = True
                break
            if not advanced:
                stack.pop()
    return None


def rstar(P):
    """Cyclomatic number of the incidence graph: E - V + c."""
    return _mask_components(P)[2]


# -- serialization -----------------------------------------------------


def pls_from_json(d):
    """The structure of a JSON object of a 'points' list, which names each
    point once, and a 'lines' list of point lists; a point is an int or a
    string, and a JSON boolean is neither."""
    points, lines = (d.get("points"), d.get("lines")) if isinstance(d, dict) else (None, None)
    if not (isinstance(points, list) and isinstance(lines, list)
            and all(isinstance(line, list) for line in lines)):
        raise ValueError("point-line JSON must be an object of 'points' and 'lines' lists")
    for p in points + [p for line in lines for p in line]:
        if type(p) not in (int, str):
            raise ValueError(f"point-line JSON holds {p!r}, which is neither an int nor a string")
    dup = first_repeat(points)
    if dup is not None:
        raise ValueError(f"point-line JSON names point {dup!r} more than once")
    for line in lines:
        dup = first_repeat(line)
        if dup is not None:
            raise ValueError(f"point-line JSON line {line} names point {dup!r} more than once")
    return validate_pls(points, [frozenset(line) for line in lines])
