"""Compressed enumeration of constrained order ideals.

A Row denotes a set of bitstrings of a fixed width.  Every cell is fixed
("0"/"1"), free ("2"), or holds the integer id of a wildcard group:

    imp  premise/conclusion cells: any premise 1 forces all conclusions 1
    d    all members equal
    eps  at most one member is 1
    g    exactly one member is 1
    ell  at most one member is 1, or all of them are

Constraints arrive in two shapes.  Cover constraints of a poset are seeded
as imp groups; line constraints ("at most one 1 on these positions, or all
1") are imposed on existing rows by `impose_line`, which splits a row into
at most lambda+2 pairwise disjoint rows when the line meets no group and
stays close to that bound otherwise.  `enumerate_ideals` drives a LIFO
stack of (row, index of the next line to impose) entries and compresses
complementary final rows into d groups; its `FinalRows` store looks for a
merge partner only among stored rows of the same shape (groups, and which
cells are fixed), by an int test on their masks of fixed 1s.  It drops a
row as soon as a line still to come holds two fixed 1s and a fixed 0
(every string of the row breaks that line), and it steps over a line the
row already satisfies without calling `impose_line`; neither changes the
final rows.  The work it does is counted in an `EnumStats`.

Rows are checked where they enter: `make_row` (and so `row_from_json`)
rejects a row that is not well formed.  The rows that `force`,
`with_group`, `_try_merge` and the seeding build out of well-formed rows
go through the unchecked `_row`, which only renumbers their groups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .lattice import CycleInCovers, bits, topological_up_sets

FIXED0 = "0"
FIXED1 = "1"
FREE = "2"


class WildcardError(Exception):
    pass


class ExpansionCapExceeded(WildcardError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """One wildcard group.  `premise`/`conclusion` are used by imp only."""

    kind: str
    members: tuple
    premise: tuple = ()
    conclusion: tuple = ()

    def __post_init__(self):
        m, prem, conc = self.members, self.premise, self.conclusion
        if self.kind == "imp":
            ok = prem and conc and not set(prem) & set(conc) and tuple(sorted(prem + conc)) == m
        else:
            ok = self.kind in ("d", "eps", "g", "ell") and not prem and not conc and len(m) >= 2
        if not ok or m != tuple(sorted(set(m))):
            raise WildcardError(f"malformed group {self}")

    def count(self):
        lam = len(self.members)
        if self.kind == "imp":
            return 2 ** len(self.conclusion) + 2 ** len(self.premise) - 1
        if self.kind == "d":
            return 2
        if self.kind == "eps":
            return lam + 1
        if self.kind == "g":
            return lam
        return lam + 2  # ell

    def assignments(self):
        """All member valuations the group admits, as dicts."""
        m = self.members
        if self.kind == "d":
            return [dict.fromkeys(m, 0), dict.fromkeys(m, 1)]
        if self.kind in ("eps", "g", "ell"):
            out = [] if self.kind == "g" else [dict.fromkeys(m, 0)]
            for p in m:
                one = dict.fromkeys(m, 0)
                one[p] = 1
                out.append(one)
            if self.kind == "ell" and len(m) > 1:
                out.append(dict.fromkeys(m, 1))
            return out
        out = []
        for pa in product((0, 1), repeat=len(self.premise)):
            for pb in product((0, 1), repeat=len(self.conclusion)):
                if any(pa) and not all(pb):
                    continue
                d = dict(zip(self.premise, pa))
                d.update(zip(self.conclusion, pb))
                out.append(d)
        return out

    def admits(self, value_at):
        vals = [value_at(p) for p in self.members]
        if self.kind == "d":
            return len(set(vals)) == 1
        if self.kind == "eps":
            return sum(vals) <= 1
        if self.kind == "g":
            return sum(vals) == 1
        if self.kind == "ell":
            return sum(vals) <= 1 or all(vals)
        if any(value_at(p) for p in self.premise):
            return all(value_at(p) for p in self.conclusion)
        return True


@dataclass(frozen=True)
class Row:
    """A compressed set of bitstrings."""

    width: int
    cells: tuple
    groups: tuple = ()

    def same_content(self, other):
        return self.cells == other.cells and self.groups == other.groups


def make_row(width, cells, groups=()):
    """Normalize and sanity-check a row; groups are renumbered by their
    smallest member so equal contents compare equal.  Raises WildcardError
    on a row that is not well formed.  This is the checked entry point for
    rows from outside (JSON, callers); the row builders below use `_row`."""
    if len(cells) != width:
        raise WildcardError(f"row has {len(cells)} cells, width {width}")
    order = sorted(range(len(groups)), key=lambda i: groups[i].members[0])
    remap = {old: new for new, old in enumerate(order)}
    # an unknown symbol or group id maps to None, which no check below accepts
    out_cells = tuple(c if c in (FIXED0, FIXED1, FREE) else remap.get(c) for c in cells)
    out_groups = tuple(groups[i] for i in order)
    for gid, spec in enumerate(out_groups):
        for p in spec.members:
            if not 0 <= p < width or out_cells[p] != gid:
                raise WildcardError(f"cell {p} does not point at group {gid}")
    if sum(not isinstance(c, str) for c in out_cells) != sum(len(g.members) for g in out_groups):
        raise WildcardError("a cell points at a group it is no member of")
    return Row(width, out_cells, out_groups)


def _row(width, cells, groups):
    """The Row of `cells` and `groups`, a dict from the ids the cells hold
    to their specs, with groups renumbered by their smallest member as
    `make_row` numbers them.  Unchecked: for rows built out of well-formed
    rows by `force`, `with_group`, `_try_merge` and the seeding."""
    keys = sorted(groups, key=lambda k: groups[k].members[0])
    if keys != list(range(len(keys))):
        renum = {k: i for i, k in enumerate(keys)}
        cells = [renum[c] if isinstance(c, int) else c for c in cells]
    return Row(width, tuple(cells), tuple(groups[k] for k in keys))


def row_count(row):
    n = 1
    for c in row.cells:
        if c == FREE:
            n *= 2
    for spec in row.groups:
        n *= spec.count()
    return n


def expand(row, cap=1_000_000):
    """All bitstrings the row denotes, sorted.  Guarded by `cap`."""
    if cap is not None and row_count(row) > cap:
        raise ExpansionCapExceeded(f"row denotes {row_count(row)} > cap {cap}")
    base = [0] * row.width
    choice_sets = []
    for p, c in enumerate(row.cells):
        if c == FIXED1:
            base[p] = 1
        elif c == FREE:
            choice_sets.append([{p: 0}, {p: 1}])
    for spec in row.groups:
        choice_sets.append(spec.assignments())
    out = []
    for combo in product(*choice_sets):
        bits = base[:]
        for d in combo:
            for p, v in d.items():
                bits[p] = v
        out.append(tuple(bits))
    out.sort()
    if len(out) != row_count(row):
        raise WildcardError(f"row expands to {len(out)} strings but counts {row_count(row)}")
    return out


def contains(row, bits):
    if len(bits) != row.width:
        return False
    for p, c in enumerate(row.cells):
        if c == FIXED0 and bits[p] != 0:
            return False
        if c == FIXED1 and bits[p] != 1:
            return False
    return all(spec.admits(lambda p: bits[p]) for spec in row.groups)


# -- forcing ----------------------------------------------------------


def force(row, assignments):
    """Fix cells to 0/1 and propagate through groups.

    Returns the rewritten Row, or None when the assignment contradicts the
    row.  Group rewrites follow the wildcard semantics: a d member carries
    the others with it, a 1 in an eps/g zeroes its mates, an ell collapses
    to d (hit by 1) or eps (hit by 0), an imp premise 1 fires the
    conclusions while a conclusion 0 kills the premises.
    """
    cells = list(row.cells)
    groups = dict(enumerate(row.groups))
    queue = [(int(p), 1 if v else 0) for p, v in assignments.items()]

    def free_and_push(ps, val=None):
        for q in ps:
            cells[q] = FREE
            if val is not None:
                queue.append((q, val))

    while queue:
        pos, val = queue.pop()
        sym = FIXED1 if val else FIXED0
        cur = cells[pos]
        if cur == sym:
            continue
        if cur in (FIXED0, FIXED1):
            return None
        if cur == FREE:
            cells[pos] = sym
            continue
        gid, spec = cur, groups[cur]
        cells[pos] = sym
        rest = tuple(q for q in spec.members if q != pos and cells[q] == gid)
        if spec.kind == "d":
            del groups[gid]
            free_and_push(rest, val)
        elif spec.kind == "eps":
            if val:
                del groups[gid]
                free_and_push(rest, 0)
            elif len(rest) >= 2:
                groups[gid] = GroupSpec("eps", rest)
            else:
                del groups[gid]
                free_and_push(rest)
        elif spec.kind == "g":
            if val:
                del groups[gid]
                free_and_push(rest, 0)
            elif len(rest) >= 2:
                groups[gid] = GroupSpec("g", rest)
            elif len(rest) == 1:
                del groups[gid]
                free_and_push(rest, 1)
            else:
                return None
        elif spec.kind == "ell":
            if len(rest) < 2:
                del groups[gid]
                free_and_push(rest)  # a lone survivor is unconstrained
            elif val:
                groups[gid] = GroupSpec("d", rest)
            else:
                groups[gid] = GroupSpec("eps", rest)
        else:  # imp
            prem = tuple(q for q in spec.premise if q != pos and cells[q] == gid)
            conc = tuple(q for q in spec.conclusion if q != pos and cells[q] == gid)
            if pos in spec.premise:
                if val:
                    del groups[gid]
                    free_and_push(conc, 1)
                    free_and_push(prem)
                elif prem:
                    groups[gid] = GroupSpec(
                        "imp", tuple(sorted(prem + conc)), prem, conc
                    )
                else:
                    del groups[gid]
                    free_and_push(conc)
            else:
                if not val:
                    del groups[gid]
                    free_and_push(prem, 0)
                    free_and_push(conc)
                elif conc:
                    groups[gid] = GroupSpec(
                        "imp", tuple(sorted(prem + conc)), prem, conc
                    )
                else:
                    del groups[gid]
                    free_and_push(prem)
    return _row(row.width, cells, groups)


def with_group(row, kind, positions, premise=(), conclusion=()):
    """Attach a new group over currently free cells."""
    positions = tuple(sorted(positions))
    gid = len(row.groups)
    cells = list(row.cells)
    for p in positions:
        if cells[p] != FREE:
            raise WildcardError(f"cell {p} is not free, so it cannot join a new group")
        cells[p] = gid
    groups = dict(enumerate(row.groups))
    groups[gid] = GroupSpec(kind, positions, tuple(sorted(premise)), tuple(sorted(conclusion)))
    return _row(row.width, cells, groups)


def _retype_to_g(row, members):
    """Turn the eps, ell or g group on exactly `members` into a g group."""
    members = tuple(sorted(members))
    for gid, spec in enumerate(row.groups):
        if spec.members == members:
            if spec.kind not in ("eps", "ell", "g"):
                raise WildcardError(f"a {spec.kind} group cannot become exactly-one")
            groups = row.groups[:gid] + (GroupSpec("g", members),) + row.groups[gid + 1 :]
            return Row(row.width, row.cells, groups)  # same members, same numbering
    raise WildcardError(f"no group has the members {list(members)}")


# -- line imposition ---------------------------------------------------


def impose_line(row, positions):
    """Split a row so that every output satisfies "at most one 1 on
    `positions`, or all of them 1".

    Outputs are pairwise disjoint and their union is exactly the
    constrained input set.  The general shape is a case split: no 1 on the
    line, exactly one (one sub-row per group or free block touching the
    line), all 1.  Lines lying on free groupless cells compress to a
    single eps or ell row instead.
    """
    pos = sorted(set(int(p) for p in positions))
    if len(pos) < 2:
        raise ValueError("a line needs at least two positions")
    ones = [p for p in pos if row.cells[p] == FIXED1]
    zeros = [p for p in pos if row.cells[p] == FIXED0]
    undet = [p for p in pos if row.cells[p] not in (FIXED0, FIXED1)]

    if not undet:
        ok = len(ones) <= 1 or len(ones) == len(pos)
        return [row] if ok else []
    if len(ones) >= 2:
        if zeros:
            return []  # two 1s demand all 1s, but a fixed 0 forbids that
        r = force(row, {p: 1 for p in undet})
        return [r] if r else []
    if len(ones) == 1:
        if not zeros and len(undet) == 1:
            return [row]  # two-point case: the undetermined cell may go either way
        out = [force(row, {p: 0 for p in undet})]
        if not zeros:
            out.append(force(row, {p: 1 for p in undet}))
        return [r for r in out if r is not None]

    # no fixed 1 yet
    if len(undet) <= 1:
        return [row]  # at most one 1 is guaranteed
    free_u = [p for p in undet if row.cells[p] == FREE]
    if len(free_u) == len(undet):
        if not zeros:
            return [with_group(row, "ell", undet)]
        return [with_group(row, "eps", undet)]

    out = [force(row, {p: 0 for p in undet})]
    for mem in _line_units(row, undet):
        out.append(_one_hot_row(row, undet, mem))
    if not zeros:
        out.append(force(row, {p: 1 for p in undet}))
    return [r for r in out if r is not None]


def _line_units(row, undet):
    """Blocks of line positions that can share one "exactly one 1 here"
    sub-row: free cells merge, as do same-group eps/ell/g/d members; imp
    cells stay individual because premise and conclusion react
    differently."""
    blocks = {}
    for p in undet:
        c = row.cells[p]
        if c == FREE:
            key = ("free",)
        elif row.groups[c].kind == "imp":
            key = ("pos", p)
        else:
            key = ("grp", c)
        blocks.setdefault(key, []).append(p)
    return sorted(blocks.values(), key=min)


def _one_hot_row(row, undet, mem):
    """The sub-row whose strings have their single line-1 inside `mem`."""
    if len(mem) == 1:
        return force(row, {mem[0]: 1, **{p: 0 for p in undet if p != mem[0]}})
    others = {p: 0 for p in undet if p not in mem}
    c = row.cells[mem[0]]
    if c == FREE:
        base = force(row, others)
        return with_group(base, "g", mem) if base is not None else None
    spec = row.groups[c]
    if spec.kind == "d":
        return None  # d members are all-equal; a single 1 among >= 2 is impossible
    offline = {p: 0 for p in spec.members if p not in mem}
    base = force(row, {**others, **offline})
    if base is None:
        return None
    return _retype_to_g(base, mem)


# -- ground posets and seeding -----------------------------------------


@dataclass(frozen=True)
class GroundPoset:
    """The point poset lines live on, given by its cover relation.
    `strict_up[p]` is derived: the int mask of the points strictly above p
    (`strict_down[p]` dually)."""

    width: int
    covers: tuple
    labels: tuple = None
    strict_up: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        covers = tuple(sorted((int(a), int(b)) for a, b in self.covers))
        object.__setattr__(self, "covers", covers)
        for a, b in covers:
            if not (0 <= a < self.width and 0 <= b < self.width) or a == b:
                raise ValueError(f"bad cover ({a},{b})")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
            if len(self.labels) != self.width:
                raise ValueError(f"{len(self.labels)} labels for {self.width} points")
        try:
            _, up = topological_up_sets(self.width, covers)
        except CycleInCovers:
            raise ValueError("cover relation contains a cycle") from None
        object.__setattr__(self, "strict_up", tuple(u & ~(1 << p) for p, u in enumerate(up)))

    def label(self, p):
        return self.labels[p] if self.labels else f"p{p + 1}"

    @cached_property
    def strict_down(self):
        _, down = topological_up_sets(self.width, [(b, a) for a, b in self.covers])
        return tuple(d & ~(1 << p) for p, d in enumerate(down))

    def is_down_closed(self, bits):
        return all(bits[a] >= bits[b] for a, b in self.covers)


@dataclass
class EnumStats:
    """The work of one `enumerate_ideals` call.

    `split_sizes` maps the number of rows one `impose_line` call returned
    to how many calls returned that many; a call returning more than
    lambda + 2 rows for a line of lambda points breaks the paper's bound
    and is counted in `split_bound_violations`.  `noop_impositions` are
    the calls that returned the row unchanged.  `dead_rows` are rows an
    imposition turned into nothing, `pruned_rows` rows dropped before the
    line that would kill them came up, `skipped` the lines stepped over
    without an imposition because the row already satisfied them."""

    seeds: int = 0
    impositions: int = 0
    noop_impositions: int = 0
    skipped: int = 0
    split_sizes: dict = field(default_factory=dict)
    split_bound_violations: int = 0
    dead_rows: int = 0
    pruned_rows: int = 0
    merges: int = 0
    peak_stack: int = 0


@dataclass(frozen=True)
class RowSet:
    width: int
    rows: tuple
    labels: tuple = ()
    provenance: tuple = ()
    stats: EnumStats = field(default=None, compare=False)


def total_count(rowset):
    return sum(row_count(r) for r in rowset.rows)


def rowset_bitstrings(rowset, cap=1_000_000):
    out = set()
    for r in rowset.rows:
        out.update(expand(r, cap))
    return out


def seed_order_ideals(poset):
    """Rows jointly denoting all downward-closed subsets of the poset.

    Recursively branches on a pivot point lying on several unresolved
    covers (highest up+down degree, ties to the lowest index); membership
    propagates down-sets on 1 and up-sets on 0.  Covers left with both
    ends undetermined become pairwise imp groups.
    """
    rows, prov = [], []

    def emit(fixed, path):
        active = [
            (lo, hi)
            for lo, hi in poset.covers
            if lo not in fixed and hi not in fixed
        ]
        deg = Counter()
        for lo, hi in active:
            deg[lo] += 1
            deg[hi] += 1
        conflicted = [p for p, d in deg.items() if d >= 2]
        if not conflicted:
            cells = [FREE] * poset.width
            for p, v in fixed.items():
                cells[p] = FIXED1 if v else FIXED0
            groups = []
            for gid, (lo, hi) in enumerate(active):
                cells[lo] = gid
                cells[hi] = gid
                groups.append(
                    GroupSpec("imp", tuple(sorted((lo, hi))), (hi,), (lo,))
                )
            rows.append(_row(poset.width, cells, dict(enumerate(groups))))
            prov.append("seed" + (path or ""))
            return
        pivot = max(
            conflicted,
            key=lambda p: ((poset.strict_up[p] | poset.strict_down[p]).bit_count(), -p),
        )
        one = dict(fixed)
        one[pivot] = 1
        for q in bits(poset.strict_down[pivot]):
            one[q] = 1
        emit(one, f"{path};{poset.label(pivot)}=1")
        zero = dict(fixed)
        zero[pivot] = 0
        for q in bits(poset.strict_up[pivot]):
            zero[q] = 0
        emit(zero, f"{path};{poset.label(pivot)}=0")

    emit({}, "")
    labels = tuple(f"r{i + 1}" for i in range(len(rows)))
    return RowSet(poset.width, tuple(rows), labels, tuple(prov))


def _try_merge(a, b):
    """Merge rows differing only on a block where one is all-0 and the
    other all-1 (block of length 1 becomes a free cell, longer ones a d
    group).  Returns the merged row or None."""
    if a.groups != b.groups:
        return None
    diff = [p for p in range(a.width) if a.cells[p] != b.cells[p]]
    lo = {a.cells[p] for p in diff}
    hi = {b.cells[p] for p in diff}
    if len(lo) != 1 or len(hi) != 1 or lo | hi != {FIXED0, FIXED1}:
        return None
    cells = list(a.cells)
    if len(diff) == 1:
        cells[diff[0]] = FREE
        return Row(a.width, tuple(cells), a.groups)
    gid = len(a.groups)
    for p in diff:
        cells[p] = gid
    groups = dict(enumerate(a.groups))
    groups[gid] = GroupSpec("d", tuple(diff))
    return _row(a.width, cells, groups)


def _fixed_masks(row):
    ones = zeros = 0
    for p, c in enumerate(row.cells):
        if c == FIXED1:
            ones |= 1 << p
        elif c == FIXED0:
            zeros |= 1 << p
    return ones, zeros


class FinalRows:
    """The final rows of an enumeration, with their labels and provenance,
    in arrival order.

    An arriving row merges with the first stored row, in arrival order,
    that differs from it only on a block that is all 0 in one row and all 1
    in the other (`_try_merge`); the merged row arrives in its place, and
    the row that is finally kept goes to the end, with the provenance
    "exhausted" or, after a merge, "merge(stored label,arriving label)"
    and the arriving row's label.  Only rows of one shape
    can merge, the shape being the groups and the cells with 0 and 1 made
    alike, so the stored rows are bucketed by shape.  Within a bucket the
    rows fix the same cells, and two of them merge exactly when x = a1 ^ b1
    of their ones masks is not 0 and lies inside a1 or inside b1: x is the
    block, all 1 in one row and all 0 in the other."""

    def __init__(self):
        self.merges = 0
        self._rows = {}  # arrival number -> (row, label, provenance)
        self._shapes = {}  # shape -> {arrival number: ones mask}, in arrival order
        self._arrivals = 0

    def add(self, row, label):
        ones = _fixed_masks(row)[0]
        why = "exhausted"
        while True:
            shape = (tuple(FIXED0 if c == FIXED1 else c for c in row.cells), row.groups)
            bucket = self._shapes.setdefault(shape, {})
            for i, a1 in bucket.items():
                x = a1 ^ ones
                if x and (x & a1 == x or x & ones == x):
                    break
            else:
                bucket[self._arrivals] = ones
                self._rows[self._arrivals] = (row, label, why)
                self._arrivals += 1
                return
            del bucket[i]
            kept, kept_label, _ = self._rows.pop(i)
            self.merges += 1
            why = f"merge({kept_label},{label})"
            row = _try_merge(kept, row)
            ones &= a1

    def rowset(self, width, stats=None):
        entries = self._rows.values()
        return RowSet(
            width,
            tuple(e[0] for e in entries),
            tuple(e[1] for e in entries),
            tuple(e[2] for e in entries),
            stats,
        )


def enumerate_ideals(poset, lines):
    """All order ideals closed under the line constraints, as a RowSet.

    Lines are imposed LIFO and in input order: the working stack holds
    (row, k, label, checked, held) entries, where k is the index of the next
    line to impose, and the top entry gets line k.  A row with every line
    imposed is final and lands in a `FinalRows` store, where rows differing
    by one complementary 0/1 block are compressed into d rows; the store
    looks for a merge partner only among the stored rows of the same shape.
    A split's parts get fresh labels; a row an imposition leaves unchanged
    keeps its own.

    Two shortcuts leave the final rows and their order as they are:

    - prune: a popped row is dropped when some line from k on holds two
      fixed 1s and a fixed 0, since every string of the row breaks it.
    - skip: a line with no fixed 1 and at most one undetermined cell, or
      with every cell fixed, at most one 1 or all 1s, holds on every
      string of the row; the cursor steps over it without an
      `impose_line` call.

    A line's standing changes only when one of its cells gets fixed, and
    a line that holds keeps holding in every row below, whose strings are
    a subset.  So each stack entry also carries the mask `checked` of the
    cells fixed in its parent (0 for a seed) and the mask `held` of the
    lines known to hold (the parent's; for a seed, the lines of at most
    one cell).  One walk over the lines from k on through a newly fixed
    cell, not yet in `held`, does both tests, and the cursor jumps to the
    lowest line from k on that is not in `held`.

    Both tests are int operations on the row's masks of fixed 1s and 0s.
    Rows are checked at the boundaries (`make_row`, `row_from_json`); the
    rows built in between come from well-formed rows and are not
    re-checked.  The counts land in the result's `stats` (an `EnumStats`).
    """
    line_sets = [tuple(sorted(set(int(p) for p in line))) for line in lines]
    masks = [sum(1 << p for p in line) for line in line_sets]
    nlines = len(masks)
    through = [0] * poset.width  # per point, the mask of the indices of its lines
    for k, line in enumerate(line_sets):
        for p in line:
            through[p] |= 1 << k
    seeds = seed_order_ideals(poset)
    stats = EnumStats(seeds=len(seeds.rows), peak_stack=len(seeds.rows))
    sizes = Counter()
    counter = len(seeds.rows)
    small = sum(1 << k for k, m in enumerate(masks) if m & (m - 1) == 0)
    stack = [(row, 0, lab, 0, small) for row, lab in zip(seeds.rows, seeds.labels)]
    stack.reverse()
    finals = FinalRows()
    skipped = pruned = noops = 0

    while stack:
        row, k, label, checked, held = stack.pop()
        ones, zeros = _fixed_masks(row)
        fixed = ones | zeros
        # the lines from k on through a newly fixed cell, not known to hold
        new = fixed & ~checked
        near = 0
        while new:
            low = new & -new
            near |= through[low.bit_length() - 1]
            new ^= low
        near = near >> k << k & ~held
        while near:
            low = near & -near
            m = masks[low.bit_length() - 1]
            # o and u are the line's fixed 1s and undetermined cells
            o, u = ones & m, m & ~fixed
            if o & (o - 1):
                if zeros & m:
                    break  # prune
                if o == m:
                    held |= low
            elif not u or not o and not u & (u - 1):
                held |= low
            near ^= low
        if near:
            pruned += 1
            continue
        h = held >> k
        start, k = k, k + ((h + 1) & ~h).bit_length() - 1
        skipped += k - start
        if k == nlines:
            finals.add(row, label)
            continue
        parts = impose_line(row, line_sets[k])
        sizes[len(parts)] += 1
        if len(parts) > len(line_sets[k]) + 2:
            stats.split_bound_violations += 1
        if len(parts) == 1 and parts[0].same_content(row):
            noops += 1
            stack.append((parts[0], k + 1, label, fixed, held))
            continue
        for i in reversed(range(len(parts))):
            stack.append((parts[i], k + 1, f"r{counter + 1 + i}", fixed, held))
        counter += len(parts)
        stats.peak_stack = max(stats.peak_stack, len(stack))
    stats.impositions = sum(sizes.values())
    stats.noop_impositions = noops
    stats.skipped = skipped
    stats.pruned_rows = pruned
    stats.split_sizes = dict(sorted(sizes.items()))
    stats.dead_rows = sizes[0]
    stats.merges = finals.merges
    return finals.rowset(poset.width, stats)


# -- text and JSON forms -------------------------------------------------


def _symbols(row):
    syms = []
    for p, c in enumerate(row.cells):
        if isinstance(c, str):
            syms.append(c)
        else:
            spec = row.groups[c]
            k = c + 1
            if spec.kind == "imp":
                syms.append(f"a{k}" if p in spec.premise else f"b{k}")
            else:
                syms.append({"d": "d", "eps": "e", "g": "g", "ell": "l"}[spec.kind] + str(k))
    return syms


def row_to_text(row, label=None):
    syms = _symbols(row)
    head = f"{label}: " if label else ""
    return f"{head}{' '.join(f'{s:>2}' for s in syms)}  ; count={row_count(row)}"


def rowset_to_text(rowset):
    lines = []
    for row, lab in zip(rowset.rows, rowset.labels or [None] * len(rowset.rows)):
        lines.append(row_to_text(row, lab))
    lines.append(f"total {total_count(rowset)} in {len(rowset.rows)} rows")
    return "\n".join(lines) + "\n"


def group_to_json(spec):
    d = {"kind": spec.kind, "members": list(spec.members)}
    if spec.kind == "imp":
        d["premise"] = list(spec.premise)
        d["conclusion"] = list(spec.conclusion)
    return d


def group_from_json(d):
    return GroupSpec(
        d["kind"],
        tuple(sorted(d["members"])),
        tuple(sorted(d.get("premise", ()))),
        tuple(sorted(d.get("conclusion", ()))),
    )


def row_to_json(row):
    return {
        "cells": list(row.cells),
        "groups": [group_to_json(g) for g in row.groups],
    }


def row_from_json(d, width=None):
    cells = tuple(c if isinstance(c, str) else int(c) for c in d["cells"])
    groups = tuple(group_from_json(g) for g in d.get("groups", ()))
    return make_row(len(cells) if width is None else width, cells, groups)


def rowset_to_json(rowset):
    return {
        "width": rowset.width,
        "rows": [row_to_json(r) for r in rowset.rows],
        "labels": list(rowset.labels),
        "provenance": list(rowset.provenance),
        "total": str(total_count(rowset)),
    }


def rowset_from_json(d):
    rows = tuple(row_from_json(r, d["width"]) for r in d["rows"])
    labels = tuple(d.get("labels", ()))
    prov = tuple(d.get("provenance", ()))
    return RowSet(d["width"], rows, labels, prov)


def poset_to_json(poset):
    return {
        "points": [poset.label(p) for p in range(poset.width)],
        "covers": [[poset.label(a), poset.label(b)] for a, b in poset.covers],
    }


def poset_from_json(d):
    if not isinstance(d, dict):
        raise ValueError("poset JSON must be an object")
    if "points" not in d:
        raise ValueError("poset JSON has no 'points' key")
    covers = d.get("covers", [])
    if not isinstance(d["points"], list) or not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 for c in covers
    ):
        raise ValueError("'points' must be a list and 'covers' a list of [lower, upper] pairs")
    points = [str(p) for p in d["points"]]
    index = {p: i for i, p in enumerate(points)}

    def resolve(x):
        if isinstance(x, int):
            return x
        key = str(x)
        if key not in index:
            raise ValueError(f"cover names unknown point {key!r}")
        return index[key]

    covers = [(resolve(a), resolve(b)) for a, b in covers]
    return GroundPoset(len(points), tuple(covers), tuple(points))


def lines_from_json(d, poset):
    if isinstance(d, dict) and "lines" not in d:
        raise ValueError("lines JSON has no 'lines' key")
    raw = d["lines"] if isinstance(d, dict) else d
    if not isinstance(raw, list) or not all(isinstance(line, list) for line in raw):
        raise ValueError("lines must be a list of point lists")
    index = {lab: i for i, lab in enumerate(poset.labels or ())}

    def resolve(x):
        if not isinstance(x, int):
            key = str(x)
            if key not in index:
                raise ValueError(f"line names unknown point {key!r}")
            return index[key]
        if not 0 <= x < poset.width:
            raise ValueError(f"line point {x} out of range 0..{poset.width - 1}")
        return x

    return [tuple(sorted(resolve(p) for p in line)) for line in raw]
