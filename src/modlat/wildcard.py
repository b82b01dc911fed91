"""Compressed enumeration of constrained order ideals.

A Row denotes a set of bitstrings of a fixed width.  It holds the int
masks `ones` and `zeros` of the cells fixed to 1 and to 0, and its
wildcard groups; every other cell is free.  A group is a kind and the
mask of its members, and an imp group also has the mask of its premise
(its conclusion is the other members):

    imp  premise/conclusion cells: any premise 1 forces all conclusions 1
    d    all members equal
    eps  at most one member is 1
    g    exactly one member is 1
    ell  at most one member is 1, or all of them are

A row's groups are disjoint and ordered by their lowest member, which is
how the cell form numbers them: `row.cells` lists per position "0", "1",
"2" (free) or the index of the position's group, and the text and JSON
forms are written from it.

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
are not re-checked.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .lattice import CycleInCovers, WildcardError, bits, first_repeat, topological_up_sets

FIXED0 = "0"
FIXED1 = "1"
FREE = "2"

# the most strings `expand` lists for one row
EXPAND_CAP = 1_000_000


class ExpansionCapExceeded(WildcardError):
    pass


def _single(mask):
    """True when `mask` has at most one bit set."""
    return not mask & (mask - 1)


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class GroupSpec(NamedTuple):
    """One wildcard group: its kind and the mask of its members.  An imp
    group also has the mask of its premise; its conclusion is the rest.
    `count` is the number of valuations the group admits; it shadows
    `tuple.count`."""

    kind: str
    members: int
    premise: int = 0

    @property
    def conclusion(self):
        return self.members & ~self.premise

    def well_formed(self):
        m, prem = self.members, self.premise
        if type(m) is not int or type(prem) is not int or m < 0 or prem < 0 or prem & ~m:
            return False
        if self.kind == "imp":
            return 0 < prem < m
        return self.kind in ("d", "eps", "g", "ell") and not prem and not _single(m)

    def count(self):
        lam = self.members.bit_count()
        if self.kind == "imp":
            return 2 ** self.conclusion.bit_count() + 2 ** self.premise.bit_count() - 1
        if self.kind == "d":
            return 2
        if self.kind == "eps":
            return lam + 1
        if self.kind == "g":
            return lam
        return lam + 2  # ell

    def assignments(self):
        """The masks of the members set to 1, one per valuation the group
        admits."""
        m = self.members
        if self.kind == "d":
            return [0, m]
        if self.kind == "imp":
            conc = self.conclusion
            return list(_submasks(conc)) + [p | conc for p in _submasks(self.premise) if p]
        out = [] if self.kind == "g" else [0]
        out += [1 << p for p in bits(m)]
        if self.kind == "ell":
            out.append(m)
        return out


def _low(spec):
    """The sort key of a group among a row's groups: its lowest member."""
    return spec.members & -spec.members


def _inserted(groups, spec):
    """The tuple `groups` with `spec` added in the order of their lowest members."""
    out = list(groups)
    insort(out, spec, key=_low)
    return tuple(out)


class Row(NamedTuple):
    """A compressed set of bitstrings of `width` bits: `ones` and `zeros`
    are the masks of the cells fixed to 1 and to 0, and `groups` the
    wildcard groups, disjoint and ordered by their lowest member."""

    width: int
    ones: int
    zeros: int
    groups: tuple

    @property
    def free(self):
        """The mask of the cells neither fixed nor in a group."""
        taken = self.ones | self.zeros
        for spec in self.groups:
            taken |= spec.members
        return (1 << self.width) - 1 & ~taken

    @property
    def cells(self):
        """The cell form: per position "0", "1", "2" (free) or the index
        of the position's group.  `make_row` reads it back."""
        cells = [FREE] * self.width
        for p in bits(self.ones):
            cells[p] = FIXED1
        for p in bits(self.zeros):
            cells[p] = FIXED0
        for gid, spec in enumerate(self.groups):
            for p in bits(spec.members):
                cells[p] = gid
        return tuple(cells)

    def same_content(self, other):
        """Equality; `perfbench/tracing.py` asks it of `impose_line`'s parts."""
        return self == other


def make_row(width, cells, groups=()):
    """The Row of a cell form: `cells` holds per position "0", "1", "2"
    (free) or the index into `groups` of the position's group.  Raises
    WildcardError on a row that is not well formed.  This is the checked
    entry point for rows from outside (JSON, callers); the row builders
    below make rows out of well-formed rows."""
    if len(cells) != width:
        raise WildcardError(f"row has {len(cells)} cells, width {width}")
    ones = zeros = 0
    pointed = [0] * len(groups)  # per group, the mask of the cells holding its index
    for p, c in enumerate(cells):
        if c == FIXED1:
            ones |= 1 << p
        elif c == FIXED0:
            zeros |= 1 << p
        elif type(c) is int and 0 <= c < len(groups):
            pointed[c] |= 1 << p
        elif c != FREE:
            raise WildcardError(f"cell {p} holds {c!r}, which is neither a symbol nor a group")
    for gid, spec in enumerate(groups):
        if not spec.well_formed():
            raise WildcardError(f"malformed group {spec}")
        missing = spec.members & ~pointed[gid]
        if missing:
            raise WildcardError(f"cell {next(bits(missing))} does not point at group {gid}")
        if pointed[gid] != spec.members:
            raise WildcardError("a cell points at a group it is no member of")
    return Row(width, ones, zeros, tuple(sorted(groups, key=_low)))


def row_count(row):
    n = 1 << row.free.bit_count()
    for spec in row.groups:
        n *= spec.count()
    return n


def expand(row):
    """All bitstrings the row denotes, as sorted tuples of 0s and 1s.
    Raises ExpansionCapExceeded on a row of more than `EXPAND_CAP`."""
    count = row_count(row)
    if count > EXPAND_CAP:
        raise ExpansionCapExceeded(f"row denotes {count} > cap {EXPAND_CAP}")
    strings = [row.ones]
    for p in bits(row.free):
        strings += [s | 1 << p for s in strings]
    for spec in row.groups:
        strings = [s | a for s in strings for a in spec.assignments()]
    width = range(row.width)
    out = sorted(tuple([s >> p & 1 for p in width]) for s in strings)
    if len(out) != count:
        raise WildcardError(f"row expands to {len(out)} strings but counts {count}")
    return out


# -- forcing ----------------------------------------------------------


def force(row, assignments):
    """Fix cells to 0/1 and propagate through groups.

    `assignments` maps positions to values.  Returns the rewritten Row,
    or None when the assignment contradicts the row.  Group rewrites
    follow the wildcard semantics: a d member carries the others with it,
    a 1 in an eps/g zeroes its mates, an ell collapses to d (hit by 1) or
    eps (hit by 0), an imp premise 1 fires the conclusions while a
    conclusion 0 kills the premises.  What is left of a group goes back
    into the group order by its new lowest member.
    """
    fixed = [row.zeros, row.ones]  # indexed by the value fixed
    groups = list(row.groups)
    queue = [(int(p), 1 if v else 0) for p, v in assignments.items()]

    def push(mask, val):
        queue.extend((q, val) for q in bits(mask))

    while queue:
        pos, val = queue.pop()
        bit = 1 << pos
        if fixed[val] & bit:
            continue
        if fixed[1 - val] & bit:
            return None
        fixed[val] |= bit
        for i, spec in enumerate(groups):
            if spec.members & bit:
                break
        else:
            continue  # a free cell
        del groups[i]
        kind, rest = spec.kind, spec.members & ~bit
        new = None  # what is left of the group
        if kind == "d":
            push(rest, val)
        elif kind in ("eps", "g"):
            if val:
                push(rest, 0)
            elif not _single(rest):
                new = GroupSpec(kind, rest)
            elif kind == "g":
                if not rest:
                    return None
                push(rest, 1)
        elif kind == "ell":
            if not _single(rest):  # a lone survivor is unconstrained
                new = GroupSpec("d" if val else "eps", rest)
        else:  # imp
            prem = spec.premise & ~bit
            if spec.premise & bit:
                if val:
                    push(rest & ~prem, 1)
                elif prem:
                    new = GroupSpec("imp", rest, prem)
            elif not val:
                push(prem, 0)
            elif rest & ~prem:
                new = GroupSpec("imp", rest, prem)
        if new is not None:
            insort(groups, new, lo=i, key=_low)
    return Row(row.width, fixed[1], fixed[0], tuple(groups))


def with_group(row, kind, members):
    """Attach a new group of `kind` (d, eps, g or ell) on `members`, a
    mask of free cells."""
    taken = members & ~row.free
    if taken:
        raise WildcardError(f"cell {next(bits(taken))} is not free, so it cannot join a new group")
    return Row(row.width, row.ones, row.zeros, _inserted(row.groups, GroupSpec(kind, members)))


def _retype_to_g(row, members):
    """Turn the eps, ell or g group on exactly `members` into a g group."""
    for i, spec in enumerate(row.groups):
        if spec.members == members:
            if spec.kind not in ("eps", "ell", "g"):
                raise WildcardError(f"a {spec.kind} group cannot become exactly-one")
            groups = row.groups[:i] + (GroupSpec("g", members),) + row.groups[i + 1 :]
            return Row(row.width, row.ones, row.zeros, groups)
    raise WildcardError(f"no group has the members {list(bits(members))}")


def _group_at(row, p):
    """The group holding position p, or None."""
    for spec in row.groups:
        if spec.members >> p & 1:
            return spec
    return None


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
    line = 0
    for p in positions:
        line |= 1 << int(p)
    if _single(line):
        raise ValueError("a line needs at least two positions")
    ones = (row.ones & line).bit_count()  # the fixed 1s on the line
    zeros = row.zeros & line
    undet = line & ~(row.ones | row.zeros)
    all_zero = dict.fromkeys(bits(undet), 0)
    all_one = dict.fromkeys(bits(undet), 1)

    if not undet:
        ok = ones <= 1 or ones == line.bit_count()
        return [row] if ok else []
    if ones >= 2:
        if zeros:
            return []  # two 1s demand all 1s, but a fixed 0 forbids that
        r = force(row, all_one)
        return [r] if r is not None else []
    if ones == 1:
        if not zeros and _single(undet):
            return [row]  # two-point case: the undetermined cell may go either way
        out = [force(row, all_zero)]
        if not zeros:
            out.append(force(row, all_one))
        return [r for r in out if r is not None]

    # no fixed 1 yet
    if _single(undet):
        return [row]  # at most one 1 is guaranteed
    if not undet & ~row.free:
        return [with_group(row, "eps" if zeros else "ell", undet)]

    out = [force(row, all_zero)]
    for mem in _line_units(row, undet):
        out.append(_one_hot_row(row, undet, mem))
    if not zeros:
        out.append(force(row, all_one))
    return [r for r in out if r is not None]


def _line_units(row, undet):
    """Masks of line positions that can share one "exactly one 1 here"
    sub-row, ordered by their lowest position: free cells merge, as do
    same-group eps/ell/g/d members; imp cells stay individual because
    premise and conclusion react differently."""
    units = {}
    for p in bits(undet):
        spec = _group_at(row, p)
        key = p if spec is not None and spec.kind == "imp" else spec  # None: free
        units[key] = units.get(key, 0) | 1 << p
    return list(units.values())


def _one_hot_row(row, undet, mem):
    """The sub-row whose strings have their single line-1 inside `mem`."""
    low = (mem & -mem).bit_length() - 1
    others = dict.fromkeys(bits(undet & ~mem), 0)
    if _single(mem):
        return force(row, {low: 1, **others})
    spec = _group_at(row, low)
    if spec is None:
        base = force(row, others)
        return with_group(base, "g", mem) if base is not None else None
    if spec.kind == "d":
        return None  # d members are all-equal; a single 1 among >= 2 is impossible
    base = force(row, {**others, **dict.fromkeys(bits(spec.members & ~mem), 0)})
    if base is None:
        return None
    return _retype_to_g(base, mem)


# -- ground posets and seeding -----------------------------------------


class GroundPoset:
    """The point poset lines live on, given by its cover relation on the
    points 0..width-1, which construction checks.  `strict_up[p]` is
    derived: the int mask of the points strictly above p (`strict_down[p]`
    dually)."""

    def __init__(self, width, covers, labels=None):
        self.width = width
        self.covers = covers = tuple(sorted((int(a), int(b)) for a, b in covers))
        for a, b in covers:
            if not (0 <= a < width and 0 <= b < width) or a == b:
                raise ValueError(f"bad cover ({a},{b})")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != width:
                raise ValueError(f"{len(labels)} labels for {width} points")
        self.labels = labels
        try:
            _, up = topological_up_sets(width, covers)
        except CycleInCovers:
            raise ValueError("cover relation contains a cycle") from None
        self.strict_up = tuple(u & ~(1 << p) for p, u in enumerate(up))

    def label(self, p):
        return self.labels[p] if self.labels else f"p{p + 1}"

    @cached_property
    def strict_down(self):
        _, down = topological_up_sets(self.width, [(b, a) for a, b in self.covers])
        return tuple(d & ~(1 << p) for p, d in enumerate(down))


class EnumStats(NamedTuple):
    """The work of one `enumerate_ideals` call.

    `split_sizes` maps the number of rows one `impose_line` call returned
    to how many calls returned that many; a call returning more than
    lambda + 2 rows for a line of lambda points breaks the paper's bound
    and is counted in `split_bound_violations`.  `noop_impositions` are
    the calls that returned the row unchanged.  `dead_rows` are rows an
    imposition turned into nothing, `pruned_rows` rows dropped before the
    line that would kill them came up, `skipped` the lines stepped over
    without an imposition because the row already satisfied them."""

    seeds: int
    impositions: int
    noop_impositions: int
    skipped: int
    split_sizes: dict
    split_bound_violations: int
    dead_rows: int
    pruned_rows: int
    merges: int
    peak_stack: int


class RowSet(NamedTuple):
    width: int
    rows: tuple
    labels: tuple = ()
    provenance: tuple = ()
    stats: EnumStats = None


def total_count(rowset):
    return sum(row_count(r) for r in rowset.rows)


def rowset_bitstrings(rowset):
    out = set()
    for r in rowset.rows:
        out.update(expand(r))
    return out


def seed_order_ideals(poset):
    """Rows jointly denoting all downward-closed subsets of the poset.

    Recursively branches on a pivot point lying on several unresolved
    covers (highest up+down degree, ties to the lowest index); membership
    propagates down-sets on 1 and up-sets on 0.  Covers left with both
    ends undetermined become pairwise imp groups.
    """
    rows, prov = [], []
    # covers left unresolved are disjoint, so in this order they come
    # ordered by their lowest member, as a row's groups are
    covers = sorted(poset.covers, key=min)

    def emit(ones, zeros, path):
        fixed = ones | zeros
        active = [(lo, hi) for lo, hi in covers if not (fixed >> lo | fixed >> hi) & 1]
        deg = Counter()
        for lo, hi in active:
            deg[lo] += 1
            deg[hi] += 1
        conflicted = [p for p, d in deg.items() if d >= 2]
        if not conflicted:
            groups = tuple(GroupSpec("imp", 1 << lo | 1 << hi, 1 << hi) for lo, hi in active)
            rows.append(Row(poset.width, ones, zeros, groups))
            prov.append("seed" + path)
            return
        pivot = max(
            conflicted,
            key=lambda p: ((poset.strict_up[p] | poset.strict_down[p]).bit_count(), -p),
        )
        name = poset.label(pivot)
        emit(ones | 1 << pivot | poset.strict_down[pivot], zeros, f"{path};{name}=1")
        emit(ones, zeros | 1 << pivot | poset.strict_up[pivot], f"{path};{name}=0")

    emit(0, 0, "")
    labels = tuple(f"r{i + 1}" for i in range(len(rows)))
    return RowSet(poset.width, tuple(rows), labels, tuple(prov))


def _try_merge(a, b):
    """Merge rows differing only on a block where one is all-0 and the
    other all-1 (block of length 1 becomes a free cell, longer ones a d
    group).  Returns the merged row or None."""
    if a.groups != b.groups or a.ones | a.zeros != b.ones | b.zeros:
        return None
    block = a.ones ^ b.ones
    if not block or block & ~a.ones and block & ~b.ones:
        return None
    groups = a.groups if _single(block) else _inserted(a.groups, GroupSpec("d", block))
    # the block is fixed in neither parent's masks
    return Row(a.width, a.ones & b.ones, a.zeros & b.zeros, groups)


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
    alike, so the stored rows are bucketed by shape; the groups and the
    mask of fixed cells determine it.  Within a bucket the
    rows fix the same cells, and two of them merge exactly when x = a1 ^ b1
    of their ones masks is not 0 and lies inside a1 or inside b1: x is the
    block, all 1 in one row and all 0 in the other."""

    def __init__(self):
        self.merges = 0
        self._rows = {}  # arrival number -> (row, label, provenance)
        self._shapes = {}  # shape -> {arrival number: ones mask}, in arrival order
        self._arrivals = 0

    def add(self, row, label):
        why = "exhausted"
        while True:
            ones = row.ones
            shape = (ones | row.zeros, row.groups)
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
    A split's parts get fresh labels; a row an imposition returns
    unchanged (the one part equals it) keeps its own.

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

    Both tests are int operations on the row's `ones` and `zeros` masks,
    as are the imposition and the store's merge test.  Rows are checked at the boundaries (`make_row`, `row_from_json`); the
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
    sizes = Counter()
    counter = len(seeds.rows)
    small = sum(1 << k for k, m in enumerate(masks) if m & (m - 1) == 0)
    stack = [(row, 0, lab, 0, small) for row, lab in zip(seeds.rows, seeds.labels)]
    stack.reverse()
    finals = FinalRows()
    skipped = pruned = noops = violations = 0
    peak = len(stack)

    while stack:
        row, k, label, checked, held = stack.pop()
        ones, zeros = row.ones, row.zeros
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
            violations += 1
        if len(parts) == 1 and parts[0] == row:
            noops += 1
            stack.append((parts[0], k + 1, label, fixed, held))
            continue
        for i in reversed(range(len(parts))):
            stack.append((parts[i], k + 1, f"r{counter + 1 + i}", fixed, held))
        counter += len(parts)
        peak = max(peak, len(stack))
    stats = EnumStats(
        seeds=len(seeds.rows),
        impositions=sum(sizes.values()),
        noop_impositions=noops,
        skipped=skipped,
        split_sizes=dict(sorted(sizes.items())),
        split_bound_violations=violations,
        dead_rows=sizes[0],
        pruned_rows=pruned,
        merges=finals.merges,
        peak_stack=peak,
    )
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
                syms.append(f"a{k}" if spec.premise >> p & 1 else f"b{k}")
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
    d = {"kind": spec.kind, "members": list(bits(spec.members))}
    if spec.kind == "imp":
        d["premise"] = list(bits(spec.premise))
        d["conclusion"] = list(bits(spec.conclusion))
    return d


def _positions_mask(ps, width, key):
    """The mask of the list `ps` of distinct positions below `width`."""
    if not isinstance(ps, list):
        raise WildcardError(f"group {key!r} must be a list of positions")
    mask = 0
    for p in ps:
        if type(p) is not int or not 0 <= p < width:
            raise WildcardError(f"group {key!r} holds {p!r}, not a position below {width}")
        if mask >> p & 1:
            raise WildcardError(f"group {key!r} repeats position {p}")
        mask |= 1 << p
    return mask


def row_to_json(row):
    return {
        "cells": list(row.cells),
        "groups": [group_to_json(g) for g in row.groups],
    }


def row_from_json(d, width=None):
    """The Row of a JSON row.  The premise and conclusion of an imp group
    must split its members, and other kinds have neither; `make_row`
    checks the rest."""
    if not isinstance(d, dict) or not isinstance(d.get("cells"), list):
        raise WildcardError("a row must be an object with a 'cells' list")
    if not isinstance(d.get("groups", []), list):
        raise WildcardError("a row's 'groups' must be a list")
    cells = d["cells"]
    groups = []
    for g in d.get("groups", []):
        if not isinstance(g, dict):
            raise WildcardError("a group must be an object")
        members, premise, conclusion = (
            _positions_mask(g.get(key, []), len(cells), key)
            for key in ("members", "premise", "conclusion")
        )
        kind = g.get("kind")
        if premise & conclusion or premise | conclusion != (members if kind == "imp" else 0):
            raise WildcardError(f"malformed group {g}")
        groups.append(GroupSpec(kind, members, premise))
    return make_row(len(cells) if width is None else width, cells, tuple(groups))


def rowset_to_json(rowset):
    return {
        "width": rowset.width,
        "rows": [row_to_json(r) for r in rowset.rows],
        "labels": list(rowset.labels),
        "provenance": list(rowset.provenance),
        "total": str(total_count(rowset)),
    }


def rowset_from_json(d):
    if not isinstance(d, dict) or type(d.get("width")) is not int or not isinstance(d.get("rows"), list):
        raise WildcardError("a row set must be an object with an int 'width' and a 'rows' list")
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
    dup = first_repeat(points)
    if dup is not None:
        raise ValueError(f"poset JSON names point {dup!r} more than once")
    index = {p: i for i, p in enumerate(points)}

    def resolve(x):
        if type(x) is int:  # a JSON boolean is a label, as is any other non-int
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
        if type(x) is not int:  # a JSON boolean is a label, as is any other non-int
            key = str(x)
            if key not in index:
                raise ValueError(f"line names unknown point {key!r}")
            return index[key]
        if not 0 <= x < poset.width:
            raise ValueError(f"line point {x} out of range 0..{poset.width - 1}")
        return x

    out = []
    for line in raw:
        ids = [resolve(p) for p in line]
        dup = first_repeat(ids)
        if dup is not None:
            name = poset.labels[dup] if poset.labels else dup
            raise ValueError(f"line names point {name!r} more than once")
        out.append(tuple(sorted(ids)))
    return out
