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
final rows.  The work it does is counted in an `EnumStats`.  `row_masks`
lists a row's strings as int masks; `expand` is its 0/1-tuple view.

Row sets are written as text and JSON (`rowset_to_text`,
`rowset_to_json`) and never read back.  `make_row` is the one checked
constructor: it rejects a row that is not well formed.  The rows that
`force`, `with_group`, `_try_merge` and the seeding build out of
well-formed rows are not re-checked.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from typing import NamedTuple

from .lattice import LatticeError, WildcardError, bits, cover_order, first_repeat

FIXED0 = "0"
FIXED1 = "1"
FREE = "2"

# the most strings `row_masks` lists for one row
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
    entry point for rows built by callers; the row builders below make
    rows out of well-formed rows."""
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


def row_masks(row):
    """All bitstrings the row denotes, as int masks (bit p is cell p).
    Raises ExpansionCapExceeded on a row of more than `EXPAND_CAP`."""
    count = row_count(row)
    if count > EXPAND_CAP:
        raise ExpansionCapExceeded(f"row denotes {count} > cap {EXPAND_CAP}")
    strings = [row.ones]
    for p in bits(row.free):
        strings += [s | 1 << p for s in strings]
    for spec in row.groups:
        strings = [s | a for s in strings for a in spec.assignments()]
    if len(strings) != count:
        raise WildcardError(f"row expands to {len(strings)} strings but counts {count}")
    return strings


def expand(row):
    """The strings of `row_masks`, as sorted tuples of 0s and 1s."""
    return sorted(tuple([s >> p & 1 for p in range(row.width)]) for s in row_masks(row))


# -- forcing ----------------------------------------------------------


def force(row, one=0, zero=0):
    """Fix the cells of the mask `one` to 1 and those of `zero` to 0, and
    propagate through groups.

    Returns the rewritten Row, or None when the masks contradict the row
    or each other.  Each group hit is rewritten once, for all its hit
    members together, following the wildcard semantics: a d member
    carries the others with it, a 1 in an eps/g zeroes its mates, an ell
    collapses to d (one 1) or eps (a 0), an imp premise 1 fires the
    conclusions while a conclusion 0 kills the premises.  What is left of
    a group goes back into the group order by its new lowest member; a
    lone survivor of an eps or ell is a free cell.
    """
    one &= ~row.ones
    zero &= ~row.zeros
    if one & (zero | row.zeros) or zero & row.ones:
        return None
    hit = one | zero
    groups, moved = [], False
    for spec in row.groups:
        m = spec.members
        if not m & hit:
            groups.append(spec)
            continue
        kind, o, z = spec.kind, one & m, zero & m
        rest = m & ~hit
        new = None  # what is left of the group
        if kind == "d":
            if o and z:
                return None
            if o:
                one |= rest
            else:
                zero |= rest
        elif kind == "imp":
            prem = spec.premise
            if o & prem:  # a premise 1: every conclusion is 1
                if z & ~prem:
                    return None
                one |= rest & ~prem
            elif z & ~prem:  # a conclusion 0: every premise is 0
                zero |= rest & prem
            elif rest & prem and rest & ~prem:
                new = GroupSpec("imp", rest, rest & prem)
        elif not _single(o):  # two 1s: only an ell admits them, all 1
            if kind != "ell" or z:
                return None
            one |= rest
        elif o:  # one 1: the rest is 0, or for an ell with no 0 all equal
            if kind == "ell" and not z:
                if not _single(rest):
                    new = GroupSpec("d", rest)
            else:
                zero |= rest
        elif kind == "g" and _single(rest):  # only 0s: the last one left is the 1
            if not rest:
                return None
            one |= rest
        elif not _single(rest):  # only 0s: a g stays g, an eps or ell becomes eps
            new = GroupSpec("g" if kind == "g" else "eps", rest)
        if new is not None:
            groups.append(new)
            moved = moved or new.members & -new.members != m & -m
    if moved:
        groups.sort(key=_low)
    return Row(row.width, row.ones | one, row.zeros | zero, tuple(groups))


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

    if not undet:
        ok = ones <= 1 or ones == line.bit_count()
        return [row] if ok else []
    if ones >= 2:
        if zeros:
            return []  # two 1s demand all 1s, but a fixed 0 forbids that
        r = force(row, one=undet)
        return [r] if r is not None else []
    if ones == 1:
        if not zeros and _single(undet):
            return [row]  # two-point case: the undetermined cell may go either way
        out = [force(row, zero=undet)]
        if not zeros:
            out.append(force(row, one=undet))
        return [r for r in out if r is not None]

    # no fixed 1 yet
    if _single(undet):
        return [row]  # at most one 1 is guaranteed
    if not undet & ~row.free:
        return [with_group(row, "eps" if zeros else "ell", undet)]

    out = [force(row, zero=undet)]
    for mem in _line_units(row, undet):
        out.append(_one_hot_row(row, undet, mem))
    if not zeros:
        out.append(force(row, one=undet))
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
    others = undet & ~mem
    if _single(mem):
        return force(row, one=mem, zero=others)
    spec = _group_at(row, (mem & -mem).bit_length() - 1)
    if spec is None:
        base = force(row, zero=others)
        return with_group(base, "g", mem) if base is not None else None
    if spec.kind == "d":
        return None  # d members are all-equal; a single 1 among >= 2 is impossible
    base = force(row, zero=others | spec.members & ~mem)
    if base is None:
        return None
    return _retype_to_g(base, mem)


# -- ground posets and seeding -----------------------------------------


class GroundPoset:
    """The point poset lines live on, given by its cover relation on the
    points 0..width-1, which construction checks with `lattice.cover_order`
    as `Lattice` does, raising ValueError that names the points by their
    labels, if any.  `strict_up[p]` is the int mask of the points strictly
    above p (`strict_down[p]` dually)."""

    def __init__(self, width, covers, labels=None):
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != width:
                raise ValueError(f"{len(labels)} labels for {width} points")
        name = labels.__getitem__ if labels else str
        try:
            self.covers, _, _, _, up, down = cover_order(width, covers, name)
        except LatticeError as exc:
            raise ValueError(str(exc)) from None
        self.width = width
        self.labels = labels
        self.strict_up = tuple(u & ~(1 << p) for p, u in enumerate(up))
        self.strict_down = tuple(d & ~(1 << p) for p, d in enumerate(down))

    def label(self, p):
        return self.labels[p] if self.labels else f"p{p + 1}"


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


def rowset_masks(rowset):
    """The set of all bitstrings the rows denote, as int masks."""
    return {s for r in rowset.rows for s in row_masks(r)}


def rowset_bitstrings(rowset):
    """The strings of `rowset_masks`, as tuples of 0s and 1s."""
    return {tuple([s >> p & 1 for p in range(rowset.width)]) for s in rowset_masks(rowset)}


def seed_order_ideals(poset):
    """Rows jointly denoting all downward-closed subsets of the poset.

    Branches on a pivot point lying on several unresolved covers (highest
    up+down degree, ties to the lowest index); membership propagates
    down-sets on 1 and up-sets on 0.  Covers left with both ends
    undetermined become pairwise imp groups.  The branches wait on one
    LIFO stack of (ones, zeros, covers) entries, each holding the covers
    its parent left unresolved as (members, premise) masks; the 0-branch
    goes on first, so the 1-branch's rows come out first.  The points on
    two unresolved covers are found by an OR over them.
    """
    rows = []
    up, down = poset.strict_up, poset.strict_down
    # the pivot is the first point in this order lying on two unresolved covers
    order = [p for _, p in sorted((-(up[p] | down[p]).bit_count(), p) for p in range(poset.width))]
    # covers left unresolved are disjoint, so in this order they come
    # ordered by their lowest member, as a row's groups are
    covers = [(1 << lo | 1 << hi, 1 << hi) for lo, hi in sorted(poset.covers, key=min)]
    stack = [(0, 0, covers)]
    while stack:
        ones, zeros, covers = stack.pop()
        fixed = ones | zeros
        active = [c for c in covers if not c[0] & fixed]
        once = twice = 0
        for m, _ in active:
            twice |= once & m
            once |= m
        if not twice:
            groups = tuple(GroupSpec("imp", m, hi) for m, hi in active)
            rows.append(Row(poset.width, ones, zeros, groups))
            continue
        pivot = next(p for p in order if twice >> p & 1)
        stack.append((ones, zeros | 1 << pivot | up[pivot], active))
        stack.append((ones | 1 << pivot | down[pivot], zeros, active))
    labels = tuple(f"r{i + 1}" for i in range(len(rows)))
    return RowSet(poset.width, tuple(rows), labels)


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
    (row, k, label, standing) entries, where k is the index of the next
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
    a subset.  So each stack entry carries the standing of all lines in
    its parent (for a seed, that of no fixed cell) as int masks with one
    field of c + 1 bits per line, where 2^c exceeds every line's size:
    `checked`, the cells fixed in the parent; `held`, the lines known to
    hold (for a seed, the lines of at most one cell); `once` and `twice`,
    the lines with at least one and two fixed 1s; `zero`, those with a
    fixed 0; and `count`, per line 2^c - |line| plus its fixed cells, so
    that bit c of a field says "no undetermined cell", and of the field
    plus 1 "at most one".  Each newly fixed cell adds its lines to these;
    both tests are then mask expressions over the lines through a newly
    fixed cell, from k on and not yet in `held`, and the cursor jumps to
    the lowest line from k on that is not in `held`.

    The tests, the imposition (`impose_line`, `force`) and the store's
    merge test are int operations on the row's `ones` and `zeros` masks.
    The rows it builds come from well-formed rows and are not re-checked.
    The counts land in the result's `stats` (an `EnumStats`).
    """
    line_sets = [tuple(sorted(set(int(p) for p in line))) for line in lines]
    nlines = len(line_sets)
    c = max(map(len, line_sets), default=0).bit_length()
    s = c + 1  # line k is the field at bit k * s
    through = [0] * poset.width  # per point, its lines
    for k, line in enumerate(line_sets):
        for p in line:
            through[p] |= 1 << k * s
    lined = sum(1 << p for p, t in enumerate(through) if t)  # the points on some line
    units = sum(1 << k * s for k in range(nlines + 1))  # every line, and one past the last
    small = sum(1 << k * s for k, line in enumerate(line_sets) if len(line) <= 1)
    count = sum((1 << c) - len(line) << k * s for k, line in enumerate(line_sets))
    blank = (0, small, 0, 0, 0, count)  # the standing of no fixed cell
    seeds = seed_order_ideals(poset)
    sizes = Counter()
    counter = len(seeds.rows)
    stack = [(row, 0, lab, blank) for row, lab in zip(seeds.rows, seeds.labels)]
    stack.reverse()
    finals = FinalRows()
    skipped = pruned = noops = violations = 0
    peak = len(stack)

    while stack:
        row, k, label, standing = stack.pop()
        checked, held, once, twice, zero, count = standing
        ones = row.ones
        fixed = ones | row.zeros
        new = fixed & ~checked & lined
        if new:
            near = 0
            while new:
                low = new & -new
                new ^= low
                t = through[low.bit_length() - 1]
                near |= t
                count += t
                if ones & low:
                    twice |= once & t
                    once |= t
                else:
                    zero |= t
            near = near >> k * s << k * s & ~held
            if near & twice & zero:
                pruned += 1
                continue
            held |= near & (count >> c | ~once & (count + units) >> c)
            standing = (fixed, held, once, twice, zero, count)
        free = ~(held >> k * s) & units >> k * s  # the lines from k on not held
        start, k = k, k + ((free & -free).bit_length() - 1) // s
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
            stack.append((parts[0], k + 1, label, standing))
            continue
        for i in reversed(range(len(parts))):
            stack.append((parts[i], k + 1, f"r{counter + 1 + i}", standing))
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


def row_to_json(row):
    return {
        "cells": list(row.cells),
        "groups": [group_to_json(g) for g in row.groups],
    }


def rowset_to_json(rowset):
    return {
        "width": rowset.width,
        "rows": [row_to_json(r) for r in rowset.rows],
        "labels": list(rowset.labels),
        "provenance": list(rowset.provenance),
        "total": str(total_count(rowset)),
    }


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
