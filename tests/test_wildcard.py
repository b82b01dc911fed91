from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from itertools import product

import pytest

from modlat import wildcard
from modlat.algebra import parse_group
from modlat.corpus import seven_point_lines, seven_point_poset, standard_corpus
from modlat.lattice import bits
from modlat.rebuild import roundtrip_check
from modlat.wildcard import (
    FIXED0,
    FIXED1,
    FREE,
    FinalRows,
    GroundPoset,
    GroupSpec,
    RowSet,
    WildcardError,
    enumerate_ideals,
    expand,
    force,
    impose_line,
    lines_from_json,
    make_row,
    poset_from_json,
    row_count,
    row_to_json,
    row_to_text,
    rowset_to_json,
    rowset_to_text,
    seed_order_ideals,
    total_count,
    with_group,
)

from oracles import (
    LinearStore,
    brute_closed_ideals,
    contains,
    enumeration_input,
    fano_pls,
    is_down_closed,
    line_admits,
    plain_enumerate,
    poset_to_json,
    random_lines,
    random_poset_covers,
    random_row,
    rowset_bitstrings,
    scanning_enumerate,
)


def expansions(rows):
    out = set()
    for r in rows:
        out.update(expand(r))
    return out


def assert_well_formed(row):
    """The row is what `make_row` makes of its cell form: its fixed masks
    are disjoint and inside the width, and its groups are well formed,
    disjoint, clear of the fixed cells and ordered by their lowest member."""
    assert make_row(row.width, row.cells, row.groups) == row, row


@pytest.fixture(autouse=True)
def final_rows_are_well_formed(monkeypatch):
    """In every enumeration of this module, each row that reaches the
    store of final rows, and each row the store keeps, is well formed."""

    class Checked(FinalRows):
        def add(self, row, label):
            assert_well_formed(row)
            super().add(row, label)

        def rowset(self, width, stats=None):
            out = super().rowset(width, stats)
            for r in out.rows:
                assert_well_formed(r)
            return out

    monkeypatch.setattr(wildcard, "FinalRows", Checked)


# -- group weights ---------------------------------------------------------


def test_group_counts():
    assert GroupSpec("imp", 0b11, 0b01).count() == 3
    assert GroupSpec("d", 0b111).count() == 2
    assert GroupSpec("eps", 0b111).count() == 4
    assert GroupSpec("g", 0b111).count() == 3
    assert GroupSpec("ell", 0b111).count() == 5


def test_seed_row_weight_example():
    # two imp pairs and two free cells: 3 * 3 * 2 * 2 = 36
    row = make_row(
        6,
        (0, FREE, 1, 0, 1, FREE),
        (
            GroupSpec("imp", 0b01001, 0b01000),
            GroupSpec("imp", 0b10100, 0b10000),
        ),
    )
    assert row_count(row) == 36
    assert len(expand(row)) == 36


def test_all_fixed_row_counts_one():
    row = make_row(3, (FIXED0, FIXED1, FIXED0))
    assert row_count(row) == 1
    assert expand(row) == [(0, 1, 0)]


def test_expand_rejects_strings_that_disagree_with_the_count(monkeypatch):
    row = make_row(2, (0, 0), (GroupSpec("eps", 0b11),))
    monkeypatch.setattr(GroupSpec, "count", lambda self: 4)
    with pytest.raises(WildcardError, match="expands to 3 strings but counts 4"):
        expand(row)


# -- expansion and membership -------------------------------------------------


def test_expand_matches_count_on_random_rows():
    rng = random.Random(2)
    for _ in range(80):
        row = random_row(rng, rng.randint(1, 10))
        bits = expand(row)
        assert len(bits) == row_count(row)
        assert len(set(bits)) == len(bits)


def test_contains_agrees_with_expansion():
    rng = random.Random(3)
    for _ in range(40):
        width = rng.randint(1, 8)
        row = random_row(rng, width)
        members = set(expand(row))
        for bits in (tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(30)):
            assert contains(row, bits) == (bits in members)


def test_eps_row_expansion_fixture():
    row = make_row(
        7,
        (FIXED0, FIXED1, FIXED0, FIXED0, 0, 0, FIXED0),
        (GroupSpec("eps", 0b110000),),
    )
    assert set(expand(row)) == {
        (0, 1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0, 1, 0),
    }


def test_d_group_semantics():
    row = make_row(
        7,
        (FIXED1, FIXED1, FIXED1, 0, FIXED1, FIXED1, 0),
        (GroupSpec("d", 0b1001000),),
    )
    assert contains(row, (1, 1, 1, 1, 1, 1, 1))
    assert contains(row, (1, 1, 1, 0, 1, 1, 0))
    assert not contains(row, (1, 1, 1, 1, 1, 1, 0))


# -- force ----------------------------------------------------------------------


def _forced_strings(row, one, zero):
    return {
        b for b in expand(row)
        if all(b[p] for p in bits(one)) and not any(b[p] for p in bits(zero))
    }


def test_force_is_exact_restriction():
    rng = random.Random(9)
    for _ in range(150):
        width = rng.randint(2, 9)
        row = random_row(rng, width)
        k = rng.randint(1, min(3, width))
        positions = rng.sample(range(width), k)
        one = sum(1 << p for p in positions if rng.randint(0, 1))
        zero = sum(1 << p for p in positions) & ~one
        out = force(row, one, zero)
        expected = _forced_strings(row, one, zero)
        if out is None:
            assert expected == set()
        else:
            assert set(expand(out)) == expected


def test_force_on_overlapping_and_fixed_cells():
    # `one` and `zero` may share cells, and may name cells the row already
    # fixes, to the same value or to the other one
    rng = random.Random(91)
    seen = Counter()
    for _ in range(400):
        width = rng.randint(2, 9)
        row = random_row(rng, width)
        one = rng.getrandbits(width) & rng.getrandbits(width)
        zero = rng.getrandbits(width) & rng.getrandbits(width)
        if rng.random() < 0.5:
            one, zero = one | row.ones, zero | row.zeros  # restating fixed cells changes nothing
        out = force(row, one, zero)
        expected = _forced_strings(row, one, zero)
        seen[out is None, bool(one & zero), bool(one & row.zeros or zero & row.ones)] += 1
        if out is None:
            assert expected == set()
        else:
            assert set(expand(out)) == expected
            assert make_row(out.width, out.cells, out.groups) == out
    assert force(make_row(2, (FIXED1, FREE)), one=0b01) == make_row(2, (FIXED1, FREE))
    assert force(make_row(3, (FREE,) * 3), one=0b011, zero=0b110) is None
    # overlaps and clashes with fixed cells came up, and so did rows
    assert seen[True, True, False] and seen[True, False, True] and seen[False, False, False], seen


def test_row_masks_are_scanned_and_make_equality():
    row = make_row(3, (FIXED1, FREE, FIXED0))
    assert (row.ones, row.zeros) == (0b001, 0b100)
    assert row.cells == (FIXED1, FREE, FIXED0)
    made = make_row(3, row.cells)
    assert made == row and hash(made) == hash(row)
    assert made != make_row(3, (FIXED0, FREE, FIXED1))
    assert repr(row) == "Row(width=3, ones=1, zeros=4, groups=())"


def test_force_contradiction():
    row = make_row(2, (FIXED0, FREE))
    assert force(row, one=0b01) is None


# -- impose_line -------------------------------------------------------------------


def test_impose_line_on_free_cells_compresses():
    row = make_row(5, (FREE,) * 5)
    out = impose_line(row, (0, 1, 2, 3))
    assert len(out) == 1
    (r,) = out
    assert len(r.groups) == 1 and r.groups[0].kind == "ell"
    assert row_count(r) == 6 * 2  # (lambda + 2) line patterns times the free cell


def test_impose_line_with_a_zero_gives_eps():
    row = make_row(4, (FIXED0, FREE, FREE, FREE))
    out = impose_line(row, (0, 1, 2, 3))
    assert len(out) == 1
    (r,) = out
    assert r.groups[0].kind == "eps"


def test_impose_line_two_point_case():
    row = make_row(3, (FIXED1, FREE, FREE))
    out = impose_line(row, (0, 1))
    assert len(out) == 1
    assert out[0].same_content(row)


def test_impose_line_is_exact_split():
    rng = random.Random(17)
    for _ in range(200):
        width = rng.randint(2, 10)
        row = random_row(rng, width)
        size = rng.randint(2, width)
        line = tuple(sorted(rng.sample(range(width), size)))
        parts = impose_line(row, line)
        assert len(parts) <= len(line) + 2
        seen = Counter()
        for part in parts:
            seen.update(expand(part))
        assert max(seen.values(), default=1) == 1  # pairwise disjoint
        expected = {b for b in expand(row) if line_admits(b, line)}
        assert set(seen) == expected


def test_with_group_rejects_a_cell_that_is_not_free():
    row = make_row(3, (FREE, FIXED0, FREE))
    with pytest.raises(WildcardError, match="cell 1 is not free"):
        with_group(row, "eps", 0b111)


def test_retype_to_g_rejects_a_d_group():
    row = make_row(3, (0, 0, FREE), (GroupSpec("d", 0b011),))
    with pytest.raises(WildcardError, match="a d group cannot become exactly-one"):
        wildcard._retype_to_g(row, 0b011)


def test_retype_to_g_rejects_members_of_no_group():
    row = make_row(3, (0, 0, FREE), (GroupSpec("eps", 0b011),))
    with pytest.raises(WildcardError, match=r"no group has the members \[1, 2\]"):
        wildcard._retype_to_g(row, 0b110)


# -- rows built without checks ---------------------------------------------------------

BUILDERS = ("force", "impose_line", "with_group", "_retype_to_g", "_try_merge")


def check_built_rows(monkeypatch):
    """Wrap the row builders of `wildcard` so that every row they return,
    to a caller or to each other, is checked to be what `make_row` makes
    of it.  Returns the count of rows checked per builder."""
    checked = Counter()
    for name in BUILDERS:
        def wrapper(*args, _fn=getattr(wildcard, name), _name=name, **kw):
            out = _fn(*args, **kw)
            for r in out if isinstance(out, list) else [out]:
                if r is not None:
                    assert make_row(r.width, r.cells, r.groups) == r, (_name, r)
                    checked[_name] += 1
            return out
        monkeypatch.setattr(wildcard, name, wrapper)
    return checked


def test_built_rows_are_well_formed_on_random_rows(monkeypatch):
    checked = check_built_rows(monkeypatch)
    rng = random.Random(23)
    for _ in range(300):
        width = rng.randint(2, 10)
        row = random_row(rng, width)
        k = rng.randint(1, min(3, width))
        picked = rng.sample(range(width), k)
        one = sum(1 << p for p in picked if rng.randint(0, 1))
        wildcard.force(row, one, sum(1 << p for p in picked) & ~one)
        wildcard.impose_line(row, tuple(sorted(rng.sample(range(width), rng.randint(2, width)))))
        free = [p for p, c in enumerate(row.cells) if c == FREE]
        if len(free) >= 2:
            kind = rng.choice(("d", "eps", "g", "ell"))
            members = rng.sample(free, rng.randint(2, len(free)))
            wildcard.with_group(row, kind, sum(1 << p for p in members))
        if free:
            # forcing free cells touches no group: the two rows differ on the block alone
            block = sum(1 << p for p in rng.sample(free, rng.randint(1, len(free))))
            lo = wildcard.force(row, zero=block)
            hi = wildcard.force(row, one=block)
            assert wildcard._try_merge(lo, hi) is not None
    assert all(checked[name] for name in BUILDERS), checked


def test_built_rows_are_well_formed_in_enumerations(monkeypatch):
    checked = check_built_rows(monkeypatch)
    for _, L in standard_corpus():
        assert roundtrip_check(L)
    for g in ("2,2,2,2", "2,4,8", "5,5,5"):
        poset, lines = enumeration_input(parse_group(g))
        for r in seed_order_ideals(poset).rows:
            assert_well_formed(r)
        rows = enumerate_ideals(poset, lines)
        assert all(make_row(r.width, r.cells, r.groups) == r for r in rows.rows)
    # these inputs never retype a group to g; the random rows reach `_retype_to_g`
    assert all(checked[name] for name in BUILDERS if name != "_retype_to_g"), checked


# -- seeding --------------------------------------------------------------------------


def test_seed_rows_for_the_seven_point_poset():
    poset = seven_point_poset()
    seeds = seed_order_ideals(poset)
    assert sorted(row_count(r) for r in seeds.rows) == [9, 36]
    assert (seeds.labels, seeds.provenance) == (("r1", "r2"), ())
    assert total_count(seeds) == 45
    assert rowset_bitstrings(seeds) == brute_closed_ideals(poset, [])


def test_seed_antichain_is_one_free_row():
    poset = GroundPoset(4, ())
    seeds = seed_order_ideals(poset)
    assert len(seeds.rows) == 1
    assert total_count(seeds) == 16


def test_seed_chain():
    poset = GroundPoset(3, ((0, 1), (1, 2)))
    seeds = seed_order_ideals(poset)
    assert total_count(seeds) == 4
    assert rowset_bitstrings(seeds) == brute_closed_ideals(poset, [])


def test_seed_random_posets_exactly():
    rng = random.Random(31)
    for _ in range(40):
        width = rng.randint(1, 9)
        poset = GroundPoset(width, tuple(random_poset_covers(rng, width)))
        seeds = seed_order_ideals(poset)
        assert rowset_bitstrings(seeds) == brute_closed_ideals(poset, [])
        assert total_count(seeds) == len(rowset_bitstrings(seeds))


# -- full enumeration --------------------------------------------------------------------


def random_instances():
    rng = random.Random(77)
    for _ in range(60):
        width = rng.randint(1, 10)
        poset = GroundPoset(width, tuple(random_poset_covers(rng, width)))
        yield poset, random_lines(rng, width)


def fano_atom_instance():
    return GroundPoset(7, ()), [tuple(sorted(p - 1 for p in l)) for l in fano_pls().lines]


def test_seven_point_instance():
    poset = seven_point_poset()
    lines = seven_point_lines()
    rows = enumerate_ideals(poset, lines)
    assert total_count(rows) == 13
    assert sorted(row_count(r) for r in rows.rows) == [1, 2, 2, 2, 3, 3]
    assert rowset_bitstrings(rows) == brute_closed_ideals(poset, lines)
    assert total_count(rows) == len(rowset_bitstrings(rows))


def test_no_lines_equals_seeding():
    poset = seven_point_poset()
    assert rowset_bitstrings(enumerate_ideals(poset, [])) == rowset_bitstrings(
        seed_order_ideals(poset)
    )


def test_line_order_does_not_change_the_set():
    poset = seven_point_poset()
    lines = list(seven_point_lines())
    reference = rowset_bitstrings(enumerate_ideals(poset, lines))
    rng = random.Random(1)
    for _ in range(5):
        rng.shuffle(lines)
        rows = enumerate_ideals(poset, lines)
        assert rowset_bitstrings(rows) == reference
        assert total_count(rows) == 13


def test_fano_atom_instance_counts_sixteen():
    poset, lines = fano_atom_instance()
    rows = enumerate_ideals(poset, lines)
    assert total_count(rows) == 16
    assert rowset_bitstrings(rows) == brute_closed_ideals(poset, lines)


def test_random_instances_match_brute_force():
    for poset, lines in random_instances():
        rows = enumerate_ideals(poset, lines)
        assert rowset_bitstrings(rows) == brute_closed_ideals(poset, lines)
        assert total_count(rows) == len(rowset_bitstrings(rows))


def test_rows_match_the_plain_enumeration_loop():
    """Pruning doomed rows and skipping satisfied lines leave the final
    rows, their groups and their order exactly as the plain loop makes
    them."""
    instances = [(seven_point_poset(), seven_point_lines()), fano_atom_instance()]
    instances += [enumeration_input(parse_group(g)) for g in ("2,2,2,2", "2,4,8", "5,5,5")]
    instances += random_instances()
    for poset, lines in instances:
        rows = enumerate_ideals(poset, lines)
        assert rows.rows == plain_enumerate(poset, lines).rows
        assert total_count(rows) == len(rowset_bitstrings(rows))
        stats = rows.stats
        assert stats.impositions == sum(stats.split_sizes.values())
        assert stats.split_bound_violations == 0


LADDER_GROUPS = ("2,2,2,2", "2,4,8", "5,5,5", "4,4,4", "2,2,2,2,2")


def stores_agree(width, arrivals):
    """Feed the same rows to the indexed and the linear store; both must
    keep the same rows, labels and provenance, after as many merges."""
    indexed, linear = FinalRows(), LinearStore()
    for row, label in arrivals:
        indexed.add(row, label)
        linear.add(row, label)
    got = indexed.rowset(width)
    assert got.rows == tuple(linear.finals)
    assert got.labels == tuple(linear.labels)
    assert got.provenance == tuple(linear.provenance)
    assert indexed.merges == linear.merges
    return linear


def test_indexed_store_matches_the_linear_scan(monkeypatch):
    instances = [enumeration_input(parse_group(g)) for g in LADDER_GROUPS]
    instances += random_instances()
    merges = 0
    for poset, lines in instances:
        arrivals = []

        class Recording(FinalRows):
            def add(self, row, label):
                arrivals.append((row, label))
                super().add(row, label)

        with monkeypatch.context() as m:
            m.setattr(wildcard, "FinalRows", Recording)
            rows = enumerate_ideals(poset, lines)
        linear = stores_agree(poset.width, arrivals)
        assert rows.rows == tuple(linear.finals)
        assert rows.labels == tuple(linear.labels)
        assert rows.provenance == tuple(linear.provenance)
        assert rows.stats.merges == linear.merges
        merges += linear.merges
    assert merges > 0


def test_indexed_store_matches_the_linear_scan_on_shuffled_blocks():
    # every 0/1 filling of up to five free cells of a few random rows, in
    # random order: merges chain, and rows of several shapes interleave
    rng = random.Random(31)
    merges = 0
    for _ in range(80):
        width = rng.randint(1, 8)
        arrivals = []
        for _ in range(rng.randint(1, 3)):
            row = random_row(rng, width)
            free = [p for p, c in enumerate(row.cells) if c == FREE][:5]
            for vals in product((0, 1), repeat=len(free)):
                if rng.random() < 0.8:
                    one = sum(1 << p for p, v in zip(free, vals) if v)
                    zero = sum(1 << p for p, v in zip(free, vals) if not v)
                    arrivals.append(force(row, one, zero))
        rng.shuffle(arrivals)
        merges += stores_agree(width, [(r, f"r{i + 1}") for i, r in enumerate(arrivals)]).merges
    assert merges > 100


# sha256 of json.dumps(rowset_to_json(enumerate_ideals(...)), sort_keys=True)
GOLDEN = {
    "seven-point": "ad14f51bd5706f9a9d74bf8fc4ba5361d1b77ff71d948031b443cc4486bc106f",
    "fano-atoms": "ee00cb16a07cca9a163315a6b95860908745c396ab4a4d36f01f833d5f2ba6c4",
    "2,2,2,2": "71766854010626044a8babff7892b16d09ab7dbf112671587395aa9000c72666",
    "2,4,8": "75729a1e7effc88033883669966510811fbba85d45573e1182d9958a26faca87",
    "5,5,5": "61333b3c8067221f4e0069b397b5e78c3b497cca673a54581a447f50fc33d81c",
    "4,4,4": "9b46d016d7230be4171969723c4fd57f8809cab174030e3c58c606f09b301eed",
    "2,2,2,2,2": "d7e94bcad72652b9fb50c5ff34f411a0e9ac59e03cfc0dbca5b1e7a4ac0af39e",
}


@pytest.mark.parametrize("name", GOLDEN)
def test_enumeration_output_is_pinned(name):
    if name == "seven-point":
        poset, lines = seven_point_poset(), seven_point_lines()
    elif name == "fano-atoms":
        poset, lines = fano_atom_instance()
    else:
        poset, lines = enumeration_input(parse_group(name))
    text = json.dumps(rowset_to_json(enumerate_ideals(poset, lines)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


def test_noop_impositions_count_the_rows_left_unchanged(monkeypatch):
    instances = [(seven_point_poset(), seven_point_lines()), fano_atom_instance()]
    instances += [enumeration_input(parse_group(g)) for g in ("2,2,2,2", "2,4,8")]
    instances += random_instances()
    total = 0
    for poset, lines in instances:
        unchanged = 0

        def counted(row, positions):
            nonlocal unchanged
            out = impose_line(row, positions)
            unchanged += len(out) == 1 and out[0].same_content(row)
            return out

        with monkeypatch.context() as m:
            m.setattr(wildcard, "impose_line", counted)
            stats = enumerate_ideals(poset, lines).stats
        assert stats.noop_impositions == unchanged <= stats.split_sizes.get(1, 0)
        total += unchanged
    assert total > 0


def test_enumeration_work_bound_on_z3_4(monkeypatch):
    calls = Counter()

    def counted(row, positions):
        calls["impose_line"] += 1
        return impose_line(row, positions)

    monkeypatch.setattr(wildcard, "impose_line", counted)  # as the benchmark tracer does
    rows = enumerate_ideals(*enumeration_input(parse_group("3,3,3,3")))
    assert total_count(rows) == 212
    assert calls["impose_line"] == rows.stats.impositions < 5000
    assert rows.stats.pruned_rows > 0
    assert rows.stats.skipped > 0
    assert rows.stats.seeds == 1
    assert rows.stats.split_bound_violations == 0


def test_line_standing_matches_the_scan():
    """The masks of line standing, the per-line fixed-cell counts among
    them, prune and skip exactly the rows a scan of every line from k on
    does: rows, labels, provenance and every stats field agree, on random
    inputs and on the five ladder groups (Z4^3 with its 128 seeds).  Lines
    of 2 to 7 points give count fields of 3 and 4 bits."""
    rng = random.Random(2503)
    instances = []
    for _ in range(220):
        width = rng.randint(3, 11)
        poset = GroundPoset(width, tuple(random_poset_covers(rng, width)))
        longest = rng.randint(2, min(7, width))
        lines = [
            tuple(sorted(rng.sample(range(width), rng.randint(2, longest))))
            for _ in range(rng.randint(1, 9))
        ]
        instances.append((poset, lines))
    instances += [enumeration_input(parse_group(g)) for g in LADDER_GROUPS]
    widths, pruned, skipped = Counter(), 0, 0
    for poset, lines in instances:
        rows, ref = enumerate_ideals(poset, lines), scanning_enumerate(poset, lines)
        assert (rows.rows, rows.labels, rows.provenance) == (ref.rows, ref.labels, ref.provenance)
        assert rows.stats == ref.stats
        widths[max(map(len, lines)).bit_length()] += 1
        pruned += rows.stats.pruned_rows
        skipped += rows.stats.skipped
    assert widths[2] and widths[3] and pruned and skipped, (widths, pruned, skipped)


def test_a_doomed_row_is_pruned_before_its_line():
    # 1 < 2 and a free point 0.  Imposing (0, 2) splits off the part with
    # 2 = 1 and 0 = 0, and 2 = 1 forces 1 = 1; line (0, 1, 2) then holds two
    # 1s and a 0, so that part is dropped without imposing it
    poset = GroundPoset(3, ((1, 2),))
    lines = [(0, 2), (0, 1, 2)]
    rows = enumerate_ideals(poset, lines)
    assert rows.rows == plain_enumerate(poset, lines).rows
    assert rowset_bitstrings(rows) == brute_closed_ideals(poset, lines)
    assert rows.stats.split_sizes == {1: 1, 4: 1}
    assert rows.stats.pruned_rows == 1
    assert rows.stats.dead_rows == 0


# -- validation ---------------------------------------------------------------------------


def test_overlap_detection():
    # rows that overlap count their common strings twice
    rowset = RowSet(width=2, rows=(make_row(2, (FREE,) * 2),) * 2)
    assert total_count(rowset) == 8
    assert len(rowset_bitstrings(rowset)) == 4


# -- ground poset -----------------------------------------------------------------------------


def test_ground_poset_rejects_cycles():
    with pytest.raises(ValueError):
        GroundPoset(2, ((0, 1), (1, 0)))


def test_ground_poset_rejects_bad_covers():
    with pytest.raises(ValueError):
        GroundPoset(2, ((0, 5),))


def test_ground_poset_rejects_a_wrong_label_count():
    with pytest.raises(ValueError):
        GroundPoset(2, (), ("a",))


def test_ground_poset_counts_a_repeated_cover_once_and_rejects_an_implied_one():
    # the chain a < b < c once seeded other rows when a cover came twice
    chain = GroundPoset(3, ((0, 1), (1, 2)))
    repeated = GroundPoset(3, ((1, 2), (0, 1), (0, 1)))
    assert repeated.covers == chain.covers
    assert repeated.down == chain.down == (0b1, 0b11, 0b111)
    want = rowset_to_text(enumerate_ideals(chain, []))
    assert rowset_to_text(enumerate_ideals(repeated, [])) == want
    with pytest.raises(ValueError, match=r"^cover \(0,2\) is implied$"):
        GroundPoset(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError, match=r"^self-loop at 1$"):
        GroundPoset(3, ((1, 1),))
    # a labelled poset names the points by their labels
    with pytest.raises(ValueError, match=r"^cover \(x,z\) is implied$"):
        GroundPoset(3, ((0, 1), (1, 2), (0, 2)), "xyz")
    with pytest.raises(ValueError, match=r"^self-loop at y$"):
        GroundPoset(3, ((1, 1),), "xyz")


def test_down_closure_predicate():
    poset = GroundPoset(3, ((0, 1), (1, 2)))
    assert is_down_closed(poset, (1, 1, 0))
    assert not is_down_closed(poset, (0, 1, 0))


# -- serialization ------------------------------------------------------------------------------


def test_poset_json_roundtrip_and_line_labels():
    poset = seven_point_poset()
    back = poset_from_json(json.loads(json.dumps(poset_to_json(poset))))
    assert back.width == poset.width
    assert back.covers == poset.covers
    assert back.labels == poset.labels
    labeled = [[poset.labels[p] for p in line] for line in seven_point_lines()]
    assert lines_from_json({"lines": labeled}, poset) == [
        tuple(sorted(l)) for l in seven_point_lines()
    ]


def test_row_text_rendering():
    poset = seven_point_poset()
    rows = enumerate_ideals(poset, seven_point_lines())
    text = rowset_to_text(rows)
    assert "total 13 in 6 rows" in text
    assert row_to_text(make_row(3, (FREE,) * 3), "r1") == "r1:  2  2  2  ; count=8"


@pytest.mark.parametrize(
    "width, cells, groups",
    [
        (2, (0, 0), (GroupSpec("xor", 0b11),)),
        (2, (0, 1), (GroupSpec("eps", 0b11),)),
        (2, (FREE,), ()),
        (2, (0, 0), (GroupSpec("imp", 0b11, 0b11),)),
        (3, (0, 0, 0), (GroupSpec("d", 0b011),)),
        (2, (0, 0), (GroupSpec("d", 0b100001),)),
        (2, (0, 0), (GroupSpec("d", -1),)),
        (2, (0.7, 0.2), (GroupSpec("d", 0b11),)),
        (2, (0, 0), (GroupSpec("d", "3"),)),
        (2, (0, 0), (GroupSpec("d", 3.0),)),
    ],
    ids=[
        "unknown-kind", "missing-group", "short-row", "imp-overlap", "stray-cell",
        "member-out-of-range", "negative-member", "float-cell", "string-member",
        "float-member",
    ],
)
def test_make_row_rejects_malformed_rows(width, cells, groups):
    with pytest.raises(WildcardError):
        make_row(width, cells, groups)


def test_rows_round_trip_through_json_and_the_cell_form():
    rng = random.Random(41)
    rows = [random_row(rng, rng.randint(1, 12)) for _ in range(300)]
    for g in ("2,2,2,2", "2,4,8"):
        rows += enumerate_ideals(*enumeration_input(parse_group(g))).rows
    assert any(r.groups for r in rows)
    for r in rows:
        assert json.loads(json.dumps(row_to_json(r)))["cells"] == list(r.cells)
        assert make_row(r.width, r.cells, r.groups) == r
