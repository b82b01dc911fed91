from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from modlat import wildcard
from modlat.algebra import enumeration_input, parse_group
from modlat.corpus import fano_pls, seven_point_lines, seven_point_poset
from modlat.wildcard import (
    FIXED0,
    FIXED1,
    FREE,
    GroundPoset,
    GroupSpec,
    OverlapFound,
    WildcardError,
    all_free_row,
    contains,
    enumerate_ideals,
    expand,
    force,
    impose_line,
    lines_from_json,
    make_row,
    poset_from_json,
    poset_to_json,
    row_count,
    row_to_text,
    rowset_bitstrings,
    rowset_from_json,
    rowset_to_json,
    rowset_to_text,
    seed_order_ideals,
    total_count,
    validate_rowset,
    with_group,
)

from oracles import (
    brute_closed_ideals,
    line_admits,
    plain_enumerate,
    random_lines,
    random_poset_covers,
    random_row,
)


def expansions(rows):
    out = set()
    for r in rows:
        out.update(expand(r))
    return out


# -- group weights ---------------------------------------------------------


def test_group_counts():
    assert GroupSpec("imp", (0, 1), (0,), (1,)).count() == 3
    assert GroupSpec("d", (0, 1, 2)).count() == 2
    assert GroupSpec("eps", (0, 1, 2)).count() == 4
    assert GroupSpec("g", (0, 1, 2)).count() == 3
    assert GroupSpec("ell", (0, 1, 2)).count() == 5


def test_seed_row_weight_example():
    # two imp pairs and two free cells: 3 * 3 * 2 * 2 = 36
    row = make_row(
        6,
        (0, FREE, 1, 0, 1, FREE),
        (
            GroupSpec("imp", (0, 3), (3,), (0,)),
            GroupSpec("imp", (2, 4), (4,), (2,)),
        ),
    )
    assert row_count(row) == 36
    assert len(expand(row)) == 36


def test_all_fixed_row_counts_one():
    row = make_row(3, (FIXED0, FIXED1, FIXED0))
    assert row_count(row) == 1
    assert expand(row) == [(0, 1, 0)]


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
        (GroupSpec("eps", (4, 5)),),
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
        (GroupSpec("d", (3, 6)),),
    )
    assert contains(row, (1, 1, 1, 1, 1, 1, 1))
    assert contains(row, (1, 1, 1, 0, 1, 1, 0))
    assert not contains(row, (1, 1, 1, 1, 1, 1, 0))


# -- force ----------------------------------------------------------------------


def test_force_is_exact_restriction():
    rng = random.Random(9)
    for _ in range(150):
        width = rng.randint(2, 9)
        row = random_row(rng, width)
        k = rng.randint(1, min(3, width))
        positions = rng.sample(range(width), k)
        assignment = {p: rng.randint(0, 1) for p in positions}
        out = force(row, assignment)
        expected = {
            b for b in expand(row) if all(b[p] == v for p, v in assignment.items())
        }
        if out is None:
            assert expected == set()
        else:
            assert set(expand(out)) == expected


def test_force_contradiction():
    row = make_row(2, (FIXED0, FREE))
    assert force(row, {0: 1}) is None


# -- impose_line -------------------------------------------------------------------


def test_impose_line_on_free_cells_compresses():
    row = all_free_row(5)
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


# -- seeding --------------------------------------------------------------------------


def test_seed_rows_for_the_seven_point_poset():
    poset = seven_point_poset()
    seeds = seed_order_ideals(poset)
    assert sorted(row_count(r) for r in seeds.rows) == [9, 36]
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
        validate_rowset(seeds)


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
    validate_rowset(rows)


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
        validate_rowset(rows)


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
        validate_rowset(rows)
        stats = rows.stats
        assert stats.impositions == sum(stats.split_sizes.values())
        assert stats.split_bound_violations == 0


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
    rowset = type(seed_order_ideals(GroundPoset(2, ())))(
        width=2, rows=(all_free_row(2), all_free_row(2))
    )
    with pytest.raises(OverlapFound) as err:
        validate_rowset(rowset)
    assert err.value.witness is not None


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


def test_down_closure_predicate():
    poset = GroundPoset(3, ((0, 1), (1, 2)))
    assert poset.is_down_closed((1, 1, 0))
    assert not poset.is_down_closed((0, 1, 0))


# -- serialization ------------------------------------------------------------------------------


def test_rowset_json_roundtrip():
    poset = seven_point_poset()
    rows = enumerate_ideals(poset, seven_point_lines())
    d = json.loads(json.dumps(rowset_to_json(rows)))
    back = rowset_from_json(d)
    assert rowset_bitstrings(back) == rowset_bitstrings(rows)
    assert total_count(back) == 13


def test_poset_json_roundtrip_and_line_labels():
    poset = seven_point_poset()
    back = poset_from_json(json.loads(json.dumps(poset_to_json(poset))))
    assert back.width == poset.width
    assert back.covers == poset.covers
    assert back.labels == poset.labels
    labeled = [[poset.label(p) for p in line] for line in seven_point_lines()]
    assert lines_from_json({"lines": labeled}, poset) == [
        tuple(sorted(l)) for l in seven_point_lines()
    ]


def test_row_text_rendering():
    poset = seven_point_poset()
    rows = enumerate_ideals(poset, seven_point_lines())
    text = rowset_to_text(rows)
    assert "total 13 in 6 rows" in text
    assert row_to_text(all_free_row(3), "r1") == "r1:  2  2  2  ; count=8"


@pytest.mark.parametrize(
    "row",
    [
        {"cells": [0, 0], "groups": [{"kind": "xor", "members": [0, 1]}]},
        {"cells": [0, 1], "groups": [{"kind": "eps", "members": [0, 1]}]},
        {"cells": ["2"], "groups": []},
        {
            "cells": [0, 0],
            "groups": [{"kind": "imp", "members": [0, 1], "premise": [0, 1], "conclusion": [1]}],
        },
        {"cells": [0, 0], "groups": [{"kind": "eps", "members": [0, 0]}]},
        {"cells": [0, 0, 0], "groups": [{"kind": "d", "members": [0, 1]}]},
    ],
    ids=["unknown-kind", "missing-group", "short-row", "imp-overlap", "repeated-member", "stray-cell"],
)
def test_rowset_from_json_rejects_malformed_rows(row):
    # the short row is one cell narrower than the row set
    with pytest.raises(WildcardError):
        rowset_from_json({"width": max(2, len(row["cells"])), "rows": [row]})


def test_rowset_from_json_ignores_the_old_pending_key():
    rows = enumerate_ideals(seven_point_poset(), seven_point_lines())
    d = rowset_to_json(rows)
    for r in d["rows"]:
        r["pending"] = []
    assert rowset_from_json(d).rows == rows.rows
