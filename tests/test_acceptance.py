"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each criterion is a single test function, so a verbose pytest run shows
exactly one pass/fail line per criterion.  Every test prints a summary
line with the measured numbers; budgets are asserted where a criterion
carries one.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest

from modlat.algebra import (
    distributive_ji,
    distributive_lattice,
    parse_group,
    parse_set_system,
    subgroup_lattice,
)
from modlat.analysis import (
    cyclic_localization_witness,
    triangle_configurations,
    verdict_suite,
)
from modlat.bol import canonical_bol, line_intervals, localize
from modlat.cli import main
from modlat.corpus import (
    CORPUS_GROUPS,
    seven_point_lines,
    seven_point_poset,
    standard_corpus,
)
from modlat.lattice import Lattice, bits, is_isomorphic
from modlat.pls import components, find_cycle, mask_components, rstar
from modlat.rebuild import (
    Implication,
    closed_ideals_lattice,
    implication_base_size,
    ji_ground_poset,
    roundtrip_check,
)
from modlat.wildcard import (
    GroundPoset,
    enumerate_ideals,
    expand,
    impose_line,
    row_count,
    seed_order_ideals,
    total_count,
)
import oracles
from oracles import (
    acyclifier,
    brute_closed_ideals,
    brute_subgroups,
    enumeration_input,
    family_join_irreducibles,
    fano_pls,
    inclusion_lattice,
    line_admits,
    mask_set,
    min_splittings,
    random_lines,
    random_pls,
    random_poset_covers,
    random_row,
    rowset_bitstrings,
    split_point,
    union_intersection_closure,
)


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_seed_and_constrained_counts():
    start = time.perf_counter()
    poset = seven_point_poset()
    seeds = seed_order_ideals(poset)
    rows = enumerate_ideals(poset, seven_point_lines())
    sizes = Counter(row_count(r) for r in rows.rows)
    elapsed = time.perf_counter() - start
    ok = (
        total_count(seeds) == 45
        and total_count(rows) == 13
        and sizes == Counter({3: 2, 2: 3, 1: 1})
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"seed total {total_count(seeds)}, constrained total {total_count(rows)}, "
        f"row sizes {sorted(sizes.elements())} ({elapsed:.3f}s)",
    )


def test_criterion_02_reconstruction():
    start = time.perf_counter()
    poset = seven_point_poset()
    members = [
        frozenset(k for k, bit in enumerate(bits) if bit)
        for bits in rowset_bitstrings(enumerate_ideals(poset, seven_point_lines()))
    ]
    L = closed_ideals_lattice([sum(1 << k for k in m) for m in members], range(poset.width))
    jis = tuple(bits(L.ji_mask))
    downs = set(poset.down)
    ji_poset, _ = ji_ground_poset(L)
    oracle_members, oracle_covers = inclusion_lattice(set(members))
    oracle = Lattice(len(oracle_members), oracle_covers)
    elapsed = time.perf_counter() - start
    ok = (
        L.n == 13
        and len(jis) == 7
        and {L.members[e] for e in jis} == downs
        and set(ji_poset.covers) == set(poset.covers)
        and len(line_intervals(L)) == 3
        and roundtrip_check(L)
        and is_isomorphic(L, oracle)
        and elapsed < 1.0
    )
    _report(
        2,
        ok,
        f"{L.n} elements, {len(jis)} join-irreducibles, "
        f"{len(line_intervals(L))} line tops, roundtrip and oracle isomorphism "
        f"({elapsed:.3f}s)",
    )


def test_criterion_03_enumeration_matches_brute_force():
    rng = random.Random(2024)
    instances = 0
    for _ in range(120):
        width = rng.randint(1, 14)
        poset = GroundPoset(width, tuple(random_poset_covers(rng, width)))
        lines = random_lines(rng, width)
        rows = enumerate_ideals(poset, lines)
        got = set(rowset_bitstrings(rows))
        want = brute_closed_ideals(poset, lines)
        assert got == want, f"width {width}, lines {lines}"
        instances += 1
    _report(3, instances >= 100, f"{instances} random instances match the filter")


def test_criterion_04_subgroup_pipeline():
    start = time.perf_counter()
    expected = {"2,2,2": 16, "4,4": 15, "2,4": 8, "8": 4, "3,3": 6, "2,2,4": 27}
    counts = {}
    for spec in CORPUS_GROUPS:
        G = parse_group(spec)
        poset, lines = enumeration_input(G)
        enum_count = total_count(enumerate_ideals(poset, lines))
        lattice_count = subgroup_lattice(G).n
        oracle_count = len(brute_subgroups(G.factors))
        assert enum_count == lattice_count == oracle_count == expected[spec], spec
        counts[spec] = enum_count
    elapsed = time.perf_counter() - start
    ok = counts == expected and elapsed < 10.0
    _report(4, ok, f"subgroup counts {counts} ({elapsed:.2f}s)")


def test_criterion_05_coatom_localizations():
    L = subgroup_lattice(parse_group("2,2,2"))
    ivs, masks = canonical_bol(L)
    checked = 0
    for a in L.lower_covers(L.top):
        pts, lines = localize(L, ivs, masks, a, L.top)
        assert len(lines) == 6, f"coatom {a}: {len(lines)} lines"
        assert pts.bit_count() == 4, f"coatom {a}: {pts.bit_count()} points"
        assert len(mask_components(lines, pts)[0]) == 1, f"coatom {a} disconnected"
        checked += 1
    _report(5, checked == 7, f"{checked} coatoms, each 6 lines / 4 points / connected")


def test_criterion_06_theorem_suite_over_corpus(capsys):
    start = time.perf_counter()
    failures = []
    lattices = 0
    for name, L in standard_corpus():
        lattices += 1
        failures += [f"{name}: {v}" for v in verdict_suite(L) if not v.passed]
    exit_code = main(["verify"])
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    ok = not failures and exit_code == 0 and elapsed < 60.0
    _report(
        6,
        ok,
        f"{lattices} lattices clean, verify exit {exit_code} ({elapsed:.2f}s)"
        + (f"; failures {failures}" if failures else ""),
    )


def test_criterion_07_triangle_machinery():
    L = subgroup_lattice(parse_group("2,2,2"))
    ivs, masks = canonical_bol(L)
    lines, tops = [frozenset(bits(m)) for m in masks], [iv.top for iv in ivs]
    configs = list(triangle_configurations(masks))
    witnesses = set()
    for cfg in configs:
        a, b = cyclic_localization_witness(L, ivs, masks, cfg)
        assert find_cycle(oracles.localize(L, lines, tops, a, b)) is not None
        witnesses.add((a, b))
    ok = len(configs) > 0 and len(witnesses) > 0
    _report(
        7,
        ok,
        f"{len(configs)} configurations, {len(witnesses)} distinct cyclic coverings",
    )


def test_criterion_08_splitting_number():
    start = time.perf_counter()
    fano = fano_pls()
    fano_r = rstar(fano)
    fano_min = min_splittings(fano, limit=fano_r)
    rng = random.Random(77)
    zero_iff_acyclic = 0
    preserved = 0
    for _ in range(200):
        P = random_pls(rng, max_lines=8)
        acyclic = find_cycle(P) is None
        assert (rstar(P) == 0) == acyclic
        zero_iff_acyclic += 1
        # the union-find acyclifier of the oracles splits exactly r* times
        steps = acyclifier(P)
        assert len(steps) == rstar(P)
        Q = P
        for line_index, point in steps:
            Q = split_point(Q, line_index, point)
        assert find_cycle(Q) is None and rstar(Q) == 0
        assert len(components(Q)) == len(components(P))
        preserved += 1
    elapsed = time.perf_counter() - start
    ok = fano_r == 8 and fano_min == 8 and zero_iff_acyclic == 200 and elapsed < 30.0
    _report(
        8,
        ok,
        f"rstar(fano)={fano_r} == exhaustive {fano_min}; "
        f"{zero_iff_acyclic} random structures, {preserved} acyclifier runs "
        f"({elapsed:.2f}s)",
    )


def test_criterion_09_line_split_bound():
    rng = random.Random(4096)
    checked = 0
    while checked < 500:
        width = rng.randint(2, 10)
        row = random_row(rng, width)
        size = rng.randint(2, width)
        line = tuple(sorted(rng.sample(range(width), size)))
        pieces = impose_line(row, line)
        lam = len(line)
        assert len(pieces) <= lam + 2, f"{len(pieces)} pieces for lambda={lam}"
        seen = Counter()
        for piece in pieces:
            seen.update(expand(piece))
        assert not seen or seen.most_common(1)[0][1] == 1, "pieces overlap"
        want = {bits for bits in expand(row) if line_admits(bits, line)}
        assert set(seen) == want
        checked += 1
    _report(9, checked == 500, f"{checked} row/line pairs within the lambda+2 bound")


NINE_SETS = "\n".join(
    [
        "1 1 1 1 1 1 0 0 1",
        "1 1 1 1 1 1 0 1 0",
        "1 1 0 1 1 1 0 0 0",
        "0 1 1 1 0 1 1 0 0",
        "1 1 0 0 1 0 0 0 0",
        "0 1 0 1 0 1 0 0 0",
        "1 1 0 1 1 1 1 1 0",
        "0 0 0 1 0 1 1 0 1",
    ]
)

SIGMA_OPT = tuple(
    Implication(frozenset(premise), frozenset(conclusion))
    for premise, conclusion in [
        ({4}, {2}),
        ({6}, {3}),
        ({7}, {3}),
        ({10}, {7}),
        ({12}, {2, 6, 7}),
        ({14}, {10}),
        ({15}, {10}),
        ({16}, {10}),
        ({4, 10}, {12}),
        ({4, 12}, {10}),
        ({10, 12}, {4}),
        ({2, 14}, {15}),
        ({2, 15}, {14}),
        ({2, 16}, {14}),
        ({14, 15}, {16}),
        ({14, 16}, {15}),
        ({15, 16}, {2}),
    ]
)


def test_criterion_10_generated_distributive_lattice():
    system = parse_set_system(NINE_SETS)
    sets = [mask_set(m, system.universe) for m in system.sets]
    closure = union_intersection_closure(sets) | {frozenset()}
    jis = {mask_set(m, system.universe) for m in distributive_ji(system)}
    L = distributive_lattice(system)
    canon, covers = inclusion_lattice(closure)
    oracle = Lattice(len(canon), covers)
    ok = jis == family_join_irreducibles(closure) and is_isomorphic(L, oracle)
    _report(
        10,
        ok,
        f"{len(jis)} join-irreducibles match the closure oracle, "
        f"{L.n}-element lattice isomorphic; the size-47 implication clause is "
        "tracked separately as an expected failure (fixture totals 45)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the target total is 47 but this fixture sums to 45; "
    "see the decision notes",
)
def test_criterion_10_implication_size_target():
    assert implication_base_size(SIGMA_OPT) == 47


def test_criterion_10_implication_size_actual():
    assert implication_base_size(SIGMA_OPT) == 45
