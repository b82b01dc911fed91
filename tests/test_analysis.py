from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys

import pytest

import modlat.analysis
import modlat.bol
import modlat.cli
from modlat.algebra import parse_group, subgroup_lattice
from modlat.analysis import (
    AnalysisContext,
    ClaimViolated,
    _is_clean,
    _tight_masks,
    _top_cycles,
    _triangle_count,
    _triangles,
    check_clean_cycles,
    check_components_match_projectivity,
    check_interval_bounds,
    check_join_witness,
    check_line_feet,
    check_localizations_connected,
    check_perspective_intervals,
    check_point_count,
    check_triangle_tops,
    component_count,
    cyclic_localization_witness,
    is_locally_acyclic,
    params,
    triangle_configuration_count,
    triangle_configurations,
    verdict_suite,
)
from modlat.bol import all_bols, base_count, canonical_bol, line_intervals
from modlat.corpus import (
    boolean_lattice,
    chain,
    m_n,
    random_distributive,
    seven_point_lattice,
    standard_corpus,
)
from modlat.lattice import (
    Lattice,
    NotModular,
    bits,
    lattice_to_json,
    projectivity_classes,
    transpose_masks,
)
from modlat.pls import Pls, components, find_cycle, mask_components, rstar

import oracles
from oracles import (
    blocked_by_transposition,
    candidate_lines,
    choice_count,
    every_choice_has_a_cycle,
    every_choice_is_connected,
    join_witness_failure,
    line_choices,
    localization_choices,
    random_intersection_closed,
    some_choice_has_a_cycle,
    some_choice_is_a_triangle,
    union_find_components,
)


def z2_cubed():
    return subgroup_lattice(parse_group("2,2,2"))


def z4_squared():
    return subgroup_lattice(parse_group("4,4"))


def _verdict(verdicts, name):
    hits = [v for v in verdicts if v.name == name]
    assert len(hits) == 1, f"expected one verdict named {name!r}"
    return hits[0]


# -- parameter profiles ----------------------------------------------------


PROFILES = {
    # name: (j, delta, s, i, o, mu, rstar, acyclic, locally_acyclic)
    "boolean3": (3, 3, 3, 0, 1, 0, 0, True, True),
    "m3": (3, 2, 1, 1, 2, 3, 0, True, True),
    "m4": (4, 2, 1, 1, 3, 4, 0, True, True),
    "chain5": (4, 4, 4, 0, 1, 0, 0, True, True),
    "seven-point": (7, 4, 1, 3, 2, 9, 0, True, True),
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_parameter_profiles(name):
    builders = {
        "boolean3": lambda: boolean_lattice(3),
        "m3": lambda: m_n(3),
        "m4": lambda: m_n(4),
        "chain5": lambda: chain(5),
        "seven-point": seven_point_lattice,
    }
    rep = params(builders[name]())
    assert (
        rep.j,
        rep.delta,
        rep.s,
        rep.i,
        rep.o,
        rep.mu,
        rep.rstar_canonical,
        rep.acyclic,
        rep.locally_acyclic,
    ) == PROFILES[name]
    assert rep.ok


def test_profile_of_z2_cubed():
    rep = params(z2_cubed())
    assert (rep.j, rep.delta, rep.s, rep.i, rep.o, rep.mu) == (7, 3, 1, 7, 2, 21)
    assert rep.rstar_canonical == 8
    assert not rep.acyclic
    assert rep.locally_acyclic is False
    assert rep.ok


def test_profile_of_z4_squared():
    rep = params(z4_squared())
    assert (rep.j, rep.delta, rep.s, rep.i, rep.o, rep.mu) == (9, 4, 1, 5, 2, 15)
    assert rep.rstar_canonical == 2
    assert not rep.acyclic
    assert rep.locally_acyclic is True
    assert rep.ok


@pytest.mark.parametrize("seed", range(8))
def test_distributive_profiles(seed):
    rep = params(random_distributive(seed))
    assert rep.i == 0 and rep.mu == 0 and rep.o == 1
    assert rep.s == rep.delta
    assert rep.acyclic and rep.rstar_canonical == 0
    assert rep.ok


def test_params_requires_modularity():
    pentagon = Lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    with pytest.raises(NotModular):
        params(pentagon)


def _relabelled(L, rng):
    """L with its element ids permuted at random; each element keeps its
    name."""
    perm = list(range(L.n))
    rng.shuffle(perm)
    names = [None] * L.n
    for a, b in enumerate(perm):
        names[b] = L.name(a)
    return Lattice(L.n, sorted((perm[a], perm[b]) for a, b in L.covers), names)


def test_relabelling_the_elements_changes_no_profile_or_verdict():
    # a metamorphic relation: the profile and the verdicts read the order,
    # not the ids that the elements happen to carry
    rng = random.Random(34)
    lattices = [L for _, L in standard_corpus()]
    lattices += [subgroup_lattice(parse_group(g)) for g in ["4,8", "2,4,8", "3,3,3", "8,8"]]
    assert len(lattices) == 37
    for L in lattices:
        M = _relabelled(L, rng)
        before, after = params(L), params(M)
        assert before[:9] == after[:9], L
        assert [(v.name, v.passed) for v in before.verdicts] == [
            (v.name, v.passed) for v in after.verdicts
        ], L
        assert [(v.name, v.passed) for v in verdict_suite(L)] == [
            (v.name, v.passed) for v in verdict_suite(M)
        ], L


COVERING_GROUPS = ["4,8", "2,4,8", "8,8", "3,3,3", "2,2,4"]


def _dual(L):
    """L with every cover reversed: its order turned upside down."""
    return Lattice(L.n, [(b, a) for a, b in L.covers], L.names)


def test_reversing_the_covers_keeps_modularity_and_the_proved_invariants():
    # the proved half of the dual relation: a lattice and its dual have the
    # same height and the same congruences, and a finite modular lattice
    # has as many join- as meet-irreducibles (Dilworth 1954), so delta, s
    # and j hold; modularity is self-dual, so the random lattices of
    # test_semimodularity_test_matches_the_modular_law agree with their duals
    lattices = [L for _, L in standard_corpus()]
    lattices += [subgroup_lattice(parse_group(g)) for g in COVERING_GROUPS]
    for L in lattices:
        D = _dual(L)
        assert D.modular, L
        before, after = params(L), params(D)
        assert (before.j, before.delta, before.s) == (after.j, after.delta, after.s), L
    rng = random.Random(11)
    verdicts = []
    for _ in range(2000):
        L = Lattice(*random_intersection_closed(rng, rng.randint(3, 5)))
        verdicts.append(L.modular)
        assert _dual(L).modular == verdicts[-1], L.covers
    assert 500 < verdicts.count(False) < 1500


def test_covering_masks_and_the_cycle_shortcut_match_brute_force():
    # each covering's qual is the mask of the intervals whose top lies
    # under v but not under u; cyclic_at answers a covering with fewer
    # than three qualifying intervals without a search, and must agree
    # with a search of that covering's whole witness graph
    lattices = [L for _, L in standard_corpus()]
    lattices += [subgroup_lattice(parse_group(g)) for g in COVERING_GROUPS]
    outcomes = set()
    for L in lattices:
        ctx = AnalysisContext(L)
        for k, (u, v, pts, qual) in enumerate(ctx.coverings):
            assert qual == sum(
                1 << i
                for i, iv in enumerate(ctx.intervals)
                if L.leq(iv.top, v) and not L.leq(iv.top, u)
            ), (L, u, v)
            graph = [[w & pts for w in ctx.witnesses[i]] for i in bits(qual)]
            cyclic = modlat.analysis._has_coloured_cycle(graph)
            assert ctx.cyclic_at(k) == cyclic, (L, u, v)
            outcomes.add((qual.bit_count() < 3, cyclic))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_component_count_values():
    for L, want in [(m_n(3), 1), (boolean_lattice(3), 3), (seven_point_lattice(), 1)]:
        ctx = AnalysisContext(L)
        assert component_count(ctx) == want


# -- individual checks -----------------------------------------------------


def test_point_count_verdict_names_and_details():
    verdicts = check_point_count(AnalysisContext(m_n(3)))
    assert [v.name for v in verdicts] == [
        "point count bound",
        "point count equality iff acyclic",
        "acyclicity agrees across bases",
    ]
    assert all(v.passed for v in verdicts)
    assert "j=3 <= mu-i+s=3" in verdicts[0].detail


def test_point_count_detects_strictness_on_cyclic_lattices():
    verdicts = check_point_count(AnalysisContext(z2_cubed()))
    eq = _verdict(verdicts, "point count equality iff acyclic")
    assert eq.passed
    assert "j=7" in eq.detail and "mu-i+s=15" in eq.detail and "acyclic=False" in eq.detail


def test_interval_bounds_on_z2_cubed():
    ctx = AnalysisContext(z2_cubed())
    verdicts = check_interval_bounds(ctx)
    assert [v.name for v in verdicts] == [
        "interval count lower bound",
        "point count lower bound",
        "split-adjusted point bound",
        "split count range",
    ]
    assert all(v.passed for v in verdicts)
    assert _verdict(verdicts, "split-adjusted point bound").detail == (
        "j=7 >= 2i+s-r*=7 >= 2delta-s=5"
    )
    assert _verdict(verdicts, "split count range").detail == "8 <= r*=8 <= 10"


def test_interval_bounds_on_seven_point():
    ctx = AnalysisContext(seven_point_lattice())
    verdicts = check_interval_bounds(ctx)
    names = {v.name for v in verdicts}
    assert {
        "locally acyclic interval identity",
        "locally acyclic point identity",
        "acyclic interval identity",
        "acyclic point identity",
    } <= names
    assert all(v.passed for v in verdicts)
    assert _verdict(verdicts, "acyclic point identity").detail == "j=7 = 2delta-s=7"


def test_interval_bounds_skip_tight_clauses_for_wide_lines():
    ctx = AnalysisContext(m_n(4))
    verdicts = check_interval_bounds(ctx)
    names = {v.name for v in verdicts}
    assert "split-adjusted point bound" not in names
    assert "acyclic point identity" not in names
    assert "acyclic interval identity" in names
    assert all(v.passed for v in verdicts)


# -- local acyclicity --------------------------------------------------------


def test_is_locally_acyclic():
    assert is_locally_acyclic(boolean_lattice(3))
    assert is_locally_acyclic(chain(4))
    assert not is_locally_acyclic(z2_cubed())
    assert is_locally_acyclic(z4_squared())
    assert is_locally_acyclic(seven_point_lattice())


EXACT_GROUPS = ["2,8", "4,4", "4,8", "9,9", "3,3,9", "2,2,2,2"]
CHOICES_CAP = 200_000


def _exact_lattices():
    return [L for _, L in standard_corpus()] + [
        subgroup_lattice(parse_group(g)) for g in EXACT_GROUPS
    ]


def test_cyclic_localizations_match_the_enumeration():
    # every covering of these lattices has at most CHOICES_CAP choices of
    # lines on its qualifying intervals, so each one is enumerated; every
    # localization of a modular lattice is connected, so only doctored
    # tables make `connected_at` answer no
    outcomes = set()
    for L in _exact_lattices():
        ctx = AnalysisContext(L)
        cyclic = []
        for k, (u, v, pts, _) in enumerate(ctx.coverings):
            choices = localization_choices(L, ctx.intervals, u, v)
            assert choice_count(choices) <= CHOICES_CAP
            cyclic.append(some_choice_has_a_cycle(choices))
            assert ctx.cyclic_at(k) == cyclic[-1], (L, u, v)
            assert ctx.connected_at(k) is every_choice_is_connected(choices, bits(pts)), (L, u, v)
        assert ctx.locally_acyclic is not any(cyclic), L
        outcomes.update(cyclic)
    assert outcomes == {False, True}


def test_coloured_cycles_match_the_enumeration_on_random_witness_graphs():
    # a witness graph is, per interval, disjoint point masks, one per atom;
    # its lines take one point from each mask
    rng = random.Random(11)
    outcomes = set()
    for _ in range(600):
        graph = []
        for _ in range(rng.randint(1, 5)):
            pts = rng.sample(range(9), rng.randint(2, 7))
            cuts = sorted(rng.sample(range(1, len(pts)), rng.randint(1, min(3, len(pts) - 1))))
            parts = [pts[a:b] for a, b in zip([0] + cuts, cuts + [len(pts)])]
            graph.append([sum(1 << p for p in part) for part in parts])
        choices = [[frozenset(c) for c in itertools.product(*[list(bits(m)) for m in colours])]
                   for colours in graph]
        want = some_choice_has_a_cycle(choices)
        assert modlat.analysis._has_coloured_cycle(graph) == want, graph
        outcomes.add(want)
    assert outcomes == {False, True}


def test_triangles_match_the_enumeration():
    # every triple with pairwise comparable tops, and a seeded sample of
    # the others, on lattices with and without triangles
    rng = random.Random(7)
    outcomes = set()
    for L in _exact_lattices():
        ctx = AnalysisContext(L)
        lines = [line_choices(L, iv) for iv in ctx.intervals]
        tops = [iv.top for iv in ctx.intervals]
        triples = list(itertools.combinations(range(len(lines)), 3))
        comparable = [t for t in triples if all(
            L.leq(tops[a], tops[b]) or L.leq(tops[b], tops[a])
            for a, b in itertools.combinations(t, 2))]
        for i, j, k in comparable + rng.sample(triples, min(len(triples), 200)):
            choices = [lines[i], lines[j], lines[k]]
            if choice_count(choices) <= CHOICES_CAP:
                want = some_choice_is_a_triangle(choices)
                assert ctx.triangle_at(i, j, k) == want, (L, i, j, k)
                outcomes.add(want)
        assert check_triangle_tops(ctx).passed
    assert outcomes == {False, True}


def test_triangle_tops_skip_only_triples_without_a_triangle():
    # the triples of intervals with pairwise comparable tops that
    # `check_triangle_tops` skips, since two of their witness spans are
    # disjoint, have no triangle in any base
    lattices = [L for _, L in standard_corpus()]
    lattices += [subgroup_lattice(parse_group(g)) for g in ("2,4,8", "8,8", "32,32")]
    skipped = 0
    for L in lattices:
        ctx = AnalysisContext(L)
        tops = [iv.top for iv in ctx.intervals]
        spans = [sum(ws) for ws in ctx.witnesses]
        for t in itertools.combinations(range(len(tops)), 3):
            pairs = list(itertools.combinations(t, 2))
            if all(L.leq(tops[a], tops[b]) or L.leq(tops[b], tops[a]) for a, b in pairs) and not all(
                spans[a] & spans[b] for a, b in pairs
            ):
                skipped += 1
                assert not ctx.triangle_at(*t), (L, t)
    assert skipped > 3000


def test_some_base_cyclic_matches_the_enumeration():
    seen = set()
    for L in _exact_lattices():
        ctx = AnalysisContext(L)
        choices = [line_choices(L, iv) for iv in ctx.intervals]
        if choice_count(choices) <= CHOICES_CAP:
            assert ctx.some_base_cyclic == some_choice_has_a_cycle(choices), L
            assert ctx.some_base_cyclic != ctx.acyclic, L
            seen.add(ctx.acyclic)
    assert seen == {False, True}
    # with an acyclic canonical base, the verdict reads the answer over
    # all bases: here a doctored witness graph with a coloured 6-cycle
    ctx = AnalysisContext(m_n(3))
    cyclic = AnalysisContext(m_n(3))
    cyclic.witnesses = ((0b1, 0b10), (0b10, 0b100), (0b100, 0b1))
    assert _verdict(check_point_count(ctx), "acyclicity agrees across bases").passed
    assert not _verdict(check_point_count(cyclic), "acyclicity agrees across bases").passed


def test_acyclicity_agreement_matches_the_enumeration():
    # every base is tried; Z2^3 x Z3, Z4 x Z4 x Z3 and Z4 x Z8 x Z3 are
    # cyclic with two projectivity classes
    groups = ("2,2,2,3", "4,4,3", "4,8,3")
    seen = set()
    for L in _exact_lattices() + [subgroup_lattice(parse_group(g)) for g in groups]:
        ctx = AnalysisContext(L)
        choices = [line_choices(L, iv) for iv in ctx.intervals]
        if choice_count(choices) <= CHOICES_CAP:
            if ctx.acyclic:
                want = not some_choice_has_a_cycle(choices)
            else:
                want = every_choice_has_a_cycle(choices)
            verdict = _verdict(check_point_count(ctx), "acyclicity agrees across bases")
            assert verdict.passed == want, L
            seen.add((ctx.acyclic, len(ctx.class_partition) > 1))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_a_witness_span_across_two_classes_fails_the_agreement():
    # Z2^3 x Z3 is cyclic with two projectivity classes; a witness from
    # the other class on the last interval breaks its span, and only it
    ctx = AnalysisContext(subgroup_lattice(parse_group("2,2,2,3")))
    assert not ctx.acyclic and len(ctx.class_partition) == 2
    ws = list(ctx.witnesses)
    other = next(c for c in ctx.class_partition if not c & sum(ws[-1]))
    ws[-1] = (ws[-1][0] | other & -other,) + ws[-1][1:]
    ctx.witnesses = tuple(ws)
    detail = f"witness span at top {ctx.intervals[-1].top} crosses classes"
    verdict = _verdict(check_point_count(ctx), "acyclicity agrees across bases")
    assert not verdict.passed and verdict.detail == detail
    # the canonical base keeps its components, so the components check
    # fails on the span too
    verdict = check_components_match_projectivity(ctx)
    assert not verdict.passed and verdict.detail == detail


def test_line_feet_cover_every_witness_pair():
    # a stray witness that no line of the canonical base holds is still checked
    L = z4_squared()
    ctx = AnalysisContext(L)
    assert check_line_feet(ctx).detail == "15 point pairs checked"
    stray = next(p for p in bits(L.ji_mask) if not L.leq(p, ctx.intervals[0].top))
    ws = list(ctx.witnesses)
    ws[0] = (ws[0][0] | 1 << stray,) + ws[0][1:]
    doctored = AnalysisContext(L)
    doctored.witnesses = tuple(ws)
    verdict = check_line_feet(doctored)
    assert not verdict.passed


def test_line_feet_report_a_pair_on_a_line_that_is_not_perspective():
    # with no transpose mask shared, the first witness pair of the first
    # interval keeps its foot but loses its perspectivity
    L = z4_squared()
    doctored = AnalysisContext(L)
    doctored.shares = [0] * L.n
    p, q = sorted((w & -w).bit_length() - 1 for w in doctored.witnesses[0][:2])
    verdict = check_line_feet(doctored)
    assert not verdict.passed
    assert verdict.detail == f"{p},{q} on a line but not perspective"


def test_perspective_intervals_report_each_way_a_pair_misses_its_interval():
    # M3's three atoms are pairwise perspective, with the one line
    # interval [0, 4]; the first pair walked is 1, 2
    name = "perspective pairs span line intervals"
    ctx = AnalysisContext(m_n(3))
    (iv,) = ctx.intervals
    assert (iv.bottom, iv.top, sorted(ctx.lower)) == (0, 4, [1, 2, 3])
    assert check_perspective_intervals(ctx) == (name, True, "3 pairs")
    for doctored, detail in [
        (iv._replace(bottom=iv.top), "interval at 4 does not start at p_*+q_*"),
        (iv._replace(atoms=()), "1 or 2 misses the middle layer at 4"),
    ]:
        ctx.intervals = (doctored,)
        assert check_perspective_intervals(ctx) == (name, False, detail)
    # the Boolean lattice on atoms 1, 2, 4 has no line interval, so two
    # atoms made perspective join outside every one
    ctx = AnalysisContext(boolean_lattice(3))
    assert ctx.intervals == () and check_perspective_intervals(ctx).passed
    ctx.shares[1] |= 1 << 2
    assert check_perspective_intervals(ctx) == (name, False, "join 3 of 1,2 is not a line-top")


def test_shared_localization_pass_matches_localize():
    lattices = [L for _, L in standard_corpus()] + [subgroup_lattice(parse_group("4,8"))]
    seen = set()
    for L in lattices:
        ctx = AnalysisContext(L)
        points, tops = frozenset(bits(L.ji_mask)), [iv.top for iv in ctx.intervals]
        for masks in itertools.islice(all_bols(ctx.witnesses), 50):
            lines = [frozenset(bits(m)) for m in masks]
            B = Pls(points, tuple(lines))
            comps, r = mask_components(masks, L.ji_mask)
            assert sorted(comps) == sorted(
                sum(1 << p for p in comp) for comp in union_find_components(B)
            ), L
            assert r == rstar(B) and (r == 0) == (find_cycle(B) is None), L
            for k, (u, v, _, _) in enumerate(ctx.coverings):
                P = oracles.localize(L, lines, tops, u, v)
                cyclic = find_cycle(P) is not None
                # a listed base with a cyclic or split localization is
                # one of all bases
                assert ctx.cyclic_at(k) or not cyclic, (L, u, v)
                assert len(union_find_components(P)) == 1 or not ctx.connected_at(k), (L, u, v)
                seen.add((len(P.lines) > 1, cyclic))
    assert seen == {(False, False), (True, False), (True, True)}


def _doctored_covering(pts, table, qual=None):
    # a context whose one covering (3, 7) has the point mask `pts` and
    # the witness table `table`, every interval qualifying by default
    ctx = AnalysisContext(m_n(3))
    qual = (1 << len(table)) - 1 if qual is None else qual
    ctx.coverings, ctx.witnesses = ((3, 7, pts, qual),), tuple(table)
    return ctx


def _every_base_connected(ctx, k):
    # the lines of each qualifying interval, every base of the table
    # taken, kept to J(u, v)
    _, _, pts, qual = ctx.coverings[k]
    choices = [[frozenset(bits(m & pts)) for m in lines]
               for i, lines in enumerate(candidate_lines(ctx.witnesses)) if qual >> i & 1]
    return every_choice_is_connected(choices, bits(pts))


def test_connected_at_matches_the_enumeration_on_doctored_tables(monkeypatch):
    # random tables over J(u, v) = points 0..n-1 and two points outside
    # it, the slots of one interval disjoint, half the intervals with one
    # option per slot; `searched` holds the answers that the union search
    # gave, seen by bounding it at one part
    rng = random.Random(17)
    outcomes, searched = set(), set()
    for _ in range(1500):
        n = rng.randint(2, 8)
        table = []
        for _ in range(rng.randint(1, 7)):
            pool = rng.sample(range(n + 2), rng.randint(1, min(n + 2, 5)))
            cuts = list(range(1, len(pool))) if rng.random() < 0.5 else sorted(
                rng.sample(range(1, len(pool)), min(rng.randint(0, 2), len(pool) - 1)))
            table.append(tuple(sum(1 << p for p in pool[a:b])
                               for a, b in zip([0] + cuts, cuts + [len(pool)])))
        qual = sum(1 << i for i in range(len(table)) if rng.random() < 0.85)
        ctx = _doctored_covering((1 << n) - 1, table, qual)
        want = _every_base_connected(ctx, 0)
        assert ctx.connected_at(0) is want, table
        outcomes.add(want)
        with monkeypatch.context() as m:
            m.setattr(modlat.analysis, "SEARCH_PARTS", 1)
            if ctx.connected_at(0) is None:
                searched.add(want)
    assert outcomes == {False, True} and False in searched
    # forced parts A = {a, a'}, B = {b, b'} and C = {c, c'}; the lines X,
    # Y and Z each have one forced point and one slot across the other
    # two parts, so nothing merges, and only the search shows that no
    # union of parts splits a base
    a, a_, b, b_, c, c_ = (1 << p for p in range(6))
    table = [(a, b | c), (c_, a_ | b_), (b_, a | c), (a, a_), (b, b_), (c, c_)]
    ctx = _doctored_covering(0b111111, table)
    assert ctx.connected_at(0) is _every_base_connected(ctx, 0) is True
    monkeypatch.setattr(modlat.analysis, "SEARCH_PARTS", 2)
    assert ctx.connected_at(0) is None


def test_connected_at_matches_the_scan_on_the_doctored_tables(monkeypatch):
    # every call that the doctored-table test makes, checked against the
    # merge loop that scans every part
    answers = []

    def checked(ctx, k, connected_at=AnalysisContext.connected_at):
        got = connected_at(ctx, k)
        assert got is oracles.connected_by_scan(ctx, k), ctx.witnesses
        answers.append(got)
        return got

    monkeypatch.setattr(AnalysisContext, "connected_at", checked)
    test_connected_at_matches_the_enumeration_on_doctored_tables(monkeypatch)
    assert set(answers) == {False, True, None}


@pytest.mark.parametrize("group", ["2,2,4,4", "4,4,8", "2,2,2,8", "16,16", "4,8"])
def test_connected_at_matches_the_scan_on_every_covering(group, monkeypatch):
    # cyclic-factor groups, where choosy lines leave parts to merge; with
    # the search bounded at one part, the merge alone decides
    ctx = AnalysisContext(subgroup_lattice(parse_group(group)))
    ks = range(len(ctx.coverings))
    for bound in (modlat.analysis.SEARCH_PARTS, 1):
        monkeypatch.setattr(modlat.analysis, "SEARCH_PARTS", bound)
        want = [oracles.connected_by_scan(ctx, k) for k in ks]
        assert [ctx.connected_at(k) for k in ks] == want


def test_a_covering_past_the_search_bound_fails_the_localizations_check():
    # SEARCH_PARTS + 1 points, each forced onto a line of its own, and a
    # line that may take either of the first two: nothing merges
    bound = modlat.analysis.SEARCH_PARTS
    table = [(1 << p,) for p in range(bound + 1)] + [(0b11,)]
    ctx = _doctored_covering((1 << bound + 1) - 1, table)
    assert ctx.connected_at(0) is None
    assert check_localizations_connected(ctx) == (
        "localizations connected", False, "covering (3,7) undecided")
    # one point fewer, and the search finds the base that leaves the
    # first point's line apart
    ctx = _doctored_covering((1 << bound) - 1, table[1:])
    assert ctx.connected_at(0) is False
    assert check_localizations_connected(ctx) == (
        "localizations connected", False, "covering (3,7) splits in some base")


def test_an_option_that_no_sampled_base_takes_fails_the_localizations_check(monkeypatch):
    # the first 1,000 bases of Z4 x Z8, which the suite once sampled,
    # take every line from the canonical base on intervals 0-3, since
    # intervals 4-7 alone have 1,152 choices; one witness more there,
    # above the slot's lowest, splits a localization of some base that
    # the sample never reached, and both the localizations check and the
    # components check, which rests on it, fail and name that covering
    L = subgroup_lattice(parse_group("4,8"))
    ctx = AnalysisContext(L)

    def first_split(i, a, q):
        # the context with q added to slot a of interval i, and its first
        # covering that splits in some base, or None
        doc = AnalysisContext(L)
        ws = list(ctx.witnesses)
        ws[i] = ws[i][:a] + (ws[i][a] | 1 << q,) + ws[i][a + 1:]
        doc.witnesses = tuple(ws)
        return doc, next((k for k in range(len(doc.coverings)) if not doc.connected_at(k)), None)

    doc, k = next((doc, k) for i in range(4) for a, w in enumerate(ctx.witnesses[i])
                  for q in bits(L.ji_mask & ~sum(ctx.witnesses[i]) & -(2 * w))
                  for doc, k in [first_split(i, a, q)] if k is not None)
    assert _every_base_connected(doc, k) is False
    sample = list(itertools.islice(all_bols(doc.witnesses), 1000))
    assert base_count(doc.witnesses) > 1000 and all(B[:4] == ctx.base[:4] for B in sample)
    assert all(len(mask_components([B[j] & pts for j in bits(qual)], pts)[0]) == 1
               for B in sample for _, _, pts, qual in doc.coverings)
    assert all(set(mask_components(B, L.ji_mask)[0]) == ctx.class_partition for B in sample)
    monkeypatch.setattr(modlat.analysis, "witness_masks", lambda L, ivs: doc.witnesses)
    u, v, _, _ = doc.coverings[k]
    split = f"covering ({u},{v}) splits in some base"
    verdicts = verdict_suite(L)
    assert _verdict(verdicts, "localizations connected") == (
        "localizations connected", False, split)
    assert _verdict(verdicts, "components match projectivity") == (
        "components match projectivity", False, split)


def test_cyclic_localizations_persist_up_transpositions():
    # if u -< v transposes up to u' -< v' (v + u' = v', v * u' = u), then
    # J(u, v) and the qualifying intervals lie in those of u' -< v', so a
    # cycle at the first is one at the second
    lattices = [L for _, L in standard_corpus()]
    lattices += [subgroup_lattice(parse_group(g)) for g in ("2,2,2,2", "2,2,4", "3,3,3")]
    pairs = 0
    for L in lattices:
        ctx = AnalysisContext(L)
        for k, (u, v, _, _) in enumerate(ctx.coverings):
            if not ctx.cyclic_at(k):
                continue
            for k2, (u2, v2, _, _) in enumerate(ctx.coverings):
                if k2 != k and L.join(v, u2) == v2 and L.meet(v, u2) == u:
                    pairs += 1
                    assert ctx.cyclic_at(k2), (L, u, v, u2, v2)
    assert pairs > 100


def test_connected_localizations_make_each_sampled_base_match_the_classes(monkeypatch):
    # each transpose mask S(a, b) lies in J(a, b), so a base whose every
    # localization is connected has each class inside one component, and
    # the witness spans put each component inside one class; on these
    # lattices the merge leaves one part at every covering, so
    # `connected_at` decides them with no union search.  The bases are
    # the first 1,000 that `all_bols` lists
    monkeypatch.setattr(modlat.analysis, "SEARCH_PARTS", 1)
    lattices = [L for _, L in standard_corpus()]
    lattices += [subgroup_lattice(parse_group(g)) for g in ("4,8", "2,4,8")]
    for L in lattices:
        ctx = AnalysisContext(L)
        assert all(ctx.connected_at(k) for k in range(len(ctx.coverings))), L
        for B in itertools.islice(all_bols(ctx.witnesses), 1000):
            assert set(mask_components(B, L.ji_mask)[0]) == ctx.class_partition, L


def test_components_match_projectivity_reports_the_first_split_pair():
    # merging two of the three projectivity classes of the Boolean lattice
    # on three atoms makes them coarser than the components of its base
    doctored = AnalysisContext(boolean_lattice(3))
    first, second, third = sorted(doctored.class_partition)  # one point each
    merged = second | third
    doctored.class_partition = frozenset({first, merged})
    comp_of = {p: k for k, comp in enumerate(doctored.base_facts[0]) for p in bits(comp)}
    want = next(
        (p, q) for p, q in itertools.combinations(sorted(doctored.lower), 2)
        if (comp_of[p] == comp_of[q]) != (merged >> p & merged >> q & 1 == 1)
    )
    verdict = check_components_match_projectivity(doctored)
    assert not verdict.passed
    assert verdict.detail == f"points {want[0]}, {want[1]}: component False, class True"


def test_transpose_masks_decide_projectivity_and_perspectivity():
    # half the random lattices have their ids reversed, so that every
    # cover runs from a higher id to a lower; about half are not modular
    rng = random.Random(5)
    lattices = [L for _, L in standard_corpus()]
    groups = ["2,2,2,2", "3,3,3", "2,4,8", "8,8", "4,8"]
    lattices += [subgroup_lattice(parse_group(g)) for g in groups]
    for k in range(300):
        n, covers = random_intersection_closed(rng, rng.randint(3, 6))
        if k % 2:
            covers = [(n - 1 - a, n - 1 - b) for a, b in covers]
        lattices.append(Lattice(n, covers))
    assert sum(not L.modular for L in lattices) > 100
    for L in lattices:
        masks = transpose_masks(L)
        assert all(masks)
        assert projectivity_classes(L) == oracles.projectivity_partition(L)
        lower = {p: L.lower_covers(p)[0] for p in bits(L.ji_mask)}
        ups = {p: set(oracles.up_transposes(L, (low, p))) for p, low in lower.items()}
        for q, m in zip(L.covers, masks):
            assert m == sum(1 << p for p in lower if q in ups[p])
        perspective = {
            (p, q): bool(ups[p] & ups[q]) for p, q in itertools.permutations(lower, 2)
        }
        for (p, q), want in perspective.items():
            assert any(m >> p & m >> q & 1 for m in masks) == want
        if not L.modular:
            continue
        ctx = AnalysisContext(L)
        assert {(p, q): ctx.perspective(p, q) for p, q in perspective} == perspective
        assert not any(ctx.perspective(p, p) for p in lower)
        restricted = {
            sum(1 << p for p, low in lower.items() if (low, p) in cls)
            for cls in oracles.projectivity_partition(L)
        }
        assert ctx.class_partition == restricted - {0}


def test_join_witness_matches_the_brute_force_scan():
    # non-modular lattices can fail the check, so the first failing
    # (a, q, r) is compared as well as the count of triples
    rng = random.Random(12)
    lattices = [L for _, L in standard_corpus()]
    lattices += [Lattice(*random_intersection_closed(rng, rng.randint(3, 5)))
                 for _ in range(300)]
    failed = 0
    for L in lattices:
        tried, bad = join_witness_failure(L)
        verdict = check_join_witness(L)
        if bad is None:
            assert verdict.passed and verdict.detail == f"{tried} triples checked"
        else:
            failed += 1
            a, q, r = bad
            assert not verdict.passed and verdict.detail == f"a={a}, q={q}, r={r}: no witness"
    assert failed


def test_join_witness_does_not_depend_on_element_ids():
    # with the ids reversed, every cover runs from a higher id to a lower
    rng = random.Random(13)
    lattices = [L for _, L in standard_corpus()]
    lattices += [Lattice(*random_intersection_closed(rng, rng.randint(3, 5)))
                 for _ in range(100)]
    failed = 0
    for L in lattices:
        n = L.n
        R = Lattice(n, [(n - 1 - a, n - 1 - b) for a, b in L.covers])
        tried, bad = join_witness_failure(R)
        if bad is None:
            assert check_join_witness(R).detail == f"{tried} triples checked"
        else:
            failed += 1
            a, q, r = bad
            assert check_join_witness(R).detail == f"a={a}, q={q}, r={r}: no witness"
    assert failed


def test_join_witness_matches_the_scan_on_small_and_wide_lattices():
    # no point, one point and a chain; then families on 7-9 element
    # universes, some with more than 8 points, so that a field of the
    # packed masks spans two bytes (the first such failure is the 78th
    # family of this seed); and each with its ids reversed
    rng = random.Random(41)
    lattices = [Lattice(1, []), Lattice(2, [(0, 1)]), chain(5)]
    lattices += [Lattice(*random_intersection_closed(rng, rng.randint(7, 9)))
                 for _ in range(100)]
    lattices += [Lattice(L.n, [(L.n - 1 - a, L.n - 1 - b) for a, b in L.covers])
                 for L in lattices]
    failed = wide_failed = 0
    for L in lattices:
        tried, bad = join_witness_failure(L)
        verdict = check_join_witness(L)
        if bad is None:
            assert verdict.passed and verdict.detail == f"{tried} triples checked"
        else:
            failed += 1
            wide_failed += L.ji_mask.bit_count() > 8
            a, q, r = bad
            assert not verdict.passed and verdict.detail == f"a={a}, q={q}, r={r}: no witness"
    assert check_join_witness(lattices[0]).detail == "0 triples checked"
    assert failed and wide_failed


# per group, the join-witness triples (counted once by
# oracles.join_witness_failure) and the canonical base's triangles
# (counted once by listing analysis._triangles)
VERDICT_COUNTS = {
    "3,3,3,3": (68640, 9360),
    "2,2,2,2,2": (47430, 4340),
    "2,2,4,4": (62574, 1996),
    "32,32": (531660, 58),
}


@pytest.mark.parametrize("group", sorted(VERDICT_COUNTS))
def test_join_witness_and_triangle_counts_on_larger_groups(group):
    L = subgroup_lattice(parse_group(group))
    triples, triangles = VERDICT_COUNTS[group]
    assert check_join_witness(L).detail == f"{triples} triples checked"
    tops = check_triangle_tops(AnalysisContext(L))
    assert tops.passed and tops.detail == f"{triangles} triangles"


def test_triangle_count_matches_the_listing():
    # the canonical bases of the corpus and the exact groups, and the
    # lines of seeded random point-line structures
    bases = [canonical_bol(L)[1] for L in _exact_lattices()]
    rng = random.Random(17)
    randoms = [oracles.random_pls(rng, max_lines=10) for _ in range(400)]
    bases += [tuple(sum(1 << p for p in line) for line in P.lines) for P in randoms]
    counts = [_triangle_count(masks) for masks in bases]
    assert counts == [sum(1 for _ in _triangles(masks)) for masks in bases]
    assert max(counts[: -len(randoms)]) > 0 and max(counts[-len(randoms) :]) > 0


# -- triangle configurations -------------------------------------------------


def test_small_bases_have_no_triangles():
    for L in (m_n(3), seven_point_lattice()):
        masks = canonical_bol(L)[1]
        assert list(triangle_configurations(masks)) == []
        assert triangle_configuration_count(masks) == 0


def test_fano_base_has_84_configurations():
    masks = canonical_bol(z2_cubed())[1]
    assert len(list(triangle_configurations(masks))) == 84
    assert triangle_configuration_count(masks) == 84


@pytest.mark.parametrize("group", ["2,2,2", "2,2,2,2", "3,3,3", "4,4"])
def test_triangle_configurations_match_the_oracle(group):
    masks = canonical_bol(subgroup_lattice(parse_group(group)))[1]
    want = oracles.triangle_configurations([frozenset(bits(m)) for m in masks])
    got = [
        tuple(frozenset(bits(m)) for m in (c.l1, c.l2, c.l3, c.l4))
        + (c.s, c.p1, c.p2, c.q, c.r, c.p3)
        for c in triangle_configurations(masks)
    ]
    assert got == want
    assert triangle_configuration_count(masks) == len(want)


# configuration counts of the canonical base, listed once by
# oracles.triangle_configurations (3-5 s each)
TRIANGLE_COUNTS = {"2,2,2,2,2": 13020, "3,3,3,3": 112320, "5,5,5": 186000, "2,2,4,4": 5796}


@pytest.mark.parametrize("group", sorted(TRIANGLE_COUNTS))
def test_triangle_configuration_count_on_larger_groups(group):
    masks = canonical_bol(subgroup_lattice(parse_group(group)))[1]
    assert triangle_configuration_count(masks) == TRIANGLE_COUNTS[group]


def test_configuration_geometry():
    for cfg in triangle_configurations(canonical_bol(z2_cubed())[1]):
        corners = {cfg.s, cfg.p1, cfg.p2}
        assert len(corners) == 3
        assert cfg.l1 & cfg.l2 == 1 << cfg.s
        assert cfg.l1 & cfg.l3 == 1 << cfg.p1
        assert cfg.l2 & cfg.l3 == 1 << cfg.p2
        assert cfg.l1 & cfg.l4 == 1 << cfg.q
        assert cfg.l2 & cfg.l4 == 1 << cfg.r
        assert cfg.l3 & cfg.l4 == 1 << cfg.p3
        assert corners.isdisjoint({cfg.q, cfg.r, cfg.p3})


def test_every_fano_configuration_yields_a_cyclic_covering():
    L = z2_cubed()
    ivs, masks = canonical_bol(L)
    seen = set()
    for cfg in triangle_configurations(masks):
        a, b = cyclic_localization_witness(L, ivs, masks, cfg)
        assert b == L.top
        assert b in L.upper_covers(a)
        seen.add(a)
    assert seen == set(L.lower_covers(L.top))


def test_witness_rejects_a_doctored_configuration():
    L = z2_cubed()
    ivs, masks = canonical_bol(L)
    cfg = next(triangle_configurations(masks))
    broken = cfg._replace(s=cfg.q)
    with pytest.raises(ClaimViolated):
        cyclic_localization_witness(L, ivs, masks, broken)


# -- cycles of line-tops -------------------------------------------------


def _tight(L):
    """The line-top map and tight-below masks that `check_clean_cycles` reads."""
    tops = {iv.top: iv for iv in line_intervals(L)}
    return tops, _tight_masks(L, tops)


def test_tight_comparability_on_z4_squared():
    L = z4_squared()
    below = _tight(L)[1]
    pairs = {
        (x, y)
        for x, y in itertools.combinations([5, 11, 12, 13, 14], 2)
        if (below[y] >> x | below[x] >> y) & 1
    }
    assert pairs == {(5, 11), (5, 12), (5, 13), (11, 14), (12, 14), (13, 14)}
    assert below[11] >> 5 & 1 and not below[5] >> 11 & 1
    assert not below[5] >> 5 & 1


def test_blocked_patterns_match_the_transposition_scan():
    seen = set()
    for g in ["4,4", "4,8", "2,2,4"]:
        L = subgroup_lattice(parse_group(g))
        tops = {iv.top: iv for iv in line_intervals(L)}
        for v, u, z in itertools.permutations(sorted(tops), 3):
            peak = modlat.analysis._blocked_peak(L, tops, v, u, z)
            valley = modlat.analysis._blocked_valley(L, tops, v, u, z)
            assert peak == blocked_by_transposition(L, tops, v, u, z, True), (g, v, u, z)
            assert valley == blocked_by_transposition(L, tops, v, u, z, False), (g, v, u, z)
            seen.add((peak, valley))
    assert {(True, False), (False, True), (False, False)} <= seen


def test_incomparable_tops_never_cycle():
    assert _top_cycles(_tight(z2_cubed())[1], 8) == []
    assert _top_cycles(_tight(boolean_lattice(3))[1], 8) == []


def test_top_cycles_of_z4_squared():
    L = z4_squared()
    tops, below = _tight(L)
    cycles = _top_cycles(below, 8)
    assert sorted(cycles) == [
        (5, 11, 14, 12),
        (5, 11, 14, 13),
        (5, 12, 14, 13),
    ]
    for c in cycles:
        # up, up, down, down: each top tightly below its successor or above it
        assert [below[c[(k + 1) % 4]] >> c[k] & 1 for k in range(4)] == [1, 1, 0, 0]
        assert len(c) == 4
        assert c[0] == min(c)
        assert c[1] < c[-1]
        assert _is_clean(L, tops, below, c)
    assert _top_cycles(below, 3) == []


def test_clean_cycle_verdicts():
    # all 3 cycles of line-tops of Z4 x Z4 are clean, and its canonical
    # base is cyclic, so the verdict passes without listing them
    L = z4_squared()
    tops, below = _tight(L)
    cycles = _top_cycles(below, 8)
    assert len(cycles) == 3 and all(_is_clean(L, tops, below, c) for c in cycles)
    ctx = AnalysisContext(L)
    assert not ctx.acyclic
    v = check_clean_cycles(ctx)
    assert v.passed and v.detail == "base cyclic, so nothing to force"
    v2 = check_clean_cycles(AnalysisContext(boolean_lattice(3)))
    assert v2.passed and v2.detail == "untriggered (0 cycles, none clean)"


def test_clean_cycles_on_a_cyclic_base_list_no_cycles(monkeypatch):
    # Z16 x Z16 has 3,487,761 cycles of at most 8 line-tops; listing them
    # took minutes, and on Z32 x Z32 ran out of memory
    def refuse(*args, **kwargs):
        raise AssertionError("cycles of line-tops were listed")

    monkeypatch.setattr(modlat.analysis, "_top_cycles", refuse)
    verdicts = verdict_suite(subgroup_lattice(parse_group("16,16")))
    assert all(v.passed for v in verdicts), [str(v) for v in verdicts if not v.passed]
    assert _verdict(verdicts, "clean cycles force base cycles").detail == (
        "base cyclic, so nothing to force"
    )


# -- the full suite --------------------------------------------------------


@pytest.mark.parametrize(
    "name,L",
    standard_corpus(),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_verdict_suite_is_clean_on_the_corpus(name, L):
    for v in verdict_suite(L):
        assert v.passed, str(v)


@pytest.mark.parametrize("group", ["25,25", "27,27", "32,32"])
def test_verdict_suite_passes_on_wide_cyclic_products(group):
    # each has an interval with more than 1,000 lines, which once cut the
    # bases sample to the canonical base; Z32 x Z32 also ran out of memory
    # listing cycles of line-tops.  The components check now holds in
    # every base
    verdicts = verdict_suite(subgroup_lattice(parse_group(group)))
    assert all(v.passed for v in verdicts), [str(v) for v in verdicts if not v.passed]
    assert _verdict(verdicts, "components match projectivity").detail.endswith(
        " points agree in every base")


# sha256 over str(v) + "\n" for every verdict of verdict_suite(L): the
# strings that `verify` prints only when they fail
SUITE_PINNED = {
    "4,8": "4919f08f507c67d3271fe64a55e74b23ee4fb2a91c346d93a24332ec710c3c5c",
    "2,2,4": "e8b80ee44d299ae00cc796e0809012d5cd9e98d6fe064d9739e69be983a3b656",
    "2,4,8": "bc0eae182ae241752529ca6f0953d935f53831796a424b0ae5b2779e5ababc48",
    "seven-point": "f1f51d3c65a84e7da6ebbf03272da134707c1eb96a601526fa51f75d1d0e5362",
}


@pytest.mark.parametrize("name", SUITE_PINNED)
def test_verdict_suite_strings_are_pinned(name):
    L = seven_point_lattice() if name == "seven-point" else subgroup_lattice(parse_group(name))
    text = "".join(f"{v}\n" for v in verdict_suite(L))
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_PINNED[name], text


def test_derived_verdicts_match_the_per_base_reference():
    # the components check and "split counts observed" are derived from
    # `connected_at` and the witness spans; the reference lists the bases
    # and checks each, all of them where they number at most 50,000 and
    # the first 1,000 otherwise (Z2 x Z4 x Z8 has about 3.7e19)
    lattices = [L for _, L in standard_corpus()]
    groups = ("2,2,4", "4,8", "9,9", "2,2,8", "2,4,8")
    lattices += [subgroup_lattice(parse_group(g)) for g in groups]
    limits = set()
    for L in lattices:
        limit = None if base_count(AnalysisContext(L).witnesses) <= 50_000 else 1000
        match, rstars = oracles.per_base_reference(L, limit)
        verdicts = verdict_suite(L)
        assert _verdict(verdicts, "components match projectivity").passed is match, L
        assert _verdict(verdicts, "split counts observed").detail == f"r* values {rstars}", L
        limits.add(limit)
    assert limits == {None, 1000}


def test_a_doctored_table_with_a_base_of_more_components_fails_the_components_check(monkeypatch):
    # one witness more in a slot of Z4 x Z4, above the slot's lowest,
    # leaves the canonical base as it is but lets some base leave a point
    # on no line, so that base has more components than the lattice's one
    # projectivity class; the derivation then fails at a covering that
    # splits, and the components check names it
    L = z4_squared()
    ctx = AnalysisContext(L)
    assert len(ctx.class_partition) == 1

    def doctored(i, a, q):
        doc = AnalysisContext(L)
        ws = list(ctx.witnesses)
        ws[i] = ws[i][:a] + (ws[i][a] | 1 << q,) + ws[i][a + 1:]
        doc.witnesses = tuple(ws)
        return doc

    def has_a_split_base(doc):
        return any(len(mask_components(B, L.ji_mask)[0]) > 1 for B in all_bols(doc.witnesses))

    doc = next(doc for i, ws in enumerate(ctx.witnesses) for a, w in enumerate(ws)
               for q in bits(L.ji_mask & ~sum(ws) & -(2 * w))
               for doc in [doctored(i, a, q)] if has_a_split_base(doc))
    assert doc.base == ctx.base and set(doc.base_facts[0]) == ctx.class_partition
    assert doc.first_split.endswith("splits in some base")
    want = ("components match projectivity", False, doc.first_split)
    assert check_components_match_projectivity(doc) == want
    monkeypatch.setattr(modlat.analysis, "witness_masks", lambda L, ivs: doc.witnesses)
    assert _verdict(verdict_suite(L), "components match projectivity") == want
    assert all(v.passed for v in check_interval_bounds(ctx))


def test_interval_bounds_run_once_per_suite(monkeypatch):
    # the bounds read the canonical base alone, however many bases there
    # are
    calls = []
    bounds = modlat.analysis.check_interval_bounds

    def counted(ctx):
        calls.append(ctx)
        return bounds(ctx)

    monkeypatch.setattr(modlat.analysis, "check_interval_bounds", counted)
    for L in [subgroup_lattice(parse_group("4,8")), z4_squared(), m_n(3)]:
        calls.clear()
        verdict_suite(L)
        assert len(calls) == 1


@pytest.mark.parametrize("run", [params, verdict_suite], ids=["params", "suite"])
def test_shared_facts_are_computed_once(monkeypatch, run):
    L = subgroup_lattice(parse_group("2,2,4"))
    calls = {
        "all_bols": 0, "transpose_masks": 0, "localize": 0, "line_intervals": 0,
        "witness_masks": 0, "canonical_bol": 0,
    }

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(modlat.bol, "all_bols", counted("all_bols", modlat.bol.all_bols))
    monkeypatch.setattr(
        modlat.analysis,
        "transpose_masks",
        counted("transpose_masks", modlat.analysis.transpose_masks),
    )
    monkeypatch.setattr(modlat.analysis, "localize", counted("localize", modlat.analysis.localize))
    line_intervals = counted("line_intervals", modlat.bol.line_intervals)
    monkeypatch.setattr(modlat.bol, "line_intervals", line_intervals)
    monkeypatch.setattr(modlat.analysis, "line_intervals", line_intervals)
    witness_masks = counted("witness_masks", modlat.bol.witness_masks)
    monkeypatch.setattr(modlat.bol, "witness_masks", witness_masks)
    monkeypatch.setattr(modlat.analysis, "witness_masks", witness_masks)
    monkeypatch.setattr(modlat.bol, "canonical_bol", counted("canonical_bol", modlat.bol.canonical_bol))
    run(L)
    # localizations are read off the context's coverings, never rebuilt,
    # every base is read off one witness table, and no base is listed
    assert calls == {
        "all_bols": 0, "transpose_masks": 1, "localize": 0,
        "line_intervals": 1, "witness_masks": 1, "canonical_bol": 0,
    }


def test_no_verdict_or_command_lists_bases_of_lines(monkeypatch, tmp_path, capsys):
    # with `all_bols` made to raise, every verdict, the profile, and the
    # commands that read bases give what they give unpatched
    lattices = [L for _, L in standard_corpus()]
    lattices += [z4_squared(), subgroup_lattice(parse_group("2,4,8"))]
    lat = tmp_path / "z2z4z8.json"
    lat.write_text(json.dumps(lattice_to_json(lattices[-1])))
    argvs = [["verify"], ["analyze", "--lattice", str(lat)],
             ["bol", "--lattice", str(lat), "--all-bols"]]

    def run():
        out = [(verdict_suite(L), params(L)) for L in lattices]
        for argv in argvs:
            code = modlat.cli.main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    want = run()

    def refuse(*args, **kwargs):
        raise AssertionError("bases of lines were listed")

    listing = modlat.bol.all_bols
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("modlat") and getattr(mod, "all_bols", None) is listing:
            monkeypatch.setattr(mod, "all_bols", refuse)
    with pytest.raises(AssertionError, match="were listed"):
        next(modlat.bol.all_bols(()))
    assert run() == want
    assert all(v.passed for suite, _ in want[: len(lattices)] for v in suite)
    verify, _, count = want[len(lattices):]
    assert verify[0] == 0 and verify[1].endswith("\n33 lattices, 0 failing checks\n")
    assert count == (0, "37396835774521933824 bases; r* values [64]\n")


def test_verdict_rendering():
    rep = params(m_n(3))
    lines = [str(v) for v in rep.verdicts]
    assert all(line.startswith("[pass] ") for line in lines)


def test_params_report_serializes():
    rep = params(seven_point_lattice())
    data = rep._asdict()
    assert set(data) == {
        "j", "delta", "s", "i", "o", "mu",
        "rstar_canonical", "acyclic", "locally_acyclic", "verdicts",
    }
    assert data["j"] == 7 and data["mu"] == 9
    assert all(set(v._asdict()) == {"name", "passed", "detail"} for v in data["verdicts"])
    json.dumps(data)
