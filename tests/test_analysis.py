from __future__ import annotations

import itertools
import json
import random

import pytest

import modlat.analysis
import modlat.bol
from modlat.algebra import parse_group, subgroup_lattice
from modlat.analysis import (
    AnalysisContext,
    ClaimViolated,
    NotALineTop,
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
from modlat.bol import canonical_bol, line_intervals
from modlat.corpus import (
    boolean_lattice,
    chain,
    m_n,
    random_distributive,
    seven_point_lattice,
    standard_corpus,
)
from modlat.lattice import NotModular, bits, build_lattice
from modlat.pls import Pls, components, find_cycle, mask_components, rstar

import oracles
from oracles import (
    blocked_by_transposition,
    choice_count,
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
    pentagon = build_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    with pytest.raises(NotModular):
        params(pentagon)


def test_component_count_values():
    for L, want in [(m_n(3), 1), (boolean_lattice(3), 3), (seven_point_lattice(), 1)]:
        ctx = AnalysisContext(L)
        assert component_count(ctx, ctx.base) == want


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
    verdicts = check_interval_bounds(ctx, ctx.base)
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
    verdicts = check_interval_bounds(ctx, ctx.base)
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
    verdicts = check_interval_bounds(ctx, ctx.base)
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
    # lines on its qualifying intervals, so each one is enumerated
    outcomes = set()
    for L in _exact_lattices():
        ctx = AnalysisContext(L)
        cyclic = []
        for k, (u, v, _, _) in enumerate(ctx.coverings):
            choices = localization_choices(L, ctx.intervals, u, v)
            assert choice_count(choices) <= CHOICES_CAP
            cyclic.append(some_choice_has_a_cycle(choices))
            assert ctx.cyclic_at(k) == cyclic[-1], (L, u, v)
        assert ctx.locally_acyclic is not any(cyclic), L
        outcomes.update(cyclic)
    assert outcomes == {False, True}


def test_local_acyclicity_does_not_depend_on_the_cap():
    # Z4 x Z4 is cyclic with 64 bases of lines, none with a cyclic
    # localization; a cap of at most 5 truncates the bases sample
    L = z4_squared()
    ctx = AnalysisContext(L)
    assert not any(
        some_choice_has_a_cycle(localization_choices(L, ctx.intervals, u, v))
        for u, v, _, _ in ctx.coverings
    )
    for cap in range(6):
        rep = params(L, bols_cap=cap)
        assert rep.locally_acyclic is True and rep.ok
        assert "locally acyclic interval identity" in {v.name for v in rep.verdicts}


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


def test_acyclic_lattice_is_locally_acyclic_under_any_cap():
    # cap 0 leaves the bases sample truncated, but M3 is acyclic
    rep = params(m_n(3), bols_cap=0)
    assert rep.locally_acyclic is True
    assert "locally acyclic interval identity" in {v.name for v in rep.verdicts}
    assert rep.ok


def test_shared_localization_pass_matches_localize():
    lattices = [L for _, L in standard_corpus()] + [subgroup_lattice(parse_group("4,8"))]
    seen = set()
    for L in lattices:
        ctx = AnalysisContext(L, 50)
        points, tops = frozenset(bits(L.ji_mask)), [iv.top for iv in ctx.intervals]
        for masks in ctx.sample:
            lines = [frozenset(bits(m)) for m in masks]
            B = Pls(points, tuple(lines))
            comps, r = ctx.base_facts(masks)
            assert sorted(comps) == sorted(
                sum(1 << p for p in comp) for comp in union_find_components(B)
            ), L
            assert r == rstar(B) and (r == 0) == (find_cycle(B) is None), L
            first = None
            for k, (u, v, _, _) in enumerate(ctx.coverings):
                P = oracles.localize(L, lines, tops, u, v)
                c = len(union_find_components(P))
                if first is None and c != 1:
                    first = (u, v, c)
                cyclic = find_cycle(P) is not None
                # a sampled base with a cyclic localization is one of all bases
                assert ctx.cyclic_at(k) or not cyclic, (L, u, v)
                seen.add((len(P.lines) > 1, cyclic))
            assert ctx.localization_summary(masks) == first, (L, masks)
    assert seen == {(False, False), (True, False), (True, True)}


def test_localization_summaries_are_computed_once_per_base(monkeypatch):
    # Z4 x Z8 has more bases than the default cap and no cyclic
    # localization in any of them; local acyclicity reads no summary
    L = subgroup_lattice(parse_group("4,8"))
    counts = {}
    summarize = modlat.analysis._summarize_localizations

    def counted(ctx, masks):
        key = tuple(masks)
        counts[key] = counts.get(key, 0) + 1
        return summarize(ctx, masks)

    monkeypatch.setattr(modlat.analysis, "_summarize_localizations", counted)
    ctx = AnalysisContext(L)
    assert ctx.truncated and ctx.locally_acyclic is True and not counts
    assert not any(
        some_choice_has_a_cycle(localization_choices(L, ctx.intervals, u, v))
        for u, v, _, _ in ctx.coverings
    )
    verdict_suite(L)
    assert len(counts) == len(ctx.sample) == 1000
    assert set(counts.values()) == {1}


def test_each_distinct_localization_is_decomposed_once(monkeypatch):
    # the 1000 sampled bases of Z4 x Z8 share their localizations
    L = subgroup_lattice(parse_group("4,8"))
    calls = []
    decompose = modlat.analysis.mask_components

    def counted(line_masks, pts):
        calls.append(pts)
        return decompose(line_masks, pts)

    monkeypatch.setattr(modlat.analysis, "mask_components", counted)
    ctx = AnalysisContext(L)
    distinct = set()
    for masks in ctx.sample:
        for k, (_, _, pts, qual) in enumerate(ctx.coverings):
            distinct.add((k, tuple(masks[i] & pts for i in qual)))
        assert ctx.localization_summary(masks) is None
    assert len(calls) == len(distinct) < len(ctx.sample) * len(ctx.coverings) // 100


def test_localization_summaries_match_a_scan_of_every_covering():
    # bases with lines cut short, the canonical one among them, make some
    # localizations fall apart; a summary reads only the coverings that a
    # line differing from the canonical base reaches, and must still name
    # the first covering that a scan of all coverings finds
    L = subgroup_lattice(parse_group("2,2,4"))
    ctx = AnalysisContext(L)
    rng = random.Random(5)

    def cut(masks):
        # drop the lowest point of some lines
        return tuple(m & (m - 1) if rng.random() < 0.1 else m for m in masks)

    def scan(ctx, masks):
        for u, v, pts, qual in ctx.coverings:
            n = len(mask_components([masks[i] & pts for i in qual], pts)[0])
            if n != 1:
                return u, v, n
        return None

    outcomes = set()
    for _ in range(30):
        doctored = AnalysisContext(L)
        doctored.base = cut(ctx.base) if rng.random() < 0.5 else ctx.base
        for B in [doctored.base] + rng.sample(ctx.sample, 8):
            B = cut(B) if rng.random() < 0.5 else B
            want = scan(doctored, B)
            assert doctored.localization_summary(B) == want
            outcomes.add(want is None)
    assert outcomes == {False, True}


def test_components_match_projectivity_reports_the_first_split_pair():
    # merging two of the three projectivity classes of the Boolean lattice
    # on three atoms makes them coarser than the components of its base
    boolean = AnalysisContext(boolean_lattice(3))
    merged = {q: min(k, 1) for q, k in boolean.class_of.items()}
    doctored = AnalysisContext(boolean_lattice(3))
    doctored.class_of = merged
    lower = doctored.lower
    comp_of = {p: k for k, comp in enumerate(doctored.base_facts(doctored.base)[0])
               for p in bits(comp)}
    want = next(
        (p, q) for p, q in itertools.combinations(sorted(lower), 2)
        if (comp_of[p] == comp_of[q]) != (merged[(lower[p], p)] == merged[(lower[q], q)])
    )
    verdict = check_components_match_projectivity(doctored, doctored.base)
    assert not verdict.passed
    assert verdict.detail == f"points {want[0]}, {want[1]}: component False, class True"


def test_join_witness_matches_the_brute_force_scan():
    # non-modular lattices can fail the check, so the first failing
    # (a, q, r) is compared as well as the count of triples
    rng = random.Random(12)
    lattices = [L for _, L in standard_corpus()]
    lattices += [build_lattice(*random_intersection_closed(rng, rng.randint(3, 5)))
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
    lattices += [build_lattice(*random_intersection_closed(rng, rng.randint(3, 5)))
                 for _ in range(100)]
    failed = 0
    for L in lattices:
        n = L.n
        R = build_lattice(n, [(n - 1 - a, n - 1 - b) for a, b in L.covers])
        tried, bad = join_witness_failure(R)
        if bad is None:
            assert check_join_witness(R).detail == f"{tried} triples checked"
        else:
            failed += 1
            a, q, r = bad
            assert check_join_witness(R).detail == f"a={a}, q={q}, r={r}: no witness"
    assert failed


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
    assert seen == set(L.coatoms)


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


def test_tight_queries_reject_non_tops():
    L = z2_cubed()
    tops, below = _tight(L)
    some_top, other = sorted(L.coatoms)[:2]
    with pytest.raises(NotALineTop):
        _is_clean(L, tops, below, (L.bottom, some_top, other))
    with pytest.raises(NotALineTop):
        _is_clean(L, tops, below, (some_top, L.top, other))


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
    assert sorted(c.tops for c in cycles) == [
        (5, 11, 14, 12),
        (5, 11, 14, 13),
        (5, 12, 14, 13),
    ]
    for c in cycles:
        assert c.directions == ("up", "up", "down", "down")
        assert len(c.tops) == 4
        assert c.tops[0] == min(c.tops)
        assert c.tops[1] < c.tops[-1]
        assert _is_clean(L, tops, below, c)
    assert _top_cycles(below, 3) == []


def test_clean_cycle_input_validation():
    L = z4_squared()
    tops, below = _tight(L)
    with pytest.raises(ValueError):
        _is_clean(L, tops, below, (5, 11))
    with pytest.raises(ValueError):
        _is_clean(L, tops, below, (5, 11, 12))
    with pytest.raises(NotALineTop):
        _is_clean(L, tops, below, (5, 11, L.bottom))
    assert _is_clean(L, tops, below, (5, 11, 5)) is False


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
    # each has an interval with more lines than the default cap, which
    # once cut the sample to the canonical base; Z32 x Z32 also ran out
    # of memory listing cycles of line-tops
    verdicts = verdict_suite(subgroup_lattice(parse_group(group)))
    assert all(v.passed for v in verdicts), [str(v) for v in verdicts if not v.passed]
    assert "1000 bases (truncated)" in _verdict(verdicts, "split counts observed").detail


def test_verdict_suite_survives_an_empty_bases_sample():
    # cap 0 stops all_bols before it yields a base; the suite then runs on
    # the canonical base alone
    verdicts = verdict_suite(z4_squared(), bols_cap=0)
    assert all(v.passed for v in verdicts), [str(v) for v in verdicts if not v.passed]
    assert "1 bases (truncated)" in _verdict(verdicts, "split counts observed").detail


@pytest.mark.parametrize("run", [params, verdict_suite], ids=["params", "suite"])
def test_shared_facts_are_computed_once(monkeypatch, run):
    L = subgroup_lattice(parse_group("2,2,4"))
    calls = {
        "all_bols": 0, "projectivity_classes": 0, "localize": 0, "line_intervals": 0,
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
        "projectivity_classes",
        counted("projectivity_classes", modlat.analysis.projectivity_classes),
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
    # and every base is read off one witness table
    assert calls == {
        "all_bols": 1, "projectivity_classes": 1, "localize": 0, "line_intervals": 1,
        "witness_masks": 1, "canonical_bol": 0,
    }


def test_component_count_does_not_build_the_bases_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bases sample was built")

    monkeypatch.setattr(modlat.analysis, "bol_sample", refuse)
    for L, want in [(m_n(3), 1), (seven_point_lattice(), 1), (z4_squared(), 1)]:
        ctx = AnalysisContext(L)
        assert component_count(ctx, ctx.base) == want
    with pytest.raises(AssertionError, match="bases sample"):
        AnalysisContext(z4_squared()).sample


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
