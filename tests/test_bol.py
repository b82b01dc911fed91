from __future__ import annotations

import random
import re
from itertools import islice, product
from math import prod

import pytest

from modlat.algebra import join_subgroups, parse_group, subgroup_lattice
from modlat.bol import (
    CapExceeded,
    NotACovering,
    all_bols,
    base_count,
    bol_to_json,
    canonical_bol,
    check_candidates,
    line_intervals,
    localize,
    witness_masks,
)
from modlat.analysis import AnalysisContext
from modlat.corpus import boolean_lattice, chain, m_n, seven_point_lattice, standard_corpus
from modlat.lattice import bits, lower_star
from modlat.pls import Pls, TwoPointIntersection, components, find_cycle, mask_components, validate_pls
import oracles
from oracles import candidate_lines, check_candidate_lines, ji_between, line_choices, lines_from_joins


def z2_cubed():
    return subgroup_lattice(parse_group("2,2,2"))


def bases(L, cap=1000):
    return all_bols(witness_masks(L, line_intervals(L)), cap=cap)


def as_pls(L, masks):
    """The base of L with the lines given as int `masks`, checked as a
    partial linear space on all join-irreducibles."""
    return validate_pls(bits(L.ji_mask), [frozenset(bits(m)) for m in masks])


def induced(L, ivs, masks, a):
    """The base of the ideal below `a`, as (point mask, line masks): the
    points under a and the lines whose top is under a."""
    return L.down[a] & L.ji_mask, [m for m, iv in zip(masks, ivs) if L.leq(iv.top, a)]


# -- line intervals ----------------------------------------------------------


def test_distributive_lattices_have_no_line_intervals():
    assert not line_intervals(boolean_lattice(3))
    assert not line_intervals(chain(5))


def test_m3_single_interval():
    (iv,) = line_intervals(m_n(3))
    L = m_n(3)
    assert iv.bottom == L.bottom
    assert iv.top == L.top
    assert iv.n == 3


def test_m4_interval_width():
    (iv,) = line_intervals(m_n(4))
    assert iv.n == 4


def test_z2_cubed_has_seven_intervals():
    L = z2_cubed()
    ivs = line_intervals(L)
    assert len(ivs) == 7
    assert sorted(iv.top for iv in ivs) == sorted(L.lower_covers(L.top))
    assert all(iv.n == 3 for iv in ivs)


@pytest.mark.parametrize("name,L", standard_corpus(), ids=lambda v: v if isinstance(v, str) else "")
def test_interval_shape_invariants(name, L):
    for iv in line_intervals(L):
        assert L.rank[iv.top] - L.rank[iv.bottom] == 2
        assert set(iv.atoms) == set(L.lower_covers(iv.top))
        assert iv.bottom == L.meet_all(iv.atoms)
        assert iv.n >= 3
        for a in iv.atoms:
            assert L.leq(iv.bottom, a)


# -- bases of lines ------------------------------------------------------------


def test_canonical_bol_points_are_all_join_irreducibles():
    L = seven_point_lattice()
    ivs, masks = canonical_bol(L)
    assert set(bol_to_json(L, ivs, masks)["points"]) == set(bits(L.ji_mask))
    assert all(m & ~L.ji_mask == 0 for m in masks)


@pytest.mark.parametrize("name,L", standard_corpus(), ids=lambda v: v if isinstance(v, str) else "")
def test_line_invariants(name, L):
    ivs, masks = canonical_bol(L)
    assert len(masks) == len(line_intervals(L))
    assert ivs == line_intervals(L)
    for m, iv in zip(masks, ivs):
        line, top, bottom = frozenset(bits(m)), iv.top, iv.bottom
        assert len(line) == iv.n
        pts = sorted(line)
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                assert L.join(p, q) == top
                assert L.join(lower_star(L, p), lower_star(L, q)) == bottom
        # the witnesses hit each atom of the interval exactly once
        hits = {L.join(iv.bottom, p) for p in line}
        assert hits == set(iv.atoms)


def test_z2_cubed_has_exactly_one_bol_shaped_like_a_projective_plane():
    L = z2_cubed()
    bols = list(bases(L, cap=10))
    assert len(bols) == 1
    P = as_pls(L, bols[0])
    assert len(P.points) == 7
    assert len(P.lines) == 7
    assert all(len(l) == 3 for l in P.lines)
    # every pair of points shares exactly one line
    pts = sorted(P.points)
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            assert sum(1 for l in P.lines if p in l and q in l) == 1


def test_all_bols_counts_and_cap():
    assert sum(1 for _ in bases(seven_point_lattice(), cap=10)) == 4
    with pytest.raises(CapExceeded):
        list(bases(seven_point_lattice(), cap=2))
    bols = list(bases(seven_point_lattice(), cap=10))
    assert len(set(bols)) == len(bols)


def test_all_bols_yield_validated_structures():
    # witness_masks checks the axioms once per lattice, not per base
    lattices = [L for _, L in standard_corpus()]
    lattices += [subgroup_lattice(parse_group(g)) for g in ("4,8", "8,8", "2,4,8")]
    for L in lattices:
        ivs = line_intervals(L)
        for masks in islice(all_bols(witness_masks(L, ivs)), 1000):
            assert [m.bit_count() for m in masks] == [iv.n for iv in ivs]
            validate_pls(bits(L.ji_mask), [frozenset(bits(m)) for m in masks])


# the corpus and cyclic-factor groups whose intervals have several lines
ORDER_CASES = standard_corpus() + [
    (f"L({g})", subgroup_lattice(parse_group(g))) for g in ("2,8", "4,4", "4,8", "9,9", "2,2,8")
]


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 1000])
def test_all_bols_is_the_product_of_the_line_choices(cap):
    for name, L in ORDER_CASES:
        ivs = line_intervals(L)
        choices = [[sum(1 << p for p in ln) for ln in line_choices(L, iv)] for iv in ivs]
        got, raised = [], False
        try:
            for masks in all_bols(witness_masks(L, ivs), cap=cap):
                got.append(masks)
        except CapExceeded:
            raised = True
        want = list(islice(product(*choices), cap + 1))
        assert got == want[:cap], name
        assert raised == (len(want) > cap), name
        # uncapped, all_bols yields exactly base_count bases
        count = base_count(witness_masks(L, ivs))
        assert sum(1 for _ in all_bols(witness_masks(L, ivs), cap=count)) == count, name


def test_all_bols_samples_past_a_wide_interval():
    # one interval of Z25 x Z25 has 15,625 lines, more than the cap; that
    # no longer stops the listing before its first base
    L = subgroup_lattice(parse_group("25,25"))
    witnesses = witness_masks(L, line_intervals(L))
    assert max(prod(w.bit_count() for w in ws) for ws in witnesses) == 15625
    bases = all_bols(witnesses)
    sample = list(islice(bases, 1000))
    assert len(sample) == len(set(sample)) == 1000
    with pytest.raises(CapExceeded):
        next(bases)


@pytest.mark.parametrize("name,L", ORDER_CASES, ids=lambda v: v if isinstance(v, str) else "")
def test_canonical_bol_is_the_first_base(name, L):
    ctx = AnalysisContext(L)
    first = next(all_bols(ctx.witnesses))
    assert first == ctx.base
    assert canonical_bol(L) == (line_intervals(L), first)


def test_candidate_check_rejects_a_two_point_overlap():
    # interval 0 has the lines {0, 1, 2} and {0, 1, 3}, which overlap: a
    # base holds only one of them
    check_candidates([(0b0001, 0b0010, 0b1100), (0b00100, 0b01000, 0b10000)])
    with pytest.raises(TwoPointIntersection, match=r"intervals 0 and 1 share \[1, 2\]"):
        check_candidates([(0b0001, 0b0010, 0b1100), (0b00010, 0b00100, 0b10000)])


def _random_witness_table(rng):
    """Two to four intervals, each with two to four points over up to
    twelve, cut into disjoint nonempty atom masks."""
    width = rng.randint(4, 12)
    table = []
    for _ in range(rng.randint(2, 4)):
        pts = rng.sample(range(width), rng.randint(2, 4))
        cuts = sorted(rng.sample(range(1, len(pts)), min(len(pts) - 1, rng.randint(1, 3))))
        parts = [pts[i:j] for i, j in zip([0] + cuts, cuts + [len(pts)])]
        table.append(tuple(sum(1 << p for p in part) for part in parts))
    return table


def _candidate_verdict(check, arg):
    try:
        check(arg)
    except TwoPointIntersection as exc:
        i, j, shared = re.search(r"intervals (\d+) and (\d+) share \[(.*)\]", str(exc)).groups()
        return int(i), int(j), [int(p) for p in shared.split(", ")]
    return None


def test_candidate_check_matches_the_pairwise_loop():
    rng = random.Random(12)
    raised = 0
    for _ in range(3000):
        table = _random_witness_table(rng)
        candidates = candidate_lines(table)
        got = _candidate_verdict(check_candidates, table)
        want = _candidate_verdict(check_candidate_lines, candidates)
        assert (got is None) == (want is None), table
        if got is None:
            continue
        raised += 1
        assert got[:2] == want[:2], table
        # the two named points lie on one line of each named interval
        pair = sum(1 << p for p in got[2])
        assert len(got[2]) == 2
        for k in got[:2]:
            assert any(line & pair == pair for line in candidates[k]), table
    assert 1000 < raised < 2000


def test_lines_from_joins_against_built_lattice():
    # the join-irreducible subgroups as element masks, joined in the group
    G = parse_group("4,4")
    L = subgroup_lattice(G)
    points = [L.subgroups[p] for p in bits(L.ji_mask)]
    P = lines_from_joins(points, lambda h, k: join_subgroups(G, h, k))
    assert len(P.lines) == len(line_intervals(L))
    assert isinstance(P, Pls)
    assert P.points == frozenset(points)


def test_lines_from_joins_trivial_cases():
    L = m_n(3)
    B = lines_from_joins(L.upper_covers(L.bottom), L.join)
    assert len(B.lines) == 1
    C = chain(4)
    B2 = lines_from_joins(bits(C.ji_mask), C.join)
    assert B2.lines == ()


# -- induced bases ----------------------------------------------------------------


def test_induced_at_top_and_bottom():
    L = z2_cubed()
    ivs, masks = canonical_bol(L)
    pts, lines = induced(L, ivs, masks, L.top)
    assert pts == L.ji_mask and set(lines) == set(masks)
    pts, lines = induced(L, ivs, masks, L.bottom)
    assert not pts
    assert not lines


def test_induced_at_a_coatom_is_a_diamond_slice():
    L = z2_cubed()
    a = L.lower_covers(L.top)[0]
    pts, lines = induced(L, *canonical_bol(L), a)
    assert pts.bit_count() == 3
    assert len(lines) == 1
    assert all(L.leq(p, a) for p in bits(pts))
    assert lines[0] & ~pts == 0


# -- localization --------------------------------------------------------------------


def test_localize_on_chain_covering():
    L = chain(3)
    pts, lines = localize(L, *canonical_bol(L), 0, 1)
    assert pts.bit_count() == 1
    assert not lines


def test_localize_on_m3_side_covering():
    L = m_n(3)
    a = L.upper_covers(L.bottom)[0]
    pts, lines = localize(L, *canonical_bol(L), a, L.top)
    assert pts.bit_count() == 2
    assert len(lines) == 1
    assert all(m.bit_count() == 2 for m in lines)


def test_localize_rejects_non_coverings():
    L = z2_cubed()
    with pytest.raises(NotACovering):
        localize(L, *canonical_bol(L), L.bottom, L.top)


def test_localized_lines_lose_exactly_one_point():
    L = z2_cubed()
    ivs, masks = canonical_bol(L)
    for a, b in L.covers:
        live = {m for m, iv in zip(masks, ivs) if L.leq(iv.top, b) and not L.leq(iv.top, a)}
        pts, lines = localize(L, ivs, masks, a, b)
        between = sum(1 << p for p in ji_between(L, a, b))
        assert pts == between
        assert set(lines) <= {m & between for m in live}
        for m in live:
            assert (m & between).bit_count() == m.bit_count() - 1


@pytest.mark.parametrize("name,L", standard_corpus(), ids=lambda v: v if isinstance(v, str) else "")
def test_localize_matches_the_frozenset_oracle(name, L):
    ivs, masks = canonical_bol(L)
    lines, tops = [frozenset(bits(m)) for m in masks], [iv.top for iv in ivs]
    for a, b in L.covers:
        pts, trimmed = localize(L, ivs, masks, a, b)
        P = oracles.localize(L, lines, tops, a, b)
        assert P.points == frozenset(bits(pts)), (a, b)
        assert P.lines == tuple(frozenset(bits(m)) for m in trimmed), (a, b)


def test_every_coatom_localization_of_the_plane():
    L = z2_cubed()
    ivs, masks = canonical_bol(L)
    lines, tops = [frozenset(bits(m)) for m in masks], [iv.top for iv in ivs]
    for a in L.lower_covers(L.top):
        pts, trimmed = localize(L, ivs, masks, a, L.top)
        assert pts.bit_count() == 4
        assert len(trimmed) == 6
        assert all(m.bit_count() == 2 for m in trimmed)
        comps, r = mask_components(trimmed, pts)
        assert len(comps) == 1 and r > 0
        P = oracles.localize(L, lines, tops, a, L.top)
        assert len(components(P)) == 1
        assert find_cycle(P) is not None


@pytest.mark.parametrize("name,L", standard_corpus(), ids=lambda v: v if isinstance(v, str) else "")
def test_localizations_are_connected_corpus_wide(name, L):
    ivs = line_intervals(L)
    for masks in all_bols(witness_masks(L, ivs), cap=200):
        for a, b in L.covers:
            pts, lines = localize(L, ivs, masks, a, b)
            assert pts
            assert len(mask_components(lines, pts)[0]) == 1


def test_connector_counts_against_induced_components():
    # in a lattice with a single simple factor, a coatom covering sees at
    # least as many localized lines as the induced base has components,
    # and one more point than that
    for name, L in standard_corpus():
        ivs, masks = canonical_bol(L)
        if len(mask_components(masks, L.ji_mask)[0]) != 1 or L.n == 1:
            continue
        for a in L.lower_covers(L.top):
            s_a = len(mask_components(*reversed(induced(L, ivs, masks, a)))[0])
            pts, lines = localize(L, ivs, masks, a, L.top)
            assert len(lines) >= s_a
            assert pts.bit_count() >= s_a + 1


# -- serialization -----------------------------------------------------------------------


def test_bol_json_shape():
    L = z2_cubed()
    d = bol_to_json(L, *canonical_bol(L))
    assert set(d) == {"points", "lines", "tops", "bottoms"}
    assert len(d["lines"]) == len(d["tops"]) == len(d["bottoms"]) == 7
    assert sorted(d["points"]) == sorted(bits(L.ji_mask))
