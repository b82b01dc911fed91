from __future__ import annotations

import random

import pytest

from modlat.corpus import fano_pls
from modlat.pls import (
    LineTooSmall,
    PointNotOnLine,
    TwoPointIntersection,
    UnknownPoint,
    acyclifier,
    components,
    cycle_is_valid,
    find_cycle,
    fresh_point,
    pls_from_json,
    pls_to_json,
    rstar,
    split_point,
    validate_pls,
)

from oracles import min_splittings, random_pls, union_find_components, union_find_rstar


# -- validation -----------------------------------------------------------


def test_fano_is_valid():
    P = fano_pls()
    assert len(P.points) == 7
    assert len(P.lines) == 7
    assert all(len(l) == 3 for l in P.lines)


def test_two_point_intersection_rejected():
    with pytest.raises(TwoPointIntersection):
        validate_pls([1, 2, 3, 4], [{1, 2, 3}, {1, 2, 4}])


def test_short_line_rejected():
    with pytest.raises(LineTooSmall):
        validate_pls([1, 2], [{1}])


def test_unknown_point_rejected():
    with pytest.raises(UnknownPoint):
        validate_pls([1, 2], [{1, 2, 3}])


def test_isolated_points_are_fine():
    P = validate_pls([1, 2, 3, 4, 5], [])
    assert len(components(P)) == 5


# -- components -------------------------------------------------------------


def test_component_counts():
    assert len(components(fano_pls())) == 1
    P = validate_pls(range(7), [{0, 1, 2}, {0, 4, 5}, {3, 5, 6}])
    assert len(components(P)) == 1
    Q = validate_pls(range(6), [{0, 1, 2}, {3, 4, 5}])
    assert len(components(Q)) == 2


def test_components_and_rstar_match_union_find():
    # split until acyclic, so that "+k" points join the ints; "+10" sorts
    # before "+2", and some instances get that far
    rng = random.Random(31)
    for _ in range(60):
        P = random_pls(rng, max_lines=16, max_points=12)
        while True:
            assert components(P) == union_find_components(P)
            assert rstar(P) == union_find_rstar(P)
            cyc = find_cycle(P)
            if cyc is None:
                break
            P = split_point(P, cyc.lines[0], cyc.junctions[0])


# -- cycles -------------------------------------------------------------------


def test_fano_has_a_valid_cycle():
    P = fano_pls()
    cyc = find_cycle(P)
    assert cyc is not None
    assert len(cyc.lines) >= 3
    assert cycle_is_valid(P, cyc)


def test_two_lines_cannot_cycle():
    P = validate_pls(range(1, 6), [{1, 2, 3}, {3, 4, 5}])
    assert find_cycle(P) is None


def test_seven_point_structure_is_a_forest():
    P = validate_pls(range(7), [{0, 1, 2}, {0, 4, 5}, {3, 5, 6}])
    assert find_cycle(P) is None
    assert rstar(P) == 0


# -- splitting -----------------------------------------------------------------


def test_split_point_basics():
    P = fano_pls()
    line0 = P.lines[0]
    pt = min(line0)
    Q = split_point(P, 0, pt)
    assert len(Q.points) == 8
    assert len(Q.lines) == 7
    assert rstar(Q) == rstar(P) - 1
    assert pt not in Q.lines[0]
    assert sum(len(l) for l in Q.lines) == sum(len(l) for l in P.lines)


def test_split_point_requires_incidence():
    P = fano_pls()
    off_line = next(p for p in sorted(P.points) if p not in P.lines[0])
    with pytest.raises(PointNotOnLine):
        split_point(P, 0, off_line)


def test_fresh_points_never_collide():
    P = fano_pls()
    Q = split_point(P, 0, min(P.lines[0]))
    R = split_point(Q, 1, min(Q.lines[1]))
    fresh = [p for p in R.points if isinstance(p, str) and p.startswith("+")]
    assert len(fresh) == 2
    assert len(set(fresh)) == 2
    assert fresh_point(R) not in R.points


# -- rstar ----------------------------------------------------------------------


def test_rstar_examples():
    assert rstar(fano_pls()) == 8
    assert rstar(validate_pls([1, 2, 3], [{1, 2, 3}])) == 0
    assert rstar(validate_pls(range(5), [])) == 0


def test_rstar_matches_exhaustive_search_on_small_structures():
    rng = random.Random(11)
    done = 0
    while done < 25:
        P = random_pls(rng, max_lines=5, max_points=10)
        r = rstar(P)
        if r > 4:
            continue
        assert min_splittings(P, r) == r
        done += 1


def test_rstar_zero_iff_acyclic_sample():
    rng = random.Random(5)
    for _ in range(60):
        P = random_pls(rng, max_lines=8)
        assert (rstar(P) == 0) == (find_cycle(P) is None)


def test_isolated_points_change_nothing():
    P = fano_pls()
    Q = validate_pls(set(P.points) | {"iso1", "iso2"}, P.lines)
    assert rstar(Q) == rstar(P)
    assert (find_cycle(Q) is None) == (find_cycle(P) is None)
    assert len(components(Q)) == len(components(P)) + 2


# -- acyclifier --------------------------------------------------------------------


def apply_splittings(P, steps):
    for li, pt in steps:
        P = split_point(P, li, pt)
    return P


def test_acyclifier_on_fano():
    P = fano_pls()
    steps = acyclifier(P)
    assert len(steps) == 8
    Q = apply_splittings(P, steps)
    assert find_cycle(Q) is None
    assert len(components(Q)) == len(components(P)) == 1


def test_acyclifier_trivial_on_forests():
    P = validate_pls(range(1, 6), [{1, 2, 3}, {3, 4, 5}])
    assert acyclifier(P) == []


def test_acyclifier_on_disjoint_union():
    F = fano_pls()
    shifted = validate_pls(
        [p + 10 for p in F.points],
        [frozenset(p + 10 for p in l) for l in F.lines],
    )
    P = validate_pls(
        set(F.points) | set(shifted.points), tuple(F.lines) + tuple(shifted.lines)
    )
    assert rstar(P) == 16
    steps = acyclifier(P)
    assert len(steps) == 16
    Q = apply_splittings(P, steps)
    assert find_cycle(Q) is None
    assert len(components(Q)) == 2


def test_acyclifier_preserves_components_randomized():
    rng = random.Random(23)
    for _ in range(40):
        P = random_pls(rng)
        steps = acyclifier(P)
        assert len(steps) == rstar(P)
        Q = apply_splittings(P, steps)
        assert find_cycle(Q) is None
        assert len(components(Q)) == len(components(P))


# -- serialization --------------------------------------------------------------------


def test_pls_json_roundtrip():
    P = fano_pls()
    Q = pls_from_json(pls_to_json(P))
    assert set(Q.points) == set(P.points)
    assert {frozenset(l) for l in Q.lines} == {frozenset(l) for l in P.lines}
