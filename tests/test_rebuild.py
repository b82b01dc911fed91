from __future__ import annotations

import itertools
import random

import pytest

from modlat import rebuild
from modlat.algebra import parse_group, subgroup_lattice
from modlat.bol import canonical_bol
from modlat.corpus import (
    DISTRIBUTIVE_COUNT,
    boolean_lattice,
    chain,
    m_n,
    seven_point_lattice,
    seven_point_poset,
    standard_corpus,
)
from modlat.lattice import bits, build_lattice, is_isomorphic, ji_elements
from modlat.rebuild import (
    Implication,
    NotAClosureSystem,
    closed_ideals_lattice,
    implication_base_size,
    ji_ground_poset,
    roundtrip_check,
)

from oracles import (
    horn_closure,
    implications_from_json,
    implications_to_json,
    ji_below,
    lines_from_joins,
    natural_implication_base,
    random_intersection_closed,
)


# -- closed_ideals_lattice -----------------------------------------------


def as_masks(sets, labels):
    """Each set of labels as an int mask over `labels`."""
    return [sum(1 << labels.index(x) for x in s) for s in sets]


def test_empty_set_alone_gives_one_element():
    L = closed_ideals_lattice([0], ())
    assert L.n == 1
    assert L.bottom == L.top
    assert L.member_sets == (frozenset(),)


def test_power_set_gives_boolean_lattice():
    members = [frozenset(s) for k in range(4) for s in itertools.combinations("abc", k)]
    L = closed_ideals_lattice(as_masks(members, "abc"), "abc")
    assert L.n == 8
    assert is_isomorphic(L, boolean_lattice(3))


def test_member_order_matches_inclusion():
    L = seven_point_lattice()
    for i in range(L.n):
        for j in range(L.n):
            assert L.leq(i, j) == (L.member_sets[i] <= L.member_sets[j])
    sizes = [len(s) for s in L.member_sets]
    assert sizes == sorted(sizes)


def test_missing_intersection_is_rejected():
    bad = [frozenset(), frozenset("ab"), frozenset("bc")]
    with pytest.raises(NotAClosureSystem):
        closed_ideals_lattice(as_masks(bad, "abc"), "abc")


def test_missing_empty_set_is_rejected():
    with pytest.raises(NotAClosureSystem):
        closed_ideals_lattice(as_masks([frozenset("a"), frozenset("ab")], "ab"), "ab")
    with pytest.raises(NotAClosureSystem):
        closed_ideals_lattice([], ())


def test_duplicate_members_collapse():
    members = [frozenset(), frozenset("a"), frozenset("a"), frozenset("ab")]
    assert closed_ideals_lattice(as_masks(members, "ab"), "ab").n == 3


def test_seven_point_reconstruction():
    L = seven_point_lattice()
    assert L.n == 13
    assert len(ji_elements(L)) == 7


# -- ji_ground_poset -----------------------------------------------------


def test_ji_poset_of_seven_point_matches_source():
    L = seven_point_lattice()
    poset, points = ji_ground_poset(L)
    assert poset.width == 7
    assert len(points) == 7
    assert set(poset.covers) == set(seven_point_poset().covers)
    for i, p in enumerate(points):
        assert poset.labels[i] == L.name(p)


def test_ji_poset_of_chain_is_chain():
    poset, points = ji_ground_poset(chain(5))
    assert poset.width == 4
    assert set(poset.covers) == {(0, 1), (1, 2), (2, 3)}
    assert list(points) == [1, 2, 3, 4]


def test_ji_poset_of_m3_is_antichain():
    poset, _ = ji_ground_poset(m_n(3))
    assert poset.width == 3
    assert poset.covers == ()


# -- full round trip -----------------------------------------------------


@pytest.mark.parametrize(
    "name,L",
    # the corpus with its first five random distributive lattices only
    [(name, L) for name, L in standard_corpus()
     if name not in {f"distributive-{seed}" for seed in range(5, DISTRIBUTIVE_COUNT)}]
    + [("L(3,3,3)", subgroup_lattice(parse_group("3,3,3")))],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_roundtrip_over_corpus(name, L):
    assert roundtrip_check(L)


def test_roundtrip_fails_when_its_enumeration_drops_a_row(monkeypatch):
    L = seven_point_lattice()
    real = rebuild.enumerate_ideals

    def dropping(poset, lines):
        rows = real(poset, lines)
        return rows._replace(rows=rows.rows[:-1])

    monkeypatch.setattr(rebuild, "enumerate_ideals", dropping)
    assert roundtrip_check(L) is False


ROUNDTRIP_GROUPS = ("2,2,2", "2,2,4", "8,8", "3,3,3")


def test_the_ideal_map_is_an_order_embedding():
    # every element of a finite lattice is the join of the join-irreducibles
    # below it, so a <= b exactly when J(a) is inside J(b), and a -> J(a) is
    # one-to-one: `roundtrip_check` needs no order test of its own
    rng = random.Random(11)
    lattices = [L for _, L in standard_corpus()]
    lattices += [subgroup_lattice(parse_group(g)) for g in ROUNDTRIP_GROUPS]
    for k in range(300):
        n, covers = random_intersection_closed(rng, rng.randint(3, 6))
        if k % 2:
            covers = [(n - 1 - a, n - 1 - b) for a, b in covers]
        lattices.append(build_lattice(n, covers))
    assert sum(not L.modular for L in lattices) > 100
    for L in lattices:
        jis = ji_elements(L)
        ideal = [frozenset(p for p in jis if L.leq(p, a)) for a in range(L.n)]
        assert len(set(ideal)) == L.n
        for a, b in itertools.product(range(L.n), repeat=2):
            assert L.leq(a, b) == (ideal[a] <= ideal[b])


# -- natural implication base --------------------------------------------


def natural_base(L):
    """The natural implication base of L's canonical base of lines."""
    lines = [frozenset(bits(m)) for m in canonical_bol(L)[1]]
    return natural_implication_base(lines, *ji_ground_poset(L))


def singleton_down_sets(base):
    return {next(iter(imp.premise)): imp.conclusion for imp in base if len(imp.premise) == 1}


def lattice_down_sets(L):
    """Per non-minimal join-irreducible p, the join-irreducibles below it."""
    downs = {p: frozenset(ji_below(L, p)) - {p} for p in ji_elements(L)}
    return {p: d for p, d in downs.items() if d}


def test_boolean_lattice_needs_no_implications():
    assert natural_base(boolean_lattice(3)) == ()


def test_chain_gives_singleton_premises_only():
    L = chain(5)
    base = natural_base(L)
    assert len(base) == 3
    assert all(len(imp.premise) == 1 for imp in base)
    downs = sorted(len(imp.conclusion) for imp in base)
    assert downs == [1, 2, 3]
    assert implication_base_size(base) == 9


def test_m3_gives_line_implications_only():
    L = m_n(3)
    base = natural_base(L)
    atoms = frozenset(ji_elements(L))
    assert len(base) == 3
    for imp in base:
        assert len(imp.premise) == 2
        assert imp.conclusion == atoms
    assert implication_base_size(base) == 15


def test_seven_point_base_shape_and_size():
    base = natural_base(seven_point_lattice())
    singles = [imp for imp in base if len(imp.premise) == 1]
    pairs = [imp for imp in base if len(imp.premise) == 2]
    assert len(singles) == 4
    assert len(pairs) == 9
    assert all(len(imp.conclusion) == 1 for imp in singles)
    assert all(len(imp.conclusion) == 3 for imp in pairs)
    assert implication_base_size(base) == 53


def test_closure_under_base_recovers_exactly_the_members():
    L = seven_point_lattice()
    base = natural_base(L)
    points = sorted(ji_elements(L))
    members = {frozenset(ji_below(L, a)) for a in range(L.n)}
    for k in range(len(points) + 1):
        for xs in itertools.combinations(points, k):
            closed = horn_closure(base, xs)
            assert closed in members
            assert (frozenset(xs) in members) == (closed == frozenset(xs))


def test_poset_argument_reproduces_lattice_downsets():
    L = seven_point_lattice()
    external = lines_from_joins(ji_elements(L), L.join)
    assert set(external.lines) == {frozenset(bits(m)) for m in canonical_bol(L)[1]}
    base = natural_implication_base(external.lines, *ji_ground_poset(L))
    assert set(base) == set(natural_base(L))
    assert singleton_down_sets(base) == lattice_down_sets(L)


def test_down_sets_follow_the_poset_past_point_nine():
    # on Z2 x Z2 x Z4 the points 10, 12 and 14 sort before 2 as strings;
    # the poset numbers its positions by the numeric order of the points
    L = subgroup_lattice(parse_group("2,2,4"))
    external = lines_from_joins(ji_elements(L), L.join)
    base = natural_implication_base(external.lines, *ji_ground_poset(L))
    assert singleton_down_sets(base) == lattice_down_sets(L)
    assert singleton_down_sets(base)[10] == frozenset({1})
    assert set(base) == set(natural_base(L))


# -- horn_closure --------------------------------------------------------


def _member_elem(L, point_set):
    return L.member_sets.index(frozenset(point_set))


def test_closure_of_fixture_sets():
    L = seven_point_lattice()
    base = natural_base(L)
    p = {k: _member_elem(L, s) for k, s in enumerate([{0}, {1}, {2}, {0, 3}], 1)}
    assert horn_closure(base, {p[4]}) == frozenset({p[1], p[4]})
    assert horn_closure(base, {p[2], p[3]}) == frozenset({p[1], p[2], p[3]})
    assert horn_closure(base, ()) == frozenset()


def test_closure_is_extensive_monotone_idempotent():
    L = seven_point_lattice()
    base = natural_base(L)
    points = sorted(ji_elements(L))
    rng = random.Random(3)
    for _ in range(60):
        xs = frozenset(p for p in points if rng.random() < 0.4)
        ys = xs | {rng.choice(points)}
        cx, cy = horn_closure(base, xs), horn_closure(base, ys)
        assert xs <= cx
        assert cx <= cy
        assert horn_closure(base, cx) == cx


# -- sizes and serialization ---------------------------------------------


def test_base_size_arithmetic():
    assert implication_base_size(()) == 0
    two = (
        Implication(frozenset([1]), frozenset([2, 3])),
        Implication(frozenset([1, 2]), frozenset([3])),
    )
    assert implication_base_size(two) == 6


def test_implications_json_roundtrip():
    base = natural_base(seven_point_lattice())
    data = implications_to_json(base)
    assert all(set(d) == {"if", "then"} for d in data)
    assert implications_from_json(data) == base


def test_implications_json_roundtrip_with_string_points():
    base = (Implication(frozenset("ab"), frozenset("c")),)
    assert implications_from_json(implications_to_json(base)) == base
