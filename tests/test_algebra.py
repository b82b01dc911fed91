from __future__ import annotations

import random

import pytest

from modlat.algebra import (
    Group,
    SetSystem,
    Subgroup,
    _Numbered,
    cyclic_subgroup,
    distributive_ji,
    distributive_lattice,
    enumeration_input,
    join_irreducible_subgroups,
    join_subgroups,
    parse_group,
    parse_set_system,
    subgroup_lattice,
    subgroup_leq,
    trivial_subgroup,
)
from modlat.corpus import CORPUS_GROUPS, boolean_lattice, chain
from modlat.lattice import CapExceeded, build_lattice, is_isomorphic, ji_elements
from modlat.wildcard import enumerate_ideals, total_count
from oracles import (
    brute_subgroups,
    elementary_abelian_subgroup_count,
    family_join_irreducibles,
    inclusion_lattice,
    rank_two_subgroup_count,
    set_system_to_text,
    union_intersection_closure,
)

EXPECTED_SUBGROUP_COUNTS = {
    "2,2,2": 16,
    "4,4": 15,
    "2,4": 8,
    "8": 4,
    "3,3": 6,
    "2,2,4": 27,
    "2,2,2,2": 67,
    "3,3,3": 28,
    "8,8": 37,
    "2,4,8": 81,
    "2,6": 10,
    "6,6": 30,
}


# -- groups ----------------------------------------------------------------


def test_parse_group_formats():
    assert parse_group("4,4").factors == (4, 4)
    assert parse_group("2 2 4").factors == (2, 2, 4)
    assert parse_group("8").order == 8
    assert str(parse_group("4,4")) == "Z4xZ4"


def test_group_rejects_bad_factors():
    with pytest.raises(ValueError):
        Group((0,))
    with pytest.raises(ValueError):
        Group(())
    with pytest.raises(CapExceeded):
        Group((64, 64, 2))


def test_group_arithmetic():
    G = parse_group("4,4")
    assert G.zero == (0, 0)
    assert G.add((3, 2), (2, 3)) == (1, 1)
    assert len(G.elements) == G.order == 16
    assert list(G.elements) == sorted(G.elements)


# -- subgroups -------------------------------------------------------------


def test_cyclic_subgroups_of_z4xz4():
    G = parse_group("4,4")
    assert cyclic_subgroup(G, (0, 0)) == trivial_subgroup(G)
    H = cyclic_subgroup(G, (1, 3))
    assert set(H.elements) == {(0, 0), (1, 3), (2, 2), (3, 1)}
    assert cyclic_subgroup(G, (2, 2)).order == 2


def test_join_with_trivial_is_identity():
    G = parse_group("4,4")
    H = cyclic_subgroup(G, (1, 3))
    assert join_subgroups(G, H, trivial_subgroup(G)) == H


def test_join_of_two_involutions_is_klein():
    G = parse_group("4,4")
    J = join_subgroups(G, cyclic_subgroup(G, (0, 2)), cyclic_subgroup(G, (2, 0)))
    assert set(J.elements) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_join_can_reach_the_whole_group():
    G = parse_group("4,4")
    J = join_subgroups(G, cyclic_subgroup(G, (1, 0)), cyclic_subgroup(G, (0, 1)))
    assert J.order == 16


def test_join_irreducible_subgroup_counts():
    assert len(join_irreducible_subgroups(parse_group("2,2,2"))) == 7
    jis = join_irreducible_subgroups(parse_group("4,4"))
    assert len(jis) == 9
    assert sorted(H.order for H in jis) == [2, 2, 2, 4, 4, 4, 4, 4, 4]
    assert len(join_irreducible_subgroups(parse_group("6"))) == 2


def test_whole_group_can_be_join_reducible():
    G = parse_group("6")
    jis = join_irreducible_subgroups(G)
    assert all(H.order < 6 for H in jis)


@pytest.mark.parametrize("spec", CORPUS_GROUPS)
def test_join_irreducible_subgroups_match_lattice(spec):
    G = parse_group(spec)
    L = subgroup_lattice(G)
    lattice_jis = {L.subgroups[e] for e in ji_elements(L)}
    assert lattice_jis == set(join_irreducible_subgroups(G))


# -- element masks -----------------------------------------------------------


def _ids(G):
    return {e: i for i, e in enumerate(G.elements)}


def _check_translate(G, pairs, rng):
    """`translate` moves one id as `G.add` does, and a random mask (for
    the first 30 x) id by id."""
    num, index = _Numbered(G), _ids(G)
    for x, y in pairs:
        assert num.translate(1 << y, x) == 1 << index[G.add(G.elements[y], G.elements[x])]
    for x in sorted({x for x, _ in pairs})[:30]:
        ys = rng.sample(range(G.order), rng.randint(0, G.order))
        want = sum(1 << index[G.add(G.elements[y], G.elements[x])] for y in ys)
        assert num.translate(sum(1 << y for y in ys), x) == want


@pytest.mark.parametrize("spec", ["1", "1,6", "12", "9,3", "4,2,8", "2,3,4,5"])
def test_mask_translate_matches_add_on_every_pair(spec):
    G = parse_group(spec)
    pairs = [(x, y) for x in range(G.order) for y in range(G.order)]
    _check_translate(G, pairs, random.Random(spec))


@pytest.mark.parametrize("spec", ["4096", "2,2,2,2,2,2,2,2,2,2,2,2"])
def test_mask_translate_matches_add_on_a_sample(spec):
    G = parse_group(spec)
    rng = random.Random(spec)
    pairs = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(300)]
    _check_translate(G, pairs, rng)


@pytest.mark.parametrize("spec", ["2,2,4", "3,9"])
def test_join_cyclic_matches_join_subgroups_on_every_pair(spec):
    G = parse_group(spec)
    num, index = _Numbered(G), _ids(G)
    for H in brute_subgroups(G.factors):
        H = Subgroup(tuple(sorted(H)))
        for x, e in enumerate(G.elements):
            want = join_subgroups(G, H, cyclic_subgroup(G, e))
            got = num.join_cyclic(sum(1 << index[h] for h in H.elements), x)
            assert num.subgroup(got) == want


# -- subgroup lattices -------------------------------------------------------


@pytest.mark.parametrize("spec", EXPECTED_SUBGROUP_COUNTS)
def test_subgroup_lattice_against_brute_force(spec):
    G = parse_group(spec)
    L = subgroup_lattice(G)
    brute = brute_subgroups(G.factors)
    assert L.n == len(brute) == EXPECTED_SUBGROUP_COUNTS[spec]
    assert {frozenset(H.elements) for H in L.subgroups} == brute


# spec -> (count, the count from a formula: Gaussian binomials for Z_p^n,
# the gcd sum for Z_m x Z_n); brute force is too slow for these
SUBGROUP_COUNT_ORACLES = {
    "2,2,2,2,2": (374, elementary_abelian_subgroup_count(2, 5)),
    "5,5,5": (64, elementary_abelian_subgroup_count(5, 3)),
    "16,16": (83, rank_two_subgroup_count(16, 16)),
    "32,32": (177, rank_two_subgroup_count(32, 32)),
}


@pytest.mark.parametrize("spec", SUBGROUP_COUNT_ORACLES)
def test_subgroup_counts(spec):
    count, oracle = SUBGROUP_COUNT_ORACLES[spec]
    assert count == oracle == subgroup_lattice(parse_group(spec)).n


def test_join_subgroups_is_the_least_common_supergroup():
    for spec in ("2,4", "3,3", "2,2,4"):
        G = parse_group(spec)
        subs = brute_subgroups(G.factors)
        members = [Subgroup(tuple(sorted(H))) for H in subs]
        for H in members:
            for K in members:
                above = [S for S in subs if set(H.elements) | set(K.elements) <= S]
                assert set(join_subgroups(G, H, K).elements) == min(above, key=len)


@pytest.mark.parametrize("spec", EXPECTED_SUBGROUP_COUNTS)
def test_subgroup_lattice_structure(spec):
    G = parse_group(spec)
    L = subgroup_lattice(G)
    assert L.modular
    assert L.subgroups[L.bottom].order == 1
    assert L.subgroups[L.top].order == G.order
    for i in range(L.n):
        for j in range(L.n):
            assert L.leq(i, j) == subgroup_leq(L.subgroups[i], L.subgroups[j])


# -- enumeration input -------------------------------------------------------


def test_z2_cubed_input_is_a_projective_plane():
    poset, lines = enumeration_input(parse_group("2,2,2"))
    assert poset.width == 7
    assert poset.covers == ()
    assert len(lines) == 7
    assert all(len(ln) == 3 for ln in lines)
    for p in range(7):
        for q in range(p + 1, 7):
            hits = [ln for ln in lines if p in ln and q in ln]
            assert len(hits) == 1


def test_z8_input_is_a_bare_chain():
    poset, lines = enumeration_input(parse_group("8"))
    assert poset.width == 3
    assert set(poset.covers) == {(0, 1), (1, 2)}
    assert lines == []
    assert total_count(enumerate_ideals(poset, lines)) == 4


@pytest.mark.parametrize("spec", CORPUS_GROUPS)
def test_ideal_count_equals_subgroup_count(spec):
    G = parse_group(spec)
    poset, lines = enumeration_input(G)
    rows = enumerate_ideals(poset, lines)
    assert total_count(rows) == len(brute_subgroups(G.factors))


# -- set systems ---------------------------------------------------------


def test_parse_set_system_spaced_and_compact():
    sys1 = parse_set_system("1 0 1\n0 1 1\n")
    sys2 = parse_set_system("101\n011\n")
    assert sys1 == sys2
    assert sys1.universe == ("a", "b", "c")
    assert sys1.sets == (frozenset("ac"), frozenset("bc"))


@pytest.mark.parametrize("text", ["0x\n", "1 0 2\n", "10,1\n"])
def test_parse_set_system_rejects_other_characters(text):
    with pytest.raises(ValueError):
        parse_set_system(text)


def test_set_system_text_roundtrip():
    sys = parse_set_system("110\n011\n101\n")
    assert parse_set_system(set_system_to_text(sys)) == sys


def test_uncovered_elements_are_reported():
    sys = parse_set_system("100\n110\n")
    assert sys.uncovered() == ("c",)


def test_parse_rejects_bad_matrices():
    with pytest.raises(ValueError):
        parse_set_system("")
    with pytest.raises(ValueError):
        parse_set_system("10\n101\n")
    with pytest.raises(ValueError):
        SetSystem(("a",), (frozenset("ab"),))


# -- generated distributive lattices ---------------------------------------


def test_single_set_has_one_join_irreducible():
    sys = parse_set_system("11")
    assert distributive_ji(sys) == (frozenset("ab"),)


def test_disjoint_sets_give_boolean_lattices():
    sys = parse_set_system("100\n010\n001\n")
    assert len(distributive_ji(sys)) == 3
    assert is_isomorphic(distributive_lattice(sys), boolean_lattice(3))


def test_nested_sets_give_a_chain():
    sys = parse_set_system("100\n110\n111\n")
    assert is_isomorphic(distributive_lattice(sys), chain(4))


def test_uncovered_elements_change_nothing():
    small = parse_set_system("10\n11\n")
    padded = parse_set_system("100\n110\n")
    assert is_isomorphic(distributive_lattice(small), distributive_lattice(padded))


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

NINE_UNIVERSE = tuple("abcdefgh") + ("k",)


def test_nine_column_system_join_irreducibles():
    sys = parse_set_system(NINE_SETS, universe=NINE_UNIVERSE)
    jis = distributive_ji(sys)
    expected = [
        frozenset(word) for word in ["b", "df", "abe", "dfg", "dfk", "bcdf", "abdefh"]
    ]
    assert sorted(jis, key=lambda s: (len(s), sorted(s))) == expected
    closure = union_intersection_closure(sys.sets) | {frozenset()}
    assert set(jis) == family_join_irreducibles(closure)


def test_nine_column_system_generates_the_closure_lattice():
    sys = parse_set_system(NINE_SETS, universe=NINE_UNIVERSE)
    L = distributive_lattice(sys)
    closure = union_intersection_closure(sys.sets) | {frozenset()}
    assert L.n == len(closure) == 31
    canon, covers = inclusion_lattice(closure)
    oracle = build_lattice(len(canon), covers)
    assert is_isomorphic(L, oracle)
    assert set(L.member_sets) == closure
