from __future__ import annotations

import random

import pytest

from modlat.algebra import (
    Group,
    SetSystem,
    _Numbered,
    distributive_ji,
    distributive_lattice,
    enumeration_input,
    join_subgroups,
    parse_group,
    parse_set_system,
    subgroup_lattice,
)
from modlat.bol import line_intervals
from modlat.corpus import CORPUS_GROUPS, boolean_lattice, chain
from modlat.lattice import CapExceeded, bits, build_lattice, is_isomorphic, ji_elements
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
#
# A subgroup is the int mask of the ids of its elements, an id being the
# element's place in `G.elements`.


def _elements(G, mask):
    return {G.elements[i] for i in bits(mask)}


def _mask(G, elements):
    index = {e: i for i, e in enumerate(G.elements)}
    return sum(1 << index[e] for e in elements)


def _cyclic(G, x):
    """The mask of the cyclic subgroup <x> of the element x."""
    return _Numbered(G).join_cyclic(1, G.elements.index(x))


def _ji_masks(G):
    L = subgroup_lattice(G)
    return [L.subgroups[e] for e in ji_elements(L)]


def test_cyclic_subgroups_of_z4xz4():
    G = parse_group("4,4")
    assert _cyclic(G, (0, 0)) == 1  # the trivial subgroup holds only id 0
    H = _cyclic(G, (1, 3))
    assert _elements(G, H) == {(0, 0), (1, 3), (2, 2), (3, 1)}
    assert _cyclic(G, (2, 2)).bit_count() == 2


def test_join_with_trivial_is_identity():
    G = parse_group("4,4")
    H = _cyclic(G, (1, 3))
    assert join_subgroups(G, H, 1) == H
    assert join_subgroups(G, 1, H) == H


def test_join_of_two_involutions_is_klein():
    G = parse_group("4,4")
    J = join_subgroups(G, _cyclic(G, (0, 2)), _cyclic(G, (2, 0)))
    assert _elements(G, J) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_join_can_reach_the_whole_group():
    G = parse_group("4,4")
    J = join_subgroups(G, _cyclic(G, (1, 0)), _cyclic(G, (0, 1)))
    assert J.bit_count() == 16


def test_join_irreducible_subgroup_counts():
    assert len(_ji_masks(parse_group("2,2,2"))) == 7
    jis = _ji_masks(parse_group("4,4"))
    assert len(jis) == 9
    assert sorted(H.bit_count() for H in jis) == [2, 2, 2, 4, 4, 4, 4, 4, 4]
    assert len(_ji_masks(parse_group("6"))) == 2


def test_whole_group_can_be_join_reducible():
    jis = _ji_masks(parse_group("6"))
    assert all(H.bit_count() < 6 for H in jis)


def _cyclic_prime_power_subgroups(G):
    """The nontrivial cyclic subgroups of prime-power order, as element
    sets, found by adding each element to itself."""
    out = set()
    for x in G.elements:
        seen, cur = {G.zero}, x
        while cur not in seen:
            seen.add(cur)
            cur = G.add(cur, x)
        divisors = [d for d in range(2, len(seen) + 1) if len(seen) % d == 0]
        # a prime power: every divisor past 1 is a multiple of the least
        if divisors and all(d % divisors[0] == 0 for d in divisors):
            out.add(frozenset(seen))
    return out


@pytest.mark.parametrize("spec", CORPUS_GROUPS)
def test_join_irreducible_subgroups_match_lattice(spec):
    # the join-irreducibles are exactly the cyclic subgroups of prime-power order
    G = parse_group(spec)
    lattice_jis = {frozenset(_elements(G, H)) for H in _ji_masks(G)}
    assert lattice_jis == _cyclic_prime_power_subgroups(G)


# -- element masks -----------------------------------------------------------


def _check_translate(G, pairs, rng):
    """`translate` moves one id as `G.add` does, and a random mask (for
    the first 30 x) id by id."""
    num, index = _Numbered(G), {e: i for i, e in enumerate(G.elements)}
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
def test_join_cyclic_matches_brute_force_on_every_pair(spec):
    # H + <x> is the least subgroup, by brute force, holding H and x
    G = parse_group(spec)
    num = _Numbered(G)
    subs = brute_subgroups(G.factors)
    for H in subs:
        for x, e in enumerate(G.elements):
            want = min((S for S in subs if H <= S and e in S), key=len)
            assert _elements(G, num.join_cyclic(_mask(G, H), x)) == want


# -- subgroup lattices -------------------------------------------------------


@pytest.mark.parametrize("spec", EXPECTED_SUBGROUP_COUNTS)
def test_subgroup_lattice_against_brute_force(spec):
    G = parse_group(spec)
    L = subgroup_lattice(G)
    brute = brute_subgroups(G.factors)
    assert L.n == len(brute) == EXPECTED_SUBGROUP_COUNTS[spec]
    assert {frozenset(_elements(G, H)) for H in L.subgroups} == brute


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
        for H in subs:
            for K in subs:
                above = [S for S in subs if H | K <= S]
                got = join_subgroups(G, _mask(G, H), _mask(G, K))
                assert _elements(G, got) == min(above, key=len)


@pytest.mark.parametrize("spec", EXPECTED_SUBGROUP_COUNTS)
def test_subgroup_lattice_structure(spec):
    G = parse_group(spec)
    L = subgroup_lattice(G)
    assert L.modular
    assert L.subgroups[L.bottom] == 1
    assert L.subgroups[L.top] == (1 << G.order) - 1
    for i in range(L.n):
        for j in range(L.n):
            assert L.leq(i, j) == (L.subgroups[i] & ~L.subgroups[j] == 0)
    # the elements come by subgroup order, then by the sorted element list
    keys = [(H.bit_count(), sorted(_elements(G, H))) for H in L.subgroups]
    assert keys == sorted(keys)


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


@pytest.mark.parametrize("spec", CORPUS_GROUPS + ("4,16", "2,32", "16,16", "25,25"))
def test_enumeration_input_takes_the_canonical_lines(spec):
    # each point of a line is the least join-irreducible under its middle
    # element but not under the interval's bottom, one line per interval
    L = subgroup_lattice(parse_group(spec))
    poset, lines = enumeration_input(parse_group(spec))
    points = sorted(ji_elements(L))
    assert poset.labels == tuple(L.name(p) for p in points)
    tops = set()
    for line in lines:
        ids = [points[i] for i in line]
        top = L.join(ids[0], ids[1])
        bottom = L.meet_all(L.lower_covers(top))
        for p in ids:
            middle = L.join(p, bottom)
            assert middle in L.lower_covers(top)
            witnesses = L.down[middle] & ~L.down[bottom] & L.ji_mask
            assert p == (witnesses & -witnesses).bit_length() - 1
        tops.add(top)
    assert len(tops) == len(lines) == len(line_intervals(L))


# -- set systems ---------------------------------------------------------


def test_parse_set_system_spaced_and_compact():
    sys1 = parse_set_system("1 0 1\n0 1 1\n")
    sys2 = parse_set_system("101\n011\n")
    assert (sys1.universe, sys1.sets) == (sys2.universe, sys2.sets)
    assert sys1.universe == ("a", "b", "c")
    assert sys1.sets == (frozenset("ac"), frozenset("bc"))


@pytest.mark.parametrize("text", ["0x\n", "1 0 2\n", "10,1\n"])
def test_parse_set_system_rejects_other_characters(text):
    with pytest.raises(ValueError):
        parse_set_system(text)


def test_set_system_text_roundtrip():
    sys = parse_set_system("110\n011\n101\n")
    back = parse_set_system(set_system_to_text(sys))
    assert (back.universe, back.sets) == (sys.universe, sys.sets)


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


def _nine_column_system():
    # the parsed columns renamed a-h and k, the labels the expected sets use
    parsed = parse_set_system(NINE_SETS)
    rename = dict(zip(parsed.universe, NINE_UNIVERSE))
    return SetSystem(NINE_UNIVERSE, [{rename[v] for v in s} for s in parsed.sets])


def test_nine_column_system_join_irreducibles():
    sys = _nine_column_system()
    jis = distributive_ji(sys)
    expected = [
        frozenset(word) for word in ["b", "df", "abe", "dfg", "dfk", "bcdf", "abdefh"]
    ]
    assert sorted(jis, key=lambda s: (len(s), sorted(s))) == expected
    closure = union_intersection_closure(sys.sets) | {frozenset()}
    assert set(jis) == family_join_irreducibles(closure)


def test_nine_column_system_generates_the_closure_lattice():
    sys = parse_set_system(NINE_SETS)
    L = distributive_lattice(sys)
    closure = union_intersection_closure(sys.sets) | {frozenset()}
    assert L.n == len(closure) == 31
    canon, covers = inclusion_lattice(closure)
    oracle = build_lattice(len(canon), covers)
    assert is_isomorphic(L, oracle)
    assert set(L.member_sets) == closure
