from __future__ import annotations

import itertools
import json
import random

import pytest

from modlat.corpus import boolean_lattice, chain, m_n, seven_point_lattice, standard_corpus
from modlat.algebra import (
    distributive_lattice,
    parse_group,
    parse_set_system,
    subgroup_lattice,
)
from modlat.wildcard import GroundPoset
from modlat.lattice import (
    LATTICE_CAP,
    CapExceeded,
    CycleInCovers,
    NotALattice,
    NotModular,
    NotTransitivelyReduced,
    build_lattice,
    covers_from_below,
    is_isomorphic,
    ji_elements,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    lower_star,
    projectivity_classes,
    require_modular,
    up_transposes,
)

from oracles import (
    identity_modular,
    ji_below,
    ji_between,
    least_upper_bound,
    order_relation,
    projectivity_partition,
    random_intersection_closed,
    random_poset_covers,
    transposes_up,
)


def pentagon():
    # bottom, a < b on one side, c on the other, top
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
    )


def small_corpus():
    return [
        m_n(3),
        m_n(4),
        boolean_lattice(3),
        chain(5),
        seven_point_lattice(),
        subgroup_lattice(parse_group("2,2,2")),
        subgroup_lattice(parse_group("4,4")),
    ]


# -- construction --------------------------------------------------------


def test_single_element_lattice():
    L = build_lattice(["e"], [])
    assert L.n == 1
    assert L.bottom == L.top == 0
    assert L.height == 0


def test_m3_shape():
    L = m_n(3)
    assert L.n == 5
    assert L.rank[L.top] == 2
    assert sorted(L.atoms) == sorted(L.coatoms)
    assert len(L.atoms) == 3


def test_bowtie_is_not_a_lattice():
    # two bottoms-ish structure: atoms a, b with two incomparable upper
    # bounds c, d; meet of c and d does not exist uniquely
    with pytest.raises(NotALattice):
        build_lattice(
            ["0", "a", "b", "c", "d", "1"],
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
        )


def test_cyclic_covers_rejected():
    with pytest.raises(CycleInCovers):
        build_lattice(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])


def test_transitive_reduction_enforced():
    with pytest.raises(NotTransitivelyReduced):
        build_lattice(["0", "a", "1"], [(0, 1), (1, 2), (0, 2)])


def test_covers_from_below_inverts_strict_down():
    rng = random.Random(11)
    for width in range(1, 9):
        for _ in range(30):
            covers = random_poset_covers(rng, width)
            poset = GroundPoset(width, tuple(covers))
            assert covers_from_below(poset.strict_down) == covers


def test_lattice_size_is_capped_before_the_tables():
    assert chain(LATTICE_CAP).n == LATTICE_CAP
    with pytest.raises(CapExceeded):
        chain(LATTICE_CAP + 1)


# -- join/meet ------------------------------------------------------------


def _bounded(rng, width):
    """A random poset on 0..width-1, maybe with a bottom and a top adjoined,
    so that some of the results are lattices; returns (n, covers)."""
    covers = random_poset_covers(rng, width)
    n = width
    if rng.random() < 0.8:
        lows = {b for _, b in covers}
        covers += [(n, m) for m in range(width) if m not in lows]
        n += 1
    if rng.random() < 0.8:
        highs = {a for a, _ in covers}
        covers += [(m, n) for m in range(n) if m not in highs]
        n += 1
    return n, covers


def _agrees_with_brute_force(n, covers):
    """Build (n, covers) and compare with a search for least bounds: a
    poset missing one must raise NotALattice naming the first pair (x, y),
    y >= x, in row order; a lattice must carry the searched joins and
    meets.  Returns whether (n, covers) is a lattice."""
    leq = order_relation(n, covers)
    geq = [[leq[b][a] for b in range(n)] for a in range(n)]
    joins = [[least_upper_bound(leq, x, y) for y in range(n)] for x in range(n)]
    meets = [[least_upper_bound(geq, x, y) for y in range(n)] for x in range(n)]
    missing = [
        (x, y, "upper" if joins[x][y] is None else "lower")
        for x in range(n)
        for y in range(x, n)
        if joins[x][y] is None or meets[x][y] is None
    ]
    if missing:
        x, y, side = missing[0]
        with pytest.raises(NotALattice, match=f"^elements {x},{y} have no least {side} bound$"):
            build_lattice(n, covers)
        return False
    L = build_lattice(n, covers)
    assert [[L.join(x, y) for y in range(n)] for x in range(n)] == joins
    assert [[L.meet(x, y) for y in range(n)] for x in range(n)] == meets
    return True


def test_join_meet_against_brute_force_on_random_posets():
    rng = random.Random(4)
    seen = {True: 0, False: 0}
    for _ in range(400):
        seen[_agrees_with_brute_force(*_bounded(rng, rng.randint(1, 7)))] += 1
    assert min(seen.values()) >= 50, seen


def _random_posets_up_to_12(count=600):
    """Seeded random posets of up to 12 elements, some of them without a
    least element, as (n, covers)."""
    rng = random.Random(12)
    return [_bounded(rng, rng.randint(1, 10)) for _ in range(count)]


def test_cover_pair_check_against_brute_force_up_to_12_elements():
    seen = {True: 0, False: 0}
    no_bottom = 0
    for n, covers in _random_posets_up_to_12():
        seen[_agrees_with_brute_force(n, covers)] += 1
        leq = order_relation(n, covers)
        no_bottom += not any(all(row) for row in leq)
    assert min(seen.values()) >= 150 and no_bottom >= 50, (seen, no_bottom)


def test_a_missing_join_above_the_atoms_is_found():
    # the atoms 1, 2 join to 3, but the upper covers 4, 5 of 3 have the
    # two minimal upper bounds 6 and 7, so only a check above the atoms
    # sees that this is no lattice
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5),
              (4, 6), (4, 7), (5, 6), (5, 7), (6, 8), (7, 8)]
    assert not _agrees_with_brute_force(9, covers)
    with pytest.raises(NotALattice, match="^elements 4,5 have no least upper bound$"):
        build_lattice(9, covers)


def test_m3_joins_and_meets():
    L = m_n(3)
    a1, a2, a3 = L.atoms
    assert L.join(a1, a2) == L.top
    assert L.meet(a1, a2) == L.bottom
    assert L.join(a1, a1) == a1
    assert L.meet(a1, a1) == a1


@pytest.mark.parametrize("L", small_corpus(), ids=lambda L: f"n{L.n}")
def test_join_meet_against_bound_search(L):
    for x in range(L.n):
        for y in range(L.n):
            uppers = [z for z in range(L.n) if L.leq(x, z) and L.leq(y, z)]
            least = [z for z in uppers if all(L.leq(z, w) for w in uppers)]
            assert L.join(x, y) == least[0]
            lowers = [z for z in range(L.n) if L.leq(z, x) and L.leq(z, y)]
            greatest = [z for z in lowers if all(L.leq(w, z) for w in lowers)]
            assert L.meet(x, y) == greatest[0]


@pytest.mark.parametrize("L", small_corpus(), ids=lambda L: f"n{L.n}")
def test_lattice_axioms(L):
    pairs = list(itertools.product(range(L.n), repeat=2))
    for x, y in pairs:
        assert L.join(x, y) == L.join(y, x)
        assert L.meet(x, y) == L.meet(y, x)
        assert L.join(x, L.meet(x, y)) == x
        assert L.meet(x, L.join(x, y)) == x
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (rng.randrange(L.n) for _ in range(3))
        assert L.join(x, L.join(y, z)) == L.join(L.join(x, y), z)
        assert L.meet(x, L.meet(y, z)) == L.meet(L.meet(x, y), z)


# -- modularity and rank ---------------------------------------------------


def test_modularity_verdicts():
    assert m_n(3).modular
    assert not pentagon().modular
    with pytest.raises(NotModular):
        require_modular(pentagon())
    for g in ("2,2,2", "4,4", "2,4"):
        assert subgroup_lattice(parse_group(g)).modular


def test_semimodularity_test_matches_the_modular_law():
    lattices = [pentagon(), m_n(3)] + [L for _, L in standard_corpus()]
    rng = random.Random(11)
    for _ in range(2000):
        lattices.append(build_lattice(*random_intersection_closed(rng, rng.randint(3, 5))))
    verdicts = [L.modular for L in lattices]
    assert 500 < verdicts.count(False) < 1500  # both kinds are well represented
    for L, verdict in zip(lattices, verdicts):
        assert verdict == identity_modular(L), L.covers


@pytest.mark.parametrize("L", small_corpus(), ids=lambda L: f"n{L.n}")
def test_modular_rank_identity(L):
    # delta(x) + delta(y) = delta(x+y) + delta(xy), and covers raise rank by 1
    for x, y in itertools.product(range(L.n), repeat=2):
        assert L.rank[x] + L.rank[y] == L.rank[L.join(x, y)] + L.rank[L.meet(x, y)]
    for a, b in L.covers:
        assert L.rank[b] == L.rank[a] + 1


def test_rank_is_longest_path_even_when_not_modular():
    N5 = pentagon()
    assert N5.rank[N5.top] == 3  # through the 2-chain side
    assert N5.height == 3


def _greatest_lower_bound(leq, xs):
    n = len(leq)
    lowers = [z for z in range(n) if all(leq[z][x] for x in xs)]
    return next(z for z in lowers if all(leq[w][z] for w in lowers))


def test_modular_and_meet_all_match_brute_force():
    lattices = [pentagon(), m_n(3)] + [L for _, L in standard_corpus()]
    for n, covers in _random_posets_up_to_12():
        try:
            lattices.append(build_lattice(n, covers))
        except NotALattice:
            pass
    rng = random.Random(5)
    verdicts = [L.modular for L in lattices]
    assert True in verdicts and False in verdicts
    for L, verdict in zip(lattices, verdicts):
        assert verdict == identity_modular(L), L.covers
        leq = order_relation(L.n, L.covers)
        for size in (0, 1, 2, 3, 4):
            xs = [rng.randrange(L.n) for _ in range(size)]
            assert L.meet_all(xs) == _greatest_lower_bound(leq, xs), (L.covers, xs)
        for x in range(L.n):
            lows = L.lower_covers(x)
            assert L.meet_all(lows) == _greatest_lower_bound(leq, lows)


def _cones(n, pairs):
    """Per element, the frozenset of the elements at or above it under the
    (lower, upper) pairs, by recursion over the pairs."""
    above = [[] for _ in range(n)]
    for a, b in pairs:
        above[a].append(b)
    cones = [None] * n

    def cone(x):
        if cones[x] is None:
            cones[x] = frozenset({x}).union(*map(cone, above[x]))
        return cones[x]

    return [cone(x) for x in range(n)]


def _least_bound(cones, x, y):
    # the common bound whose cone is every common bound, or None
    common = cones[x] & cones[y]
    best = max(common, key=lambda z: len(cones[z]))
    return best if cones[best] == common else None


def test_table_free_paths_build_no_join_or_meet_table():
    rng = random.Random(9)  # a 6 x 12 matrix of density 0.4, as in the benchmark
    text = "\n".join(
        "".join("1" if rng.random() < 0.4 else "0" for _ in range(12)) for _ in range(6)
    )
    lattices = [
        subgroup_lattice(parse_group("2,2,2,2,2")),
        distributive_lattice(parse_set_system(text)),
    ]
    assert [L.n for L in lattices] == [374, 184] and lattices[0].modular
    for L in lattices:
        ups = _cones(L.n, L.covers)
        downs = _cones(L.n, [(b, a) for a, b in L.covers])
        for x in range(L.n):
            for y in range(x, L.n):
                assert L.join(x, y) == _least_bound(ups, x, y), (x, y)
                assert L.meet(x, y) == _least_bound(downs, x, y), (x, y)
        assert not {"_join", "_meet"} & set(vars(L))
        assert not hasattr(L, "_join") and not hasattr(L, "_meet")


# -- mask queries against the reachability closure -------------------------


def _decode(mask, n):
    return {k for k in range(n) if mask >> k & 1}


def test_mask_queries_match_the_reachability_closure():
    lattices = [pentagon()] + [L for _, L in standard_corpus()]
    rng = random.Random(4)  # the random posets of the join/meet test above
    for _ in range(400):
        try:
            lattices.append(build_lattice(*_bounded(rng, rng.randint(1, 7))))
        except NotALattice:
            pass
    for L in lattices:
        n = L.n
        leq = order_relation(n, L.covers)
        geq = [[leq[b][a] for b in range(n)] for a in range(n)]
        assert [[L.leq(x, y) for y in range(n)] for x in range(n)] == leq
        assert type(L.leq(L.bottom, L.top)) is bool
        assert all(leq[L.bottom][y] and leq[y][L.top] for y in range(n))
        jis = [v for v in range(n) if [b for _, b in L.covers].count(v) == 1]
        for a in range(n):
            assert ji_below(L, a) == tuple(p for p in jis if leq[p][a])
            for b in range(n):
                assert ji_between(L, a, b) == tuple(p for p in jis if leq[p][b] and not leq[p][a])
        for a, b in L.covers:
            want = []
            for c in range(n):
                d = least_upper_bound(leq, b, c)
                if leq[a][c] and least_upper_bound(geq, b, c) == a and (c, d) in L.covers:
                    want.append((c, d))
            assert up_transposes(L, (a, b)) == want


def test_ground_poset_masks_match_the_reachability_closure():
    rng = random.Random(11)
    for width in range(1, 9):
        for _ in range(30):
            covers = random_poset_covers(rng, width)
            poset = GroundPoset(width, tuple(covers))
            leq = order_relation(width, covers)
            for p in range(width):
                others = set(range(width)) - {p}
                assert _decode(poset.strict_up[p], width) == {q for q in others if leq[p][q]}
                assert _decode(poset.strict_down[p], width) == {q for q in others if leq[q][p]}


# -- join-irreducibles -----------------------------------------------------


def test_chain_join_irreducibles():
    L = chain(4)  # 4 elements, length 3
    assert ji_elements(L) == (1, 2, 3)
    for p in ji_elements(L):
        assert lower_star(L, p) == p - 1


def test_m3_join_irreducibles_are_the_atoms():
    L = m_n(3)
    assert sorted(ji_elements(L)) == sorted(L.atoms)


def test_z2_cubed_has_seven_ji_atoms():
    L = subgroup_lattice(parse_group("2,2,2"))
    jis = ji_elements(L)
    assert len(jis) == 7
    assert sorted(jis) == sorted(L.atoms)


@pytest.mark.parametrize("L", small_corpus(), ids=lambda L: f"n{L.n}")
def test_ji_filters(L):
    jis = set(ji_elements(L))
    for j in jis:
        assert len(L.lower_covers(j)) == 1
    for x in range(L.n):
        if x not in jis:
            assert len(L.lower_covers(x)) != 1
        assert set(ji_below(L, x)) == {p for p in jis if L.leq(p, x)}
    for a, b in L.covers:
        assert set(ji_between(L, a, b)) == {
            p for p in jis if L.leq(p, b) and not L.leq(p, a)
        }


def test_ji_join_reaches_every_element():
    for L in small_corpus():
        for x in range(L.n):
            below = ji_below(L, x)
            acc = L.bottom
            for p in below:
                acc = L.join(acc, p)
            assert acc == x


# -- transpositions and projectivity ---------------------------------------


def test_transposes_up_examples():
    L = m_n(3)
    a1, a2, _ = L.atoms
    assert transposes_up(L, (L.bottom, a1), (a2, L.top))
    assert transposes_up(L, (a1, a1), (a1, a1))
    C = chain(4)
    assert not transposes_up(C, (0, 1), (1, 2))


def test_projectivity_class_counts():
    assert len(projectivity_classes(boolean_lattice(3))) == 3
    assert len(projectivity_classes(m_n(3))) == 1
    assert len(projectivity_classes(subgroup_lattice(parse_group("2,2,2")))) == 1


@pytest.mark.parametrize("L", small_corpus(), ids=lambda L: f"n{L.n}")
def test_projectivity_classes_partition_prime_quotients(L):
    classes = projectivity_classes(L)
    quots = {q for cls in classes for q in cls}
    assert quots == set(L.covers)
    assert sum(len(cls) for cls in classes) == len(quots)
    # one transposition step never crosses classes
    index = {}
    for k, cls in enumerate(classes):
        for q in cls:
            index[q] = k
    for q1 in L.covers:
        for q2 in L.covers:
            if transposes_up(L, q1, q2) or transposes_up(L, q2, q1):
                assert index[q1] == index[q2]


def test_projectivity_classes_match_the_all_pairs_reference():
    lattices = [pentagon()] + [L for _, L in standard_corpus()]
    rng = random.Random(4)  # the random posets of the join/meet test above
    for _ in range(400):
        try:
            lattices.append(build_lattice(*_bounded(rng, rng.randint(1, 7))))
        except NotALattice:
            pass
    assert not all(L.modular for L in lattices)
    for L in lattices:
        assert projectivity_classes(L) == projectivity_partition(L)
        for q in L.covers:
            assert up_transposes(L, q) == [c for c in L.covers if transposes_up(L, q, c)]


# -- isomorphism ------------------------------------------------------------


def test_isomorphism_basics():
    L = m_n(3)
    assert is_isomorphic(L, L)
    assert not is_isomorphic(L, chain(4))
    assert not is_isomorphic(m_n(3), m_n(4))


def test_isomorphism_under_relabeling():
    L = seven_point_lattice()
    rng = random.Random(3)
    perm = list(range(L.n))
    rng.shuffle(perm)
    shuffled = build_lattice(
        [f"x{k}" for k in range(L.n)],
        sorted((perm[a], perm[b]) for a, b in L.covers),
    )
    assert is_isomorphic(L, shuffled)


# -- serialization -----------------------------------------------------------


def test_lattice_json_roundtrip():
    L = seven_point_lattice()
    d = lattice_to_json(L)
    M = lattice_from_json(json.loads(json.dumps(d)))
    assert M.n == L.n
    assert sorted(M.covers) == sorted(L.covers)
    assert M.names == L.names


def test_lattice_json_rejects_an_element_on_no_cover():
    # without names the size is the largest index plus one; a stray index
    # must be rejected before anything of that size is built
    with pytest.raises(NotALattice, match="element 1 lies on no cover"):
        lattice_from_json({"covers": [[0, 10**12]]})


def test_dot_export_mentions_every_element():
    L = m_n(3)
    dot = lattice_to_dot(L)
    assert dot.startswith("digraph")
    for name in L.names:
        assert name in dot
    assert dot.count("->") == len(L.covers)
