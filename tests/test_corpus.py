from __future__ import annotations

import random

import pytest

from modlat.corpus import (
    CORPUS_GROUPS,
    boolean_lattice,
    chain,
    fano_pls,
    m_n,
    random_distributive,
    random_poset,
    seven_point_lattice,
    standard_corpus,
)
from modlat.lattice import is_isomorphic
from modlat.pls import components
from modlat.rebuild import ideals_lattice
from modlat.wildcard import GroundPoset

from oracles import brute_closed_ideals


def test_standard_corpus_composition():
    corpus = standard_corpus()
    assert len(corpus) == 33
    names = [name for name, _ in corpus]
    assert names[:7] == [
        "m3", "m4", "boolean3", "chain1", "chain2", "chain5", "seven-point",
    ]
    assert [n for n in names if n.startswith("L(")] == [
        f"L({spec})" for spec in CORPUS_GROUPS
    ]
    assert sum(1 for n in names if n.startswith("distributive-")) == 20
    for _, L in corpus:
        assert L.modular


def test_random_distributive_is_deterministic():
    a, b = random_distributive(7), random_distributive(7)
    assert a.n == b.n and a.covers == b.covers
    sizes = {random_distributive(seed).n for seed in range(10)}
    assert len(sizes) > 1


def test_m_n_shapes():
    L = m_n(5)
    assert L.n == 7
    assert len(L.atoms) == len(L.coatoms) == 5
    assert L.height == 2
    with pytest.raises(ValueError):
        m_n(0)


def test_chain_and_boolean_shapes():
    assert chain(4).height == 3
    assert chain(1).n == 1
    B = boolean_lattice(4)
    assert B.n == 16 and B.height == 4 and len(B.atoms) == 4


def test_fano_shape():
    P = fano_pls()
    assert len(P.points) == 7 and len(P.lines) == 7
    assert len(components(P)) == 1
    for p in P.points:
        assert sum(1 for ln in P.lines if p in ln) == 3


def test_seven_point_lattice_is_modular():
    L = seven_point_lattice()
    assert L.n == 13
    assert L.modular
    assert not is_isomorphic(L, boolean_lattice(3))


HAND_MADE_POSETS = [
    GroundPoset(1, ()),
    GroundPoset(3, ()),  # antichain
    GroundPoset(4, ((0, 1), (1, 2), (2, 3))),  # chain
    GroundPoset(3, ((0, 2), (1, 2))),  # two points below one
    GroundPoset(4, ((0, 1), (0, 2), (1, 3), (2, 3))),  # diamond
    GroundPoset(4, ((0, 2), (1, 2), (1, 3))),  # N
    GroundPoset(6, ((0, 2), (1, 2), (3, 5), (4, 5))),  # two disjoint Λs
]


@pytest.mark.parametrize(
    "poset", [random_poset(random.Random(seed)) for seed in range(20)] + HAND_MADE_POSETS
)
def test_downset_lattice_members_are_the_brute_force_down_sets(poset):
    expected = {
        frozenset(k for k, bit in enumerate(bs) if bit)
        for bs in brute_closed_ideals(poset, [])
    }
    members = ideals_lattice(poset, []).member_sets
    assert len(members) == len(expected) and set(members) == expected
