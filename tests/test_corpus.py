from __future__ import annotations

import pytest

from modlat.corpus import (
    CORPUS_GROUPS,
    boolean_lattice,
    chain,
    fano_pls,
    m_n,
    random_distributive,
    seven_point_lattice,
    standard_corpus,
)
from modlat.lattice import is_isomorphic
from modlat.pls import components


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
