"""Stock lattices, posets and point-line structures for the test battery.

Everything here is deterministic: the random distributive lattices are
seeded, so the whole corpus can serve as a reproducible regression bed
for the verdict suite.
"""

from __future__ import annotations

import random

from .algebra import parse_group, subgroup_lattice
from .lattice import build_lattice, covers_from_below
from .pls import validate_pls
from .rebuild import ideals_lattice
from .wildcard import GroundPoset


def m_n(n):
    """Height-two lattice with n middle elements."""
    if n < 1:
        raise ValueError("need at least one middle element")
    covers = [(0, k) for k in range(1, n + 1)] + [(k, n + 1) for k in range(1, n + 1)]
    names = ["0"] + [f"m{k}" for k in range(1, n + 1)] + ["1"]
    return build_lattice(n + 2, covers, names=names)


def boolean_lattice(k):
    """Lattice of all subsets of a k-element set."""
    covers = [
        (x, x | 1 << b) for x in range(1 << k) for b in range(k) if not x & 1 << b
    ]
    names = [format(x, f"0{k}b")[::-1] if k else "e" for x in range(1 << k)]
    return build_lattice(1 << k, covers, names=names)


def chain(n):
    """Total order on n elements."""
    return build_lattice(n, [(k, k + 1) for k in range(n - 1)])


def fano_pls():
    """The seven-point plane: every pair of points on exactly one line."""
    lines = [
        (1, 2, 4),
        (2, 3, 5),
        (3, 4, 6),
        (4, 5, 7),
        (5, 6, 1),
        (6, 7, 2),
        (7, 1, 3),
    ]
    return validate_pls(range(1, 8), [frozenset(l) for l in lines])


# -- the seven-point running fixture ------------------------------------
#
# Points p1..p7 with p1 < p4, p2 < p5, p2 < p6, p3 < p7 and three lines;
# its closure system has 13 members and reconstructs a 13-element
# modular lattice with three line intervals.

def seven_point_poset():
    return GroundPoset(
        7,
        ((0, 3), (1, 4), (1, 5), (2, 6)),
        labels=tuple(f"p{k}" for k in range(1, 8)),
    )


def seven_point_lines():
    return ((0, 1, 2), (0, 4, 5), (3, 5, 6))


def seven_point_lattice():
    return ideals_lattice(seven_point_poset(), seven_point_lines())


# -- subgroup lattices ---------------------------------------------------

CORPUS_GROUPS = ("2,2,2", "4,4", "2,4", "8", "3,3", "2,2,4")


def subgroup_corpus():
    """The stock abelian groups together with their subgroup lattices."""
    return [(f"L({spec})", subgroup_lattice(parse_group(spec))) for spec in CORPUS_GROUPS]


# -- random distributive lattices ----------------------------------------

def random_poset(rng):
    """Random poset given by its cover relation, at most 8 points."""
    n = rng.randint(1, 8)
    below = [0] * n
    for b in range(n):
        for a in range(b):
            if rng.random() < 0.3:
                below[b] |= 1 << a | below[a]
    return GroundPoset(n, covers_from_below(below))


def random_distributive(seed):
    """The distributive lattice of all down-closed point sets of a random poset."""
    return ideals_lattice(random_poset(random.Random(seed)), [])


DISTRIBUTIVE_COUNT = 20  # random distributive lattices in the corpus, seeds 0 to 19


def standard_corpus():
    """Named lattices the verification suite runs over."""
    out = [
        ("m3", m_n(3)),
        ("m4", m_n(4)),
        ("boolean3", boolean_lattice(3)),
        ("chain1", chain(1)),
        ("chain2", chain(2)),
        ("chain5", chain(5)),
        ("seven-point", seven_point_lattice()),
    ]
    out.extend(subgroup_corpus())
    out.extend(
        (f"distributive-{seed}", random_distributive(seed))
        for seed in range(DISTRIBUTIVE_COUNT)
    )
    return out
