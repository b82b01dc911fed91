"""Subgroup lattices of finite abelian groups, built without modlat.

`group_inputs(factors)` gives the subgroup lattice (names and covers,
elements ordered by subgroup order and then by sorted member tuples,
which is modlat's own order) and the enumerator's input: the
join-irreducible poset (cyclic prime-power subgroups under inclusion)
and one line per line interval, taking the lowest-numbered
join-irreducible witness of each middle element.  Subgroups are found by
closing the trivial subgroup under joins with cyclic subgroups, on
bitmasks.  Counts are checked against reference.py.
"""

from __future__ import annotations

from itertools import product

import reference


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def subgroup_data(factors):
    elems = sorted(product(*(range(f) for f in factors)))
    index = {x: i for i, x in enumerate(elems)}
    add = [
        [index[tuple((a + b) % f for a, b, f in zip(x, y, factors))] for y in elems]
        for x in elems
    ]
    cyclic = set()
    for g in range(len(elems)):
        mask, cur = 1, 0  # element 0 is the identity
        while True:
            cur = add[cur][g]
            if cur == 0:
                break
            mask |= 1 << cur
        cyclic.add(mask)
    subs = {1}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        for c in cyclic:
            if c & ~h == 0:
                continue
            hs, cs = _bits(h), _bits(c)
            joined = 0
            for x in hs:
                row = add[x]
                for y in cs:
                    joined |= 1 << row[y]
            if joined not in subs:
                subs.add(joined)
                frontier.append(joined)
    family = sorted(subs, key=lambda m: (bin(m).count("1"), _bits(m)))
    sizes = [bin(m).count("1") for m in family]
    covers = []
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            if i != j and a & ~b == 0 and reference.is_prime(sizes[j] // sizes[i]):
                covers.append((i, j))
    return family, sizes, covers


def group_inputs(factors):
    family, sizes, covers = subgroup_data(factors)
    n = len(family)
    lower = [[] for _ in range(n)]
    for a, b in covers:
        lower[b].append(a)
    rank = [len(reference.prime_factors(s)) for s in sizes]
    jis = [v for v in range(n) if len(lower[v]) == 1]
    lines = []
    n_intervals = 0
    for x in range(n):
        lows = lower[x]
        if len(lows) < 3:
            continue
        bottom = family[x]
        for a in lows:
            bottom &= family[a]
        x0 = family.index(bottom)
        if rank[x] - rank[x0] != 2:
            continue
        n_intervals += 1
        line = []
        for a in lows:
            line.append(next(
                p for p in jis
                if family[p] & ~family[a] == 0 and family[p] & ~bottom != 0
            ))
        lines.append(sorted(line))
    pos = {p: k for k, p in enumerate(jis)}
    ji_covers = [
        [pos[a], pos[b]] for a, b in covers if a in pos and b in pos
    ]
    expected = {
        "subgroups": reference.subgroup_count(factors),
        "ji": reference.cyclic_prime_power_count(factors),
        "height": reference.height(factors),
    }
    got = {"subgroups": n, "ji": len(jis), "height": rank[n - 1]}
    if got != expected:
        raise RuntimeError(f"{factors}: generated {got}, reference {expected}")
    return {
        **got,
        "line_intervals": n_intervals,
        "lattice_covers": covers,
        "poset_covers": ji_covers,
        "lines": [[pos[p] for p in line] for line in lines],
    }

