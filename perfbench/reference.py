"""Answers the benchmark checks the program against.

Nothing here imports modlat.  Subgroup counts of elementary abelian
groups come from Gaussian binomials; the other groups' counts were
computed once by exhaustive subgroup search and are stored in
SUBGROUP_COUNTS.  Everything else is computed from the group or the set
system directly.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod


def group_name(factors):
    return "x".join(f"Z{f}" for f in factors)


def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n):
    return len(prime_factors(n)) == 1


def _prime_power(n):
    """The prime p when n = p^a with a >= 1, else None."""
    primes = set(prime_factors(n))
    return primes.pop() if len(primes) == 1 else None


def gaussian_binomial(k, i, q):
    num = prod(q ** (k - t) - 1 for t in range(i))
    den = prod(q ** (t + 1) - 1 for t in range(i))
    return num // den


def elementary_subgroup_count(p, k):
    """Subgroups of Z_p^k: the subspaces of GF(p)^k."""
    return sum(gaussian_binomial(k, i, p) for i in range(k + 1))


# Counts for the groups that are not elementary abelian, from the
# exhaustive search `brute_subgroups` in tests/oracles.py (closure of
# every generating set), which is too slow to run on every pass.
SUBGROUP_COUNTS = {
    (2, 2, 4): 27,
    (2, 4, 4): 54,
    (2, 4, 8): 81,
    (4, 4, 4): 129,
    (4, 8): 22,
    (8, 8): 37,
}


def subgroup_count(factors):
    factors = tuple(sorted(factors))
    if len(set(factors)) == 1 and is_prime(factors[0]):
        return elementary_subgroup_count(factors[0], len(factors))
    return SUBGROUP_COUNTS[factors]


def height(factors):
    """Length of a maximal subgroup chain: the prime factors of |G|
    counted with multiplicity."""
    return sum(len(prime_factors(f)) for f in factors)


def _element_order(x, factors):
    order = 1
    for a, f in zip(x, factors):
        o = f // gcd(a, f)
        order = order * o // gcd(order, o)
    return order


def _euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def cyclic_prime_power_count(factors):
    """Nontrivial cyclic subgroups of prime-power order: the
    join-irreducibles of the subgroup lattice.  Each cyclic subgroup of
    order d has phi(d) generators."""
    by_order = {}
    for x in product(*(range(f) for f in factors)):
        d = _element_order(x, factors)
        by_order[d] = by_order.get(d, 0) + 1
    return sum(
        count // _euler_phi(d)
        for d, count in by_order.items()
        if d > 1 and _prime_power(d)
    )


def closure_size(rows):
    """Members of the family the rows of a 0/1 matrix generate under
    union and intersection, plus the empty set."""
    fam = {sum(bit << k for k, bit in enumerate(row)) for row in rows}
    fam.add(0)
    frontier = list(fam)
    while frontier:
        a = frontier.pop()
        for b in list(fam):
            for c in (a | b, a & b):
                if c not in fam:
                    fam.add(c)
                    frontier.append(c)
    return len(fam)
