"""Self-contained reimplementations the tests use as a second route.

Deliberately naive and written without looking at the package internals:
a dynamic-programming membership table, a pairwise closure scan, a filter
over all subsets of PF(S) and a product scan over Kunz coordinates.
"""
from itertools import combinations, product


def naive_members(gens, upto):
    """Members of the semigroup generated by gens, up to and including upto."""
    member = [False] * (upto + 1)
    member[0] = True
    for x in range(1, upto + 1):
        member[x] = any(g <= x and member[x - g] for g in gens)
    return {x for x, ok in enumerate(member) if ok}


def closure_witness(members, bound):
    """A pair (a, b) with a+b ≤ bound missing from members, else None.

    ``members`` describes the set together with every integer > bound.
    """
    nonzero = sorted(m for m in members if 0 < m <= bound)
    for i, a in enumerate(nonzero):
        for b in nonzero[i:]:
            if a + b > bound:
                break
            if a + b not in members:
                return (a, b)
    return None


def naive_pertinent_sets(pf):
    """Every subset A of ``pf`` closed under sums that land in ``pf``.

    All 2^t subsets are tried, by size and then lexicographically, each
    with a pairwise test (a pair may repeat a member).
    """
    pf = sorted(pf)
    pfset = set(pf)
    return [a for r in range(len(pf) + 1) for a in combinations(pf, r)
            if all(x + y in a for i, x in enumerate(a) for y in a[i:] if x + y in pfset)]


def naive_invariants(members, upper):
    """(minimal generators, F, genus, multiplicity) of a closed set.

    ``members`` describes the set up to ``upper``; every larger integer is
    a member.  The set is stored whole and every sum decomposition is
    tried, O(F²): the construction the package used before its Apéry-set
    core, kept here as a second route.
    """
    frob = max((x for x in range(1, upper + 1) if x not in members), default=-1)
    if frob == -1:
        return (1,), -1, 0, 1

    def is_member(x):
        return x > frob or x in members

    mult = min(x for x in range(1, frob + 2) if is_member(x))
    nonzero = [a for a in range(1, frob + 1) if a in members]
    msg = tuple(s for s in range(mult, frob + mult + 1) if is_member(s) and
                not any(a <= s - mult and is_member(s - a) for a in nonzero))
    genus = frob - len(nonzero)
    return msg, frob, genus, mult


def kunz_count(m, c):
    """How many semigroups have multiplicity m and complexity c.

    Counts the Kunz coordinates (k_1, ..., k_{m-1}) in {1..c}^{m-1} with
    max c that satisfy k_i + k_j >= k_{i+j} for i + j < m and
    k_i + k_j + 1 >= k_{i+j-m} for i + j > m.  The coordinates give the
    Apéry set w_i = k_i·m + i, so all k_i >= 1 fixes the multiplicity at m
    and the largest k_i is ⌊F/m⌋ + 1, the complexity.
    """
    total = 0
    for k in product(range(1, c + 1), repeat=m - 1):
        k = (0, *k)
        total += max(k) == c and all(
            k[i] + k[j] >= k[i + j] if i + j < m else
            k[i] + k[j] + 1 >= k[i + j - m]
            for i in range(1, m) for j in range(i, m) if i + j != m)
    return total
