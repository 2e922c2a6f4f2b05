"""Ideal extensions of a numerical semigroup.

Delta is an ideal extension of S when the nonzero part of S is an ideal
of Delta, i.e. S ⊆ Delta and s + d ∈ S∖{0} for every nonzero s ∈ S and
d ∈ Delta.  That holds exactly when S ⊆ Delta ⊆ S ∪ PF(S), so every
extension is S ∪ A for a subset A of the pseudo-Frobenius numbers, and
S ∪ A is itself a semigroup exactly when A is *pertinent*: any sum of
two of its members that misses S (such a sum is always another
pseudo-Frobenius number) must fall back into A.  Enumerating the
pertinent subsets of PF(S) therefore enumerates all extensions; there
are at most 2^t of them, t the type of S.  They are built directly,
deciding PF(S) in ascending order, so the work follows the number of
extensions rather than 2^t.

Pertinence proves S ∪ A closed, so ideal_extensions builds S ∪ A without
a closure check (_extend), from Ap(S, m) alone: when min A is above the
multiplicity it lowers the Apéry set in place; below it, Ap(S ∪ A, min A)
is read class by class off Ap(S, m) and A, unless the genus of S ∪ A
exceeds m, when the round robin modulo min A builds <{m} ∪ Ap(S, m) ∪ A>
instead (the cost rule in _extend).  Nothing
here reads or derives generators, nor does PF(S), which is read off
Ap(S, m).  The pertinent sets come in the order of the extensions by
genus and generators, so nothing is sorted afterwards.
"""
from __future__ import annotations

from .errors import TypeTooLarge, WholeMonoid
from .semigroup import NumericalSemigroup, _from_apery, _from_generators

__all__ = [
    "ideal_extensions",
    "is_ideal_extension",
    "is_pertinent",
    "pertinent_sets",
]

# pertinent_sets may return up to 2^t subsets of PF(S); refuse absurd types
MAX_TYPE = 25


def is_pertinent(s: NumericalSemigroup, a) -> bool:
    """True iff A ⊆ PF(s) and A is closed under sums that land in PF(s).

    Equivalently, true iff s ∪ A is a numerical semigroup.  Sums with
    a = b count: if 2a misses s it must be back in A as well.
    """
    if s.is_whole:
        raise WholeMonoid("pertinence is undefined for the full monoid")
    a = set(a)
    pf = set(s.pseudo_frobenius())
    return a <= pf and all(x + y in a for x in a for y in a if x + y in pf)


def pertinent_sets(s: NumericalSemigroup) -> list[tuple[int, ...]]:
    """All pertinent subsets of PF(s) as member tuples, by size then lexicographically.

    Each tuple is sorted, and () comes first.  Built by the ascending
    rule: take PF(s) in increasing order; a member that is the sum of two
    chosen members (or twice one) is forced in, any other may go either
    way.  Each choice only constrains larger members, so every subset
    built is pertinent and none is built twice.  The union s ∪ A for a
    subset picked by hand is s.adjoin(A), which checks closure.
    """
    if s.is_whole:
        raise WholeMonoid("pertinence is undefined for the full monoid")
    pf = s.pseudo_frobenius()
    t = len(pf)
    if t > MAX_TYPE:
        raise TypeTooLarge(f"type {t} exceeds the 2^{MAX_TYPE} enumeration guard")
    found = [()]
    for x in pf:
        found = [a + (x,) for a in found] + [a for a in found if not any(x - y in a for y in a)]
    found.sort(key=lambda ms: (len(ms), ms))
    return found


def ideal_extensions(s: NumericalSemigroup, proper: bool = False) -> list[NumericalSemigroup]:
    """All ideal extensions of s, i.e. {s ∪ A : A pertinent}.

    Includes s itself (A = ∅) unless ``proper`` is set.  Sorted by genus
    descending then msg lexicographic, so s comes first and the largest
    extension s ∪ PF(s) last.

    That is the order of pertinent_sets, by size and then sorted members, so
    no sort runs.  The genus of s ∪ A is g(s) − |A|.  For |A| = |B|, the
    least integer where s ∪ A and s ∪ B differ is x = min(A △ B), and the
    proof in oracle.extensions_bruteforce puts s ∪ A first by generators
    iff x is in A.  A and B have the same members below x, so sorted A
    comes before sorted B exactly then too.
    """
    found = pertinent_sets(s)
    return [_extend(s, a) for a in (found[1:] if proper else found)]  # () is s itself


def _extend(s: NumericalSemigroup, a) -> NumericalSemigroup:
    """S ∪ A for a pertinent A ⊆ PF(S), built from Ap(S, m) without a closure check.

    If min A ≥ m, each x in A lowers w_{x mod m} from x + m to x, in O(|A|).
    Else T = S ∪ A is closed by pertinence, and n = min A is its
    multiplicity, as every nonzero member of S is at least m > n.  As x is
    in T iff x is in A or x ≥ w_{x mod m}, entry i of Ap(T, n) is the first
    of x = i, i + n, ... that passes that test: the read makes g(T) + n
    tests in all, with g(T) = g(S) − |A| known before it starts.

    Cost rule: read iff g(T) ≤ m, else build <{m} ∪ Ap(S, m) ∪ A> (the set
    adjoin feeds) by the round robin modulo n.  That makes m + |A| − 1 feed
    tests and at least one n-step pass whatever F is, so the read, at most
    m + n tests, never costs more than its cheapest case.  So a large F with
    a small PF member stays cheap: S = <4, 6, 4a + 1, 4a + 3> has 2 in PF(S)
    and genus about 2a, and goes to the round robin.
    """
    if not a:
        return s
    m, ap, n = s.multiplicity, s._apery, min(a)
    if n >= m:
        ap = list(ap)
        for x in a:
            ap[x % m] = x
        return _from_apery(m, tuple(ap))
    if s.genus - len(a) > m:
        return _from_generators({m, *ap[1:], *a})
    a, read = set(a), []
    for x in range(n):
        while x not in a and x < ap[x % m]:
            x += n
        read.append(x)
    return _from_apery(n, tuple(read))


def is_ideal_extension(s: NumericalSemigroup, delta: NumericalSemigroup) -> bool:
    """True iff s ⊆ delta ⊆ s ∪ PF(s).

    For the full monoid the only extension is the monoid itself.
    """
    if s.is_whole:
        return delta.is_whole
    if not s.issubset(delta):
        return False
    pf = set(s.pseudo_frobenius())
    return all(g in pf for g in s.gaps if g in delta)
