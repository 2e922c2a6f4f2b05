"""Numerical semigroups and their classical invariants.

A numerical semigroup is a set S of nonnegative integers that contains 0,
is closed under addition and leaves out only finitely many integers (the
*gaps*).  The largest gap is the Frobenius number F(S), the number of gaps
is the genus g(S), and the smallest nonzero member is the multiplicity
m(S).  The full monoid of nonnegative integers has no gaps; by convention
its Frobenius number is -1.

Every instance is canonical and immutable: it stores only the Apéry set
Ap(S, m) = (w_0, ..., w_{m-1}), w_i the least member ≡ i mod m.  Then x is
a member iff x >= w_{x mod m}, F = max w - m, and the genus is the sum of
the Kunz coordinates (w_i - i)/m.  The minimal generators are m and the w_i
that are no sum of two nonzero members; as w_i - m is no member, such a
sum lowers to two Apéry elements, so one rule (_generators_above) finds
them by membership tests alone.

Ap(S, m) is the identity of an instance: equality and hashing compare it.
It is also the only thing an instance holds besides F, g and m, all set
at build time, and the only thing a build takes or passes on.  Building
and checking are apart.  _from_apery only builds, from an Apéry set
closed by proof (the round robin, a gamma clamp, a tree node, an ideal
extension, a candidate the brute-force oracle tested pair by pair).
Nothing is memoised: the minimal generators (by _generators_above), the
pseudo-Frobenius numbers (the maximal Apéry elements, less m), the small
elements and the gaps are read off Ap(S, m) on each call, and PF reads no
generators.  Two edits check a candidate, both the same way, and neither
costs more as F grows: each builds a semigroup that contains the result
by the round robin and accepts it iff it has as many gaps as the result
must have.  adjoin builds <Ap(S, m) ∪ {m} ∪ A>; without (behind from_gaps
too) raises the Apéry set of the multiplicity n left past the removed
members and builds <n, that set>.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count
from math import gcd, inf

from .errors import (
    FrobeniusTooLarge,
    GcdNotOne,
    MultiplicityTooLarge,
    NotAMember,
    NotASemigroup,
    WholeMonoid,
)

__all__ = [
    "WHOLE",
    "AperySet",
    "NumericalSemigroup",
    "from_gaps",
    "from_generators",
]

# Inputs whose Frobenius number would pass this are refused outright;
# everything downstream is exhaustive and infeasible long before it.
MAX_FROBENIUS = 1 << 40
# Ap(S, m) has m entries and a round robin modulo m up to m·e steps, e the
# embedding dimension, so a larger multiplicity is refused before either is built.
MAX_MULTIPLICITY = 4096


@dataclass(frozen=True)
class AperySet:
    """The least member of each residue class modulo a nonzero member.

    ``elements[i]`` is the least member congruent to i (mod ``modulus``),
    so ``elements[0]`` is always 0 and there are exactly ``modulus`` entries.
    """

    modulus: int
    elements: tuple[int, ...]


class NumericalSemigroup:
    """A numerical semigroup in canonical form.

    Construct from generators (``NumericalSemigroup(5, 7)`` or
    ``NumericalSemigroup([5, 7])``), from a gap set (:meth:`from_gaps`),
    or by parsing a literal like ``"<5,7>"`` (:meth:`parse`).

    Attributes
    ----------
    min_generators : tuple of int, the unique minimal generating set (read off Ap(S, m))
    small_elements : tuple of int, all members <= frobenius + 1 (read off Ap(S, m))
    gaps : tuple of int, all positive nonmembers (read off Ap(S, m))
    frobenius : int, largest gap (-1 for the full monoid)
    genus : int, number of gaps
    multiplicity : int, smallest nonzero member
    """

    __slots__ = ("frobenius", "genus", "multiplicity", "_apery")

    def __new__(cls, *generators):
        if len(generators) == 1 and not isinstance(generators[0], int):
            generators = tuple(generators[0])
        _check_ints(generators, 1, "generators must be positive integers")
        gens = sorted(set(generators))
        if not gens:
            raise ValueError("at least one generator is required")
        if (d := gcd(*gens)) != 1:
            raise GcdNotOne(f"gcd of generators is {d}, not 1")
        too_large = f"Frobenius number of <{','.join(map(str, gens))}> exceeds {MAX_FROBENIUS}"
        if gens[0] - 1 > MAX_FROBENIUS:  # F >= m - 1
            raise FrobeniusTooLarge(too_large)
        s = _from_generators(gens)
        if s.frobenius > MAX_FROBENIUS:
            raise FrobeniusTooLarge(too_large)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup is immutable")

    def __reduce__(self):
        return _from_apery, (self.multiplicity, self._apery)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_generators(cls, generators) -> "NumericalSemigroup":
        """The semigroup generated by ``generators`` (need not be minimal)."""
        return cls(tuple(generators))

    @classmethod
    def from_gaps(cls, gaps) -> "NumericalSemigroup":
        """The semigroup whose gap set is exactly ``gaps``.

        Raises NotASemigroup (with a witness pair) if the complement of
        ``gaps`` is not closed under addition.
        """
        gapset = set(gaps)
        _check_ints(gapset, 1, "gaps must be positive integers")
        return WHOLE._without(gapset)

    @classmethod
    def parse(cls, text: str) -> "NumericalSemigroup":
        """Parse a semigroup literal: ``<5,6,8,9>``, ``[ 5, 6 ]`` or bare ``5,6``."""
        body = text.strip()
        if (body.startswith("<") and body.endswith(">")) or \
                (body.startswith("[") and body.endswith("]")):
            body = body[1:-1]
        parts = [p.strip() for p in body.split(",")]
        if not parts or any(not p for p in parts):
            raise ValueError(f"invalid semigroup literal: {text!r}")
        try:
            gens = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"invalid semigroup literal: {text!r}") from None
        return cls(gens)

    # -- membership ----------------------------------------------------

    @property
    def min_generators(self) -> tuple[int, ...]:
        """The unique minimal generating set, derived from Ap(S, m) on each read."""
        return (self.multiplicity, *_generators_above(self._apery, 0))

    def __contains__(self, x) -> bool:
        return isinstance(x, int) and x >= 0 and x >= self._apery[x % self.multiplicity]

    def elements(self, limit: int):
        """Iterate the members x with 0 <= x <= limit in increasing order."""
        m, ap = self.multiplicity, self._apery
        return (x for x in range(limit + 1) if x >= ap[x % m])

    @property
    def small_elements(self) -> tuple[int, ...]:
        """All members up to F+1 (up to 1 for the full monoid), read off Ap(S, m) on each call."""
        return tuple(self.elements(max(self.frobenius + 1, self.multiplicity)))

    @property
    def gaps(self) -> tuple[int, ...]:
        """All positive integers outside the semigroup, read off Ap(S, m) on each call."""
        m, ap = self.multiplicity, self._apery
        return tuple(x for x in range(1, self.frobenius + 1) if x < ap[x % m])

    @property
    def is_whole(self) -> bool:
        """True iff this is the full monoid of nonnegative integers."""
        return self.frobenius == -1

    @property
    def is_ordinary(self) -> bool:
        """True iff the semigroup is {0, m, m+1, ...} for some m >= 2."""
        return self.frobenius == self.multiplicity - 1 and not self.is_whole

    def issubset(self, other: "NumericalSemigroup") -> bool:
        """True iff every member of self is a member of other."""
        return all(x in other for x in (self.multiplicity, *self._apery[1:]))

    # -- classical invariants -------------------------------------------

    def apery_set(self, n: int) -> AperySet:
        """The least member of each residue class mod n, for a nonzero member n."""
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0 or n not in self:
            raise NotAMember(f"{n!r} is not a nonzero member of {self}")
        m, ap = self.multiplicity, self._apery
        return AperySet(n, ap if n == m else _apery_mod(n, (m, *sorted(ap[1:]))))

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """The gaps x with x + s a member for every nonzero member s.

        Computed as w - m over the maximal Apery elements w of the
        multiplicity m under the partial order a <= b iff b - a in S.  An
        element above w in that order within Ap(S, m) is w + v, v a nonzero
        Apéry element, as Ap(S, m) is closed downwards; so w is maximal iff
        no w + v is an Apéry element.  The v are scanned in ascending order
        up to the first w + v past max w, or in Ap(S, m), which ends the
        scan.  Read off Ap(S, m) alone, with no generators, in O(m²) steps
        at worst.
        """
        if self.is_whole:
            raise WholeMonoid("the full monoid has no pseudo-Frobenius numbers")
        m, apery, rest, pf = self.multiplicity, set(self._apery), sorted(self._apery)[1:], []
        for w in rest:
            for v in rest:
                if w + v > rest[-1] or w + v in apery:
                    break
            if w + v > rest[-1]:
                pf.append(w - m)
        return tuple(pf)

    def leq(self, a: int, b: int) -> bool:
        """The semigroup partial order: a <= b iff b - a is a member; a and b are ints."""
        _check_ints((a, b), -inf, "leq compares integers")
        return (b - a) in self

    # -- derived semigroups ----------------------------------------------

    def adjoin(self, extra) -> "NumericalSemigroup":
        """The semigroup obtained by filling in the gaps in ``extra``.

        m and Ap(S, m) generate S, so S ∪ A lies in <Ap(S, m) ∪ {m} ∪ A>,
        built by the round robin modulo min(m, min A) in O(m + e·n), e its
        embedding dimension; it equals S ∪ A iff it has g(S) − |A| gaps, so
        that count alone accepts it.
        Raises NotASemigroup if the enlarged set is not closed.
        """
        extra = set(extra)
        _check_ints(extra, 0, "adjoined elements must be nonnegative integers")
        plus = {x for x in extra if x not in self}
        if not plus:
            return self
        s = _from_generators({self.multiplicity, *self._apery[1:], *plus})
        if s.genus != self.genus - len(plus):
            _refuse(*_adjoin_witness(self, plus))
        return s

    def without(self, removed) -> "NumericalSemigroup":
        """The semigroup obtained by deleting the nonzero members ``removed``.

        Raises NotASemigroup if deleting them breaks closure.
        """
        removed = set(removed)
        for x in removed:
            if isinstance(x, bool) or x not in self or x < 1:
                raise ValueError(f"can only remove nonzero members, got {x!r}")
        return self._without(removed)

    def _without(self, removed) -> "NumericalSemigroup":
        """S ∖ R for a set R of nonzero members, checked.

        F(S ∖ R) = max(F(S), max R), so a removed member above MAX_FROBENIUS
        is refused before any work.  The multiplicity left is n, the least
        member not in R, at most (|R| + 1)·m.  Ap(S, n) (apery_set, a round
        robin if n ≠ m) is raised in place: a w_i in R goes up by n until it
        leaves R, O(n + |R|) in all, giving the least member of S ∖ R per
        class.  So <n, raised set> contains S ∖ R; built by the round robin,
        it equals S ∖ R, and S ∖ R is closed, iff it has g(S) + |R| gaps.
        On a refusal, the removed members above their class's new least
        member are the holes that _witness starts from.
        """
        if max(removed, default=0) > MAX_FROBENIUS:
            raise FrobeniusTooLarge(f"Frobenius number {max(removed)} exceeds {MAX_FROBENIUS}")
        if not removed:
            return self
        m, old = self.multiplicity, self._apery
        n = next(x for x in count(m) if x not in removed and x >= old[x % m])
        ap = list(self.apery_set(n).elements)
        for x in removed:
            while ap[x % n] in removed:
                ap[x % n] += n
        s, gaps = _from_generators({n, *ap[1:]}), self.genus + len(removed)
        if s.genus != gaps:
            _refuse(*_witness(n, ap, [x for x in removed if x > ap[x % n]]))
        return s

    # -- canonical form ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self._apery == other._apery

    def __hash__(self) -> int:
        return hash(self._apery)

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.min_generators) + ">"

    def __repr__(self) -> str:
        return f"NumericalSemigroup({self})"

    def to_dict(self) -> dict:
        """JSON-ready summary of the semigroup and its invariants."""
        return {
            "generators": list(self.min_generators),
            "frobenius": self.frobenius,
            "genus": self.genus,
            "multiplicity": self.multiplicity,
            "small_elements": list(self.small_elements),
            "pf": None if self.is_whole else list(self.pseudo_frobenius()),
        }


# -- module-level operation aliases ---------------------------------------

from_generators = NumericalSemigroup.from_generators
from_gaps = NumericalSemigroup.from_gaps


# -- construction internals -------------------------------------------------

def _check_ints(values, least: int, message: str) -> None:
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool) or x < least:
            raise ValueError(f"{message}, got {x!r}")


def _check_multiplicity(m: int) -> None:
    if m > MAX_MULTIPLICITY:
        raise MultiplicityTooLarge(f"multiplicity {m} exceeds {MAX_MULTIPLICITY}")


def _apery_mod(n, generators) -> tuple[int, ...]:
    """Ap(S, n) for a member n of S = <generators>, in O(k·n) steps.

    The round-robin algorithm of Böcker and Lipták (Algorithmica, 2007);
    n need not be a generator, nor the least one.  A generator a with
    a >= w_{a mod n} is already a member of the semigroup built so far, so
    it is skipped.  Fed in ascending order, every generator that is a sum
    of smaller ones is skipped, so only the minimal generators make a
    pass, and a generating set such as {m} ∪ Ap(S, m) costs one O(1) test
    per extra member more than the minimal one.  A modulus over
    MAX_MULTIPLICITY is refused before its table is built.
    """
    _check_multiplicity(n)
    ap = [0] + [inf] * (n - 1)
    for a in generators:
        if a >= ap[a % n]:
            continue
        d = gcd(a, n)
        steps = range(n // d - 1)
        for r in range(d):  # walk the cycle r, r + a, ... from its least entry
            x = min(ap[r::d])
            if x == inf:
                continue
            for _ in steps:
                x += a
                p = x % n
                x = ap[p] = x if x < ap[p] else ap[p]
    return tuple(ap)


def _from_generators(generators) -> NumericalSemigroup:
    """<generators> by the round robin modulo the least, in ascending order.

    It only builds: the caller vouches that the generators have gcd 1 and
    a Frobenius number within MAX_FROBENIUS.  The least one is the
    multiplicity, which _apery_mod checks against MAX_MULTIPLICITY.
    """
    n, *gens = sorted(generators)
    return _from_apery(n, _apery_mod(n, gens))


def _from_apery(m, ap, _carried=None) -> NumericalSemigroup:
    """The semigroup with multiplicity m and Apéry set ``ap``, built as given.

    It only builds: the caller vouches that ``ap`` is Ap(S, m) of a
    semigroup S and that m passed _check_multiplicity.  Nothing is checked.
    Pickles written when instances carried their generators pass them as
    ``_carried``, which is ignored.
    """
    s = object.__new__(NumericalSemigroup)
    _set_frobenius(s, max(ap) - m)
    _set_genus(s, (sum(ap) - m * (m - 1) // 2) // m)  # sum of (w_i - i) / m, as w_i ≡ i mod m
    _set_multiplicity(s, m)
    _set_apery(s, ap)
    return s


# The slot setters, bound once: __setattr__ refuses every write.
(_set_frobenius, _set_genus, _set_multiplicity, _set_apery) = (
    getattr(NumericalSemigroup, name).__set__ for name in NumericalSemigroup.__slots__)


def _generators_above(ap, bound) -> tuple[int, ...]:
    """The nonzero w in Ap(S, m) above ``bound`` that are no sum of two nonzero members, ascending.

    w - m is no member, so in a sum w = a + b both a and b are Apéry
    elements, and one of them is at most w / 2: w is a minimal generator
    iff w - v is no member for every Apéry element 0 < v <= w / 2.  Each w
    stops at the first such v whose partner is a member.
    """
    m, ws, found = len(ap), sorted(ap), []
    for k in range(bisect_right(ws, bound), m):
        w = ws[k]
        for v in ws[1:bisect_right(ws, w // 2, 1, k)]:
            x = w - v
            if x >= ap[x % m]:
                break
        else:
            found.append(w)
    return tuple(found)


def _refuse(a, b):
    raise NotASemigroup(f"not closed under addition: {a} + {b} = {a + b} is missing",
                        witness=(a, b))


def _adjoin_witness(s, plus):
    """The lexicographically first (a, b), a <= b, with a + b missing from S ∪ plus.

    S is closed, so one of the pair is some p in ``plus``.  Its partner is
    another member of ``plus``, or in some class mod m the least nonzero
    member t of S with p + t outside ``plus``, t stepped by m past the sums
    that land in it: once p + t is in S, so is every later sum of the class.
    O(|plus|·(|plus| + m)) steps.
    """
    m, ap = s.multiplicity, s._apery

    def partners(p):
        yield from plus
        for t in (m, *ap[1:]):
            while p + t in plus:
                t += m
            yield t
    return min((min(p, q), max(p, q)) for p in plus for q in partners(p)
               if p + q < ap[(p + q) % m] and p + q not in plus)


def _witness(m, ap, holes):
    """The lexicographically first (a, b), a <= b, with a + b a nonmember.

    ``ap`` is the candidate's least member per class mod m, m its least
    nonzero member, and ``holes`` the removed members above their class's
    least member.  If there is one, let h be the least.  Then h - m lies
    in S, at or above its class's least member, which is not removed; were
    h - m removed, it would be a hole below h.  So h - m is a member, and
    nonzero, as m is not removed, so b = h - m >= m and a = m give the
    missing sum h.  No member b < h - m fails with m: m + b would be a
    removed member above b, a hole below h.  As every a >= m, (m, h - m)
    comes first.  With no hole each class is an up-set, and a failing
    pair still fails with both lowered to Apéry elements.
    """
    if holes:
        return m, min(holes) - m
    for a in sorted(ap[1:]):
        least = [max(w, w - (w - a) // m * m) for w in ap]  # least member >= a, per class
        found = [b for j, b in enumerate(least) if a + b < ap[(a + j) % m]]
        if found:
            return a, min(found)
    raise RuntimeError("no witness, yet a Kunz inequality fails")


#: The full monoid of nonnegative integers, printed as <1>.
WHOLE = _from_apery(1, (0,))
