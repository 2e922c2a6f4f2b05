"""Numerical semigroups and their classical invariants.

A numerical semigroup is a set S of nonnegative integers that contains 0,
is closed under addition and leaves out only finitely many integers (the
*gaps*).  The largest gap is the Frobenius number F(S), the number of gaps
is the genus g(S), and the smallest nonzero member is the multiplicity
m(S).  The full monoid of nonnegative integers has no gaps; by convention
its Frobenius number is -1.

Every instance is canonical and immutable: it stores only the Apéry set
Ap(S, m) = (w_0, ..., w_{m-1}), w_i the least member ≡ i mod m.  Then x is
a member iff x >= w_{x mod m}, F = max w - m, the genus is the sum of the
Kunz coordinates (w_i - i)/m, and the minimal generators are m and the w_i
that are no sum of two nonzero w_j.  Closure is the Kunz inequalities
w_i + w_j >= w_{(i+j) mod m}, O(m²) to check however large F is.

Ap(S, m) is the identity of an instance: equality and hashing compare it.
Building and checking are apart.  _from_apery only builds, from an Apéry
set closed by proof (the round robin, a gamma clamp, a tree node, an ideal
extension, a candidate the brute-force oracle tested pair by pair), and
runs no Kunz pass.  A build that knows the minimal generators keeps them:
the round robin (_from_generators) keeps the generators it uses, which for
NumericalSemigroup(*gens), without({m}), adjoin and a union <msg(S) ∪ A>
with min A below m are exactly the minimal ones, and an ideal extension
above m reads them off those of S.  Any other instance derives them from
Ap(S, m) on first use, like the small elements and the gaps; the
pseudo-Frobenius numbers are read off them and Ap(S, m).  Two edits check
a candidate, and neither costs more as F grows: adjoin builds
<Ap(S, m) ∪ {m} ∪ A> by the round robin and accepts it by its genus
alone; without (behind from_gaps too) raises the Apéry set of the
multiplicity left past the removed members, then checks the genus and the
Kunz inequalities, whose pass yields the minimal generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd

from .errors import (
    FrobeniusTooLarge,
    GcdNotOne,
    MultiplicityTooLarge,
    NotAMember,
    NotASemigroup,
    WholeMonoid,
)

# Inputs whose Frobenius number would pass this are refused outright;
# everything downstream is exhaustive and infeasible long before it.
MAX_FROBENIUS = 1 << 40
# Ap(S, m) has m entries and the Kunz pass takes O(m²) steps, so a larger
# multiplicity is refused before either is built.
MAX_MULTIPLICITY = 4096


@dataclass(frozen=True)
class AperySet:
    """The least member of each residue class modulo a nonzero member.

    ``elements[i]`` is the least member congruent to i (mod ``modulus``),
    so ``elements[0]`` is always 0 and there are exactly ``modulus`` entries.
    """

    modulus: int
    elements: tuple[int, ...]

    def as_set(self) -> frozenset[int]:
        return frozenset(self.elements)


class NumericalSemigroup:
    """A numerical semigroup in canonical form.

    Construct from generators (``NumericalSemigroup(5, 7)`` or
    ``NumericalSemigroup([5, 7])``), from a gap set (:meth:`from_gaps`),
    or by parsing a literal like ``"<5,7>"`` (:meth:`parse`).

    Attributes
    ----------
    min_generators : tuple of int, the unique minimal generating set
    small_elements : tuple of int, all members <= frobenius + 1
    frobenius : int, largest gap (-1 for the full monoid)
    genus : int, number of gaps
    multiplicity : int, smallest nonzero member
    """

    __slots__ = ("_msg", "frobenius", "genus", "multiplicity",
                 "_apery", "_pf", "_small", "_gaps")

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
        return _from_apery, (self.multiplicity, self._apery, self._msg)

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
        if max(gapset, default=0) > MAX_FROBENIUS:
            raise FrobeniusTooLarge(f"Frobenius number {max(gapset)} exceeds {MAX_FROBENIUS}")
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
        """The unique minimal generating set: kept by the build, else derived by one Kunz pass."""
        if self._msg is None:
            m, ap = self.multiplicity, self._apery
            _set_msg(self, _generators(m, ap, _sums_in_apery(m, ap)))
        return self._msg

    def __contains__(self, x) -> bool:
        return isinstance(x, int) and x >= 0 and x >= self._apery[x % self.multiplicity]

    def contains(self, x: int) -> bool:
        """True iff x is a member (negative x never is)."""
        return x in self

    def elements(self, limit: int):
        """Iterate the members x with 0 <= x <= limit in increasing order."""
        for x in range(limit + 1):
            if x in self:
                yield x

    @property
    def small_elements(self) -> tuple[int, ...]:
        """All members up to F+1 (up to 1 for the full monoid), derived on first use."""
        if self._small is None:
            top = max(self.frobenius + 1, self.multiplicity)
            _set_small(self, tuple(self.elements(top)))
        return self._small

    @property
    def gaps(self) -> tuple[int, ...]:
        """All positive integers outside the semigroup, derived on first use."""
        if self._gaps is None:
            gaps = tuple(x for x in range(1, self.frobenius + 1) if x not in self)
            _set_gaps(self, gaps)
        return self._gaps

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
        return all(g in other for g in self.min_generators)

    # -- classical invariants -------------------------------------------

    def apery_set(self, n: int) -> AperySet:
        """The least member of each residue class mod n, for a nonzero member n."""
        if isinstance(n, bool) or n <= 0 or n not in self:
            raise NotAMember(f"{n} is not a nonzero member of {self}")
        if n == self.multiplicity:
            return AperySet(n, self._apery)
        return AperySet(n, _apery_mod(n, self.min_generators)[0])

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """The gaps x with x + s a member for every nonzero member s.

        Computed as w - m over the maximal Apery elements w of the
        multiplicity m under the partial order a <= b iff b - a in S.  As
        Ap(S, m) is closed downwards in that order, w is maximal iff w + g
        leaves it, w + g > w_{(w+g) mod m}, for every minimal generator
        g ≠ m: O(e·m), e the embedding dimension.
        """
        if self.is_whole:
            raise WholeMonoid("the full monoid has no pseudo-Frobenius numbers")
        if self._pf is None:
            m, ap, gens = self.multiplicity, self._apery, self.min_generators[1:]
            _set_pf(self, tuple(sorted(w - m for w in ap[1:]
                                       if all(w + g > ap[(w + g) % m] for g in gens))))
        return self._pf

    def leq(self, a: int, b: int) -> bool:
        """The semigroup partial order: a <= b iff b - a is a member."""
        return (b - a) in self

    # -- derived semigroups ----------------------------------------------

    def adjoin(self, extra) -> "NumericalSemigroup":
        """The semigroup obtained by filling in the gaps in ``extra``.

        m and Ap(S, m) generate S, so S ∪ A lies in <Ap(S, m) ∪ {m} ∪ A>,
        built by the round robin modulo min(m, min A) in O(m + e·n), e its
        embedding dimension, keeping its minimal generators; it equals
        S ∪ A iff it has g(S) − |A| gaps, so that count alone accepts it.
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

        Removing m alone leaves the semigroup generated by the other
        minimal generators g, 2m, 3m and m + g, built by the round robin
        modulo the new multiplicity, which also yields its minimal
        generators.  Else the multiplicity left is n, the least member not
        in R, at most (|R| + 1)·m.  Ap(S, n) (the round robin if n ≠ m) is
        raised in place: a w_i in R goes up by n until it leaves R, O(n + |R|)
        in all.  The candidate, its least member per class, is S ∖ R iff its
        Kunz sum counts every gap, and a semigroup iff the Kunz inequalities
        hold; the pass that checks them also yields its minimal generators.
        """
        if not removed:
            return self
        m, old = self.multiplicity, self._apery
        if removed == {m}:
            rest = self.min_generators[1:]
            return _from_generators([*rest, 2 * m, 3 * m, *(m + g for g in rest)])
        member = lambda x: x not in removed and x >= old[x % m]  # noqa: E731
        n = next(filter(member, count(m)))
        ap = list(old if n == m else _apery_mod(n, self.min_generators)[0])
        for x in removed:
            while ap[x % n] in removed:
                ap[x % n] += n
        ap = tuple(ap)
        s = _from_apery(n, ap)
        prefix_closed = s.genus == self.genus + len(removed)
        if not prefix_closed or (summed := _sums_in_apery(n, ap)) is None:
            _refuse(*_witness(n, ap, member, removed, prefix_closed))
        _set_msg(s, _generators(n, ap, summed))
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


def type_of(s: NumericalSemigroup) -> int:
    """The number of pseudo-Frobenius numbers (always <= multiplicity - 1)."""
    return len(s.pseudo_frobenius())


# -- construction internals -------------------------------------------------

def _check_ints(values, least: int, message: str) -> None:
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool) or x < least:
            raise ValueError(f"{message}, got {x!r}")


def _check_multiplicity(m: int) -> None:
    if m > MAX_MULTIPLICITY:
        raise MultiplicityTooLarge(f"multiplicity {m} exceeds {MAX_MULTIPLICITY}")


def _apery_mod(n, generators) -> tuple[tuple[int, ...], list[int]]:
    """Ap(S, n) for a member n of S = <generators>, in O(k·n) steps, and the generators used.

    The round-robin algorithm of Böcker and Lipták (Algorithmica, 2007);
    n need not be a generator, nor the least one.  A generator a with
    a >= w_{a mod n} is already a member of the semigroup built so far, so
    it is skipped.  Fed in ascending order after the least generator n, the
    generators kept are then exactly the minimal ones other than n.  A
    modulus over MAX_MULTIPLICITY is refused before its table is built.
    """
    _check_multiplicity(n)
    inf = float("inf")
    ap = [0] + [inf] * (n - 1)
    kept = []
    for a in generators:
        if a >= ap[a % n]:
            continue
        kept.append(a)
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
    return tuple(ap), kept


def _from_generators(generators) -> NumericalSemigroup:
    """<generators> by the round robin modulo the least, keeping the minimal generators it uses.

    It only builds: the caller vouches that the generators have gcd 1 and
    a Frobenius number within MAX_FROBENIUS.  The least one is the
    multiplicity, which _apery_mod checks against MAX_MULTIPLICITY.
    """
    n, *gens = sorted(generators)
    ap, kept = _apery_mod(n, gens)
    return _from_apery(n, ap, (n, *kept))


def _from_apery(m, ap, msg=None) -> NumericalSemigroup:
    """The semigroup with multiplicity m and Apéry set ``ap``, built as given.

    It only builds: the caller vouches that ``ap`` is Ap(S, m) of a
    semigroup S, that m passed _check_multiplicity and that ``msg``, if
    given, are its minimal generators in ascending order.  No Kunz pass
    runs; without ``msg`` the minimal generators are derived on first use.
    """
    s = object.__new__(NumericalSemigroup)
    _set_msg(s, msg)
    _set_frobenius(s, max(ap) - m)
    _set_genus(s, (sum(ap) - m * (m - 1) // 2) // m)  # sum of (w_i - i) / m, as w_i ≡ i mod m
    _set_multiplicity(s, m)
    _set_apery(s, ap)
    _set_pf(s, None)
    _set_small(s, None)
    _set_gaps(s, None)
    return s


# The slot setters, bound once: __setattr__ refuses every write.
(_set_msg, _set_frobenius, _set_genus, _set_multiplicity, _set_apery, _set_pf, _set_small,
 _set_gaps) = (getattr(NumericalSemigroup, name).__set__ for name in NumericalSemigroup.__slots__)


def _generators(m, ap, summed) -> tuple[int, ...]:
    """m and the w_i, i nonzero, whose residue is not in ``summed``, ascending."""
    return (m, *sorted(w for i, w in enumerate(ap) if i and i not in summed))


def _sums_in_apery(m, ap):
    """Residues k with w_k = w_i + w_j, i, j nonzero: the w_k that are no minimal generator.

    None if some w_i + w_j falls below its w_k, breaking a Kunz inequality.
    """
    summed = set()
    twice = ap + ap
    for i in range(1, m):
        w = ap[i]
        for j, c in enumerate(twice[2 * i:m + i], i):  # c = w_{(i+j) mod m}
            d = w + ap[j] - c
            if d <= 0:
                if d < 0:
                    return None
                summed.add((i + j) % m)
    return summed


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


def _witness(m, ap, member, suspects, prefix_closed):
    """The lexicographically first (a, b), a <= b, with a + b a nonmember.

    ``ap`` is the candidate's least member per class mod m and ``suspects``
    the removed members.  If a class is no up-set, m + y leaves it for a
    member y >= m, so a = m and m + b is the least suspect with b a member;
    else a failing pair still fails with both lowered to Apéry elements.
    """
    if not prefix_closed:
        return m, next(x - m for x in sorted(suspects) if member(x - m))
    for a in sorted(ap[1:]):
        least = [max(w, w - (w - a) // m * m) for w in ap]  # least member >= a, per class
        found = [b for j, b in enumerate(least) if a + b < ap[(a + j) % m]]
        if found:
            return a, min(found)
    raise RuntimeError("no witness, yet a Kunz inequality fails")


#: The full monoid of nonnegative integers, printed as <1>.
WHOLE = _from_apery(1, (0,))
