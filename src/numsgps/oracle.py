"""Brute-force certifiers for the closed-form results.

Everything here recomputes an answer from first principles so the fast
implementations can be checked against it on small instances: a complete
catalog of semigroups up to a genus bound, pseudo-Frobenius numbers
straight from the definition, ideal extensions by filtering all 2^t
subsets of PF(S) with a closure test, the minimal i-chain length by a
memoised recursion over the extension graph, and the semigroups where
the full PF selection overshoots the complexity.  The ``verify`` CLI
command and the test suite both run these.

Inside, a semigroup S is one int g, its gap set: bit x is set iff x is a
gap, so F = bit_length − 1, m is the first clear bit above 0, and S ∪ A,
for gaps A, is g with the bits of A cleared.  Two rules read it.  The
generator rule, _generators, gives as a mask the nonzero members up to
F + m + 1 that are no sum of two nonzero members; the genus-tree
children of S are g | 1 << x for its bits x above F, and _int_name
prints it.  The closure test, _closed, says the complement of g is
closed iff (members << a) & g == 0 for each member m ≤ a ≤ F/2, since a
pair a ≤ b with a + b ≤ F has a ≤ F/2 and a sum past F is a member; the
extensions are the candidates between g and g less PF(S) that pass it,
and _int_name names a set that fails it by its gaps.  PF(S) is the gaps
x with (nonzero members << x) & g == 0.  The oracle reads an int back
into Ap(S, m), class by class off its bits (_apery), only at its edge:
check_extensions compares those tuples with the fast route's, which is
what equality of objects compares, and an object is built only where
one is returned (_semigroup).  A fast route's object becomes an int, by
its gaps (_gap_int), only to seed a scan or to be named.  Every genus
guard fires before a gap int is made.  So the oracle shares no
generators, no pertinence and no round robin with the fast routes it
checks.  It imports, by module:

    chains: ThetaMap, complexity, mu, theta_apply
    extensions: ideal_extensions
    genealogy: DEFAULT_NODE_CAP, _walk
    semigroup: NumericalSemigroup, _from_apery

The first three lines are what the checks compare: check_tree walks the
multiplicity tree's Apéry tuples by _walk, the route that count,
enumerate_semigroups and export_dot take, and compares each child read
off a tuple with the parent's closure-checked ``without``.  _from_apery
is the one builder.
check_pf compares, besides PF, the generators that str(s) prints, by
the fast rule, with _int_name of its gap int, the oracle's generator
rule.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .chains import ThetaMap, complexity, mu, theta_apply
from .errors import GenusTooLarge, SemigroupError, TypeTooLarge, WholeMonoid
from .extensions import ideal_extensions
from .genealogy import DEFAULT_NODE_CAP, _walk
from .semigroup import NumericalSemigroup, _from_apery

__all__ = [
    "CHECKS",
    "GenusCatalog",
    "enumerate_by_genus",
    "extensions_bruteforce",
    "min_ichain_bfs",
    "pf_bruteforce",
    "pf_gap_search",
]

MAX_CATALOG_GENUS = 12
MAX_ORACLE_TYPE = 25
# pf_bruteforce and extensions_bruteforce make an int of F bits and shift it
# once per gap, so a larger genus is refused before it is made.  It stays
# well above genus 912, which the tests reach with <48,77,101>.
MAX_ORACLE_GENUS = 1 << 15
# numerical semigroups of genus 0..12 (OEIS A007323; Bras-Amorós, Semigroup Forum 2008)
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592)


@dataclass(frozen=True)
class GenusCatalog:
    """All numerical semigroups of genus ≤ max_genus, one level per genus."""

    max_genus: int
    by_genus: tuple[tuple[NumericalSemigroup, ...], ...]

    @property
    def semigroups(self) -> list[NumericalSemigroup]:
        return [s for lvl in self.by_genus for s in lvl]

    def counts(self) -> list[int]:
        return [len(lvl) for lvl in self.by_genus]


def enumerate_by_genus(max_genus: int) -> GenusCatalog:
    """Exhaustive catalog via the gap tree: remove one generator > F per step.

    Each semigroup of genus g+1 is some genus-g semigroup minus a single
    minimal generator exceeding its Frobenius number, and arises that way
    exactly once, so the walk is complete and duplicate-free (``check_tree``
    certifies the latter, and the counts per genus against A007323).
    """
    return GenusCatalog(max_genus, tuple(tuple(map(_semigroup, lvl))
                                         for lvl in _levels(max_genus)))


def _levels(max_genus: int) -> list[list[int]]:
    """The catalog's gap ints, one list per genus, each sorted by _bits.

    S ∖ {x}, for a member x > F, is closed iff x is a minimal generator
    of S, so the children of g are the g | 1 << x for the bits x above F
    of _generators(g), all in (F, F + m] as x − m > F would be a nonzero
    member.  ℕ, with F = −1 by convention, has the one generator 1 and
    the one child 0b10, <2,3>.  Within one genus, the order of _bits is
    the order by minimal generators (see extensions_bruteforce).
    """
    if not isinstance(max_genus, int) or isinstance(max_genus, bool):
        raise ValueError(f"genus bound must be an integer, got {max_genus!r}")
    if max_genus < 0:
        raise ValueError("genus bound must be nonnegative")
    if max_genus > MAX_CATALOG_GENUS:
        raise GenusTooLarge(f"genus {max_genus} exceeds the catalog guard {MAX_CATALOG_GENUS}")
    levels = [[0]]
    while len(levels) <= max_genus:
        levels.append(sorted((g | 1 << x for g in levels[-1]
                              for x in _ones(_generators(g)) if x >= g.bit_length()), key=_bits))
    return levels


def _gap_int(s: NumericalSemigroup, bound: int = MAX_ORACLE_GENUS, name: str = "oracle") -> int:
    """The gap int of s, made only once the genus guard ``bound`` has passed.

    It reads only the x ≤ F, where Apéry tuples that differ can read the
    same: one kept modulo a number that is not the multiplicity of what it
    reads, or one with an entry of the wrong residue.  So the checks never
    compare a fast route's objects by this int (see check_extensions).
    """
    if s.genus > bound:
        raise GenusTooLarge(f"genus {s.genus} exceeds the {name} guard {bound}")
    return sum(1 << x for x in s.gaps)


def _closed(g: int) -> bool:
    """True iff the complement of gap int g is closed under addition.

    ``members`` holds every member up to F as a bit, so members << a holds
    a + each of them; only members m ≤ a ≤ F/2 need shifting, as argued
    in the module docstring.
    """
    f = g.bit_length()
    members = ~g & (1 << f) - 1
    for a in range(_multiplicity(g), (f + 1) // 2):
        if members >> a & 1 and members << a & g:
            return False
    return True


def _generators(g: int) -> int:
    """The minimal generators of the complement of closed gap int g, as a mask.

    With M the nonzero members up to top = F + m + 1, the OR of M << a
    over the members m ≤ a ≤ top/2 holds every sum of two of them up to top,
    since a ≤ b has a ≤ top/2, and the generators, all at most F + m, are
    the members of M that it misses.
    """
    m = _multiplicity(g)
    top = g.bit_length() + m
    nonzero = ~g & (2 << top) - 2
    sums = 0
    for a in range(m, top // 2 + 1):
        if nonzero >> a & 1:
            sums |= nonzero << a
    return nonzero & ~sums


def _multiplicity(g: int) -> int:
    """The first clear bit of g above 0: adding 2 carries through the gaps 1..m−1."""
    return (g + 2 & ~g).bit_length() - 1


def _bits(g: int) -> str:
    """The bits of g read from 0 up, to bit F."""
    return bin(g)[:1:-1]


def _ones(g: int) -> list[int]:
    """The set bits of g, ascending."""
    return [x for x, b in enumerate(_bits(g)) if b == "1"]


def _apery(g: int) -> tuple[int, ...]:
    """Ap(S, m) of gap int g: w_i is i + m·(the gaps ≡ i mod m)."""
    m, bits = _multiplicity(g), _bits(g)
    return tuple([i + m * bits[i::m].count("1") for i in range(m)])


def _semigroup(g: int) -> NumericalSemigroup:
    """The semigroup with gap int g, built from _apery(g)."""
    return _from_apery(_multiplicity(g), _apery(g))


def _name(s: NumericalSemigroup) -> str:
    """s by _int_name on its gap int if its tuple is Ap(S, m) of that int, else as its tuple."""
    g = _gap_int(s)
    return _int_name(g) if _apery(g) == s._apery else f"Apéry tuple {s._apery}"


def _int_name(g: int) -> str:
    """Gap int g as a literal <g1,...>, its generators read by _generators.

    So a report names what it found by the oracle's own rule, not by the
    generators it may be checking.  A set that fails _closed has no
    generators to name it by, so it is named by its gaps.
    """
    if not _closed(g):
        return "set with gaps {" + ",".join(map(str, _ones(g))) + "}"
    return "<" + ",".join(map(str, _ones(_generators(g)))) + ">"


def _pf(g: int) -> list[int]:
    """The gaps x of gap int g with x + n a member for every nonzero member n, ascending."""
    nonzero = ~g & ~1
    return [x for x in range(g.bit_length()) if g >> x & 1 and not nonzero << x & g]


def _extensions(g: int):
    """The closed gap ints between g and g less PF, g first, by a Gray-code walk.

    Step k flips the PF member indexed by the lowest set bit of k, so the
    2^t candidates come one at a time and O(t) ints are held, never 2^t.
    """
    flips = [1 << x for x in _pf(g)]
    if len(flips) > MAX_ORACLE_TYPE:
        raise TypeTooLarge(f"type {len(flips)} exceeds the oracle guard")
    for k in range(1 << len(flips)):
        g ^= k and flips[(k & -k).bit_length() - 1]  # k = 0 tests g itself
        if _closed(g):
            yield g


def pf_bruteforce(s: NumericalSemigroup) -> set[int]:
    """Gaps x with x + n a member for every nonzero member n, by _pf."""
    if s.is_whole:
        raise WholeMonoid("the full monoid has no pseudo-Frobenius numbers")
    return set(_pf(_gap_int(s)))


def extensions_bruteforce(s: NumericalSemigroup) -> list[NumericalSemigroup]:
    """Every semigroup between s and s ∪ PF(s), by trying all 2^t unions.

    Independent of the pertinence shortcut: each candidate gets the direct
    closure test over all pairs of nonzero members (_extensions).

    The list runs by descending genus and, within a genus, by ascending
    minimal generators, which is ascending order of the gap bits read
    from 0 up (_bits).  Let A and B of equal genus first differ at x, a
    member of A only.  Then x is a minimal generator of A, as a sum of two
    smaller nonzero members of A would lie in B too; below x the two have
    the same members, so the same generators; and B has a generator above
    x, since otherwise its generators would be a proper prefix of A's and
    generate a proper subset of A, which has more gaps.  So A comes first
    by generators; by bits too, as A's string has 0 at x or ends before
    x, where B's has 1.  The candidates are sorted as gap ints
    (_extension_ints) and built only afterwards, with no generators.
    """
    return list(map(_semigroup, _extension_ints(s)))


def _extension_ints(s: NumericalSemigroup) -> list[int]:
    """The gap ints of extensions_bruteforce(s), in its order."""
    if s.is_whole:
        raise WholeMonoid("the full monoid is its only extension")
    return sorted(_extensions(_gap_int(s)), key=lambda g: (-g.bit_count(), _bits(g)))


def min_ichain_bfs(s: NumericalSemigroup) -> int:
    """Length of the shortest i-chain from s to the full monoid.

    Found without the closed form, by recursion over the ideal-extension
    graph: 0 for the full monoid, otherwise one more than the least value
    over the proper extensions of s, which _extensions lists as gap ints.
    """
    return _shortest(_gap_int(s, MAX_CATALOG_GENUS, "catalog"))


# Shortest chain length by gap int; 0 is the full monoid.  A proper
# extension has fewer gaps, so the extension graph is acyclic and the
# recursion ends.  Every node it reaches has genus at most the input's,
# which the guard keeps within MAX_CATALOG_GENUS = 12, so the memo holds at
# most the 1413 semigroups of the genus-12 catalog.
_steps = {0: 0}


def _shortest(g: int) -> int:
    if g not in _steps:
        _steps[g] = 1 + min(_shortest(h) for h in _extensions(g) if h != g)
    return _steps[g]


def pf_gap_search(max_genus: int) -> list[tuple[NumericalSemigroup, int, int]]:
    """Semigroups where iterating the full PF selection overshoots.

    Returns (s, complexity, mu_pf) triples with mu_pf > complexity, in
    catalog order.  The catalog's gap ints run by ascending genus, and
    S ∪ PF(S), whose gap int is g less PF(S), has fewer gaps than S, so
    each mu_pf is one more than the entry already kept for it.  An object
    is built only to read its complexity.  The second route, in the tests,
    steps each whole PF chain with the checked adjoin.
    """
    steps, out = {0: 0}, []
    for lvl in _levels(max_genus)[1:]:
        for g in lvl:
            k = steps[g] = 1 + steps[g & ~sum(1 << x for x in _pf(g))]
            if k > (c := complexity(s := _semigroup(g))):
                out.append((s, c, k))
    return out


# -- certification passes, each returns None or a counterexample report ----

def _first_mismatch(catalog: GenusCatalog, name: str, fast, slow, show) -> str | None:
    """The first member S ≠ ℕ of the catalog with fast(S) ≠ slow(S), reported by show."""
    for s in catalog.semigroups:
        if not s.is_whole and (a := fast(s)) != (b := slow(s)):
            return f"{name} mismatch at {_name(s)}: fast={show(a)} brute={show(b)}"
    return None


def check_pf(catalog: GenusCatalog) -> str | None:
    """pseudo_frobenius against the definitional scan, then str against _int_name.

    PF reads no generators, so the generators that str prints, by the fast
    rule, are compared with the oracle's rule on their own.
    """
    return (_first_mismatch(catalog, "pf", lambda s: set(s.pseudo_frobenius()),
                            pf_bruteforce, sorted)
            or _first_mismatch(catalog, "generators", str, lambda s: _int_name(_gap_int(s)), str))


def check_extensions(catalog: GenusCatalog) -> str | None:
    """Pertinent-subset extensions against the closure-filter scan, in order.

    Each side is a list of Apéry tuples, which is what equality of objects
    compares: the fast route's as built, the oracle's read off its sorted
    gap ints (_apery), so no oracle object is built.  An extension has no
    more gaps than its member, so it is a catalog member too, and each
    tuple is read once per call (``read``).
    """
    read = {}
    return _first_mismatch(catalog, "extensions",
                           lambda s: [d._apery for d in ideal_extensions(s)],
                           lambda s: [read.get(g) or read.setdefault(g, _apery(g))
                                      for g in _extension_ints(s)],
                           lambda aps: [_name(_from_apery(len(ap), ap)) for ap in aps])


def check_complexity(catalog: GenusCatalog) -> str | None:
    """⌊F/m⌋+1 against the gamma chain and against the shortest i-chain."""
    for s in catalog.semigroups:
        c = complexity(s)
        if c != (steps := mu(ThetaMap.GAMMA, s)):
            return f"complexity mismatch at {_name(s)}: closed-form={c} gamma-chain={steps}"
        if c != (shortest := min_ichain_bfs(s)):
            return f"complexity mismatch at {_name(s)}: closed-form={c} bfs={shortest}"
    return None


def check_tree(catalog: GenusCatalog) -> str | None:
    """Tree enumeration against the catalog, on fully covered classes.

    A semigroup with multiplicity m and complexity c has genus at most
    c(m−1), so the catalog covers the whole (m, c) class whenever
    c(m−1) ≤ max_genus.  The catalog must hold each semigroup once, and
    as many of each genus as A007323 lists.  The tree is walked on the
    Apéry tuples that count, enumerate_semigroups and export_dot walk, and
    parent and child are built from theirs.  An edge between covered
    classes must remove only generators of its parent's top block (strictly
    between (⌊F/m⌋+1)m and (⌊F/m⌋+2)m), give the child that the parent's
    closure-checked ``without`` builds, add one to the complexity, and
    lead back to its parent under gamma.  Each level is compared with its
    class as a multiset; only a report sorts, by name.
    """
    gmax = catalog.max_genus
    if repeated := [s for s, n in Counter(catalog.semigroups).items() if n > 1]:
        return f"catalog repeats {_name(repeated[0])}"
    if (counts := catalog.counts()) != (known := list(A007323[:gmax + 1])):
        return f"catalog counts {counts} differ from A007323 {known}"
    by_class: dict[tuple[int, int], Counter] = {}
    for s in catalog.semigroups:
        if not s.is_whole:
            by_class.setdefault((s.multiplicity, complexity(s)), Counter())[s] += 1
    for m in range(2, gmax + 2):
        # depth k holds complexity k+1, covered while (k+1)(m-1) <= gmax
        for k, lvl in enumerate(_walk(m, gmax // (m - 1) - 1, DEFAULT_NODE_CAP)):
            got = Counter()
            for p, ap, removed in lvl:
                got[child := _from_apery(m, ap)] += 1
                if p and (fault := _edge_fault(m, t := _from_apery(m, p), child, removed)):
                    return (f"tree edge mismatch at {_name(t)} minus {list(removed)}: "
                            f"child {_name(child)} {fault}")
            expected = by_class.get((m, k + 1), Counter())
            if got != expected:
                return (f"tree mismatch at m={m} c={k + 1}: "
                        f"tree={sorted(map(_name, got.elements()))} "
                        f"catalog={sorted(map(_name, expected.elements()))}")
    return None


def _edge_fault(m: int, t: NumericalSemigroup, child: NumericalSemigroup,
                removed: tuple[int, ...]) -> str | None:
    lo = (t.frobenius // m + 1) * m
    if not all(lo < x < lo + m for x in removed):
        return f"removes a generator outside ({lo}, {lo + m})"
    try:
        built = t.without(removed)
    except SemigroupError as err:
        return f"is refused by without: {err}"
    if built != child:
        return f"differs from {_name(built)}, which without builds"
    if complexity(child) != complexity(t) + 1:
        return f"has complexity {complexity(child)}, parent {complexity(t)}"
    up = child.adjoin(theta_apply(ThetaMap.GAMMA, child))
    return None if up == t else f"goes back to {_name(up)} under gamma"


CHECKS = {
    "pf": check_pf,
    "ext": check_extensions,
    "complexity": check_complexity,
    "tree": check_tree,
}
