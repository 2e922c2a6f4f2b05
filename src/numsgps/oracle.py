"""Brute-force certifiers for the closed-form results.

Everything here recomputes an answer from first principles so the fast
implementations can be checked against it on small instances: a complete
catalog of semigroups up to a genus bound, pseudo-Frobenius numbers
straight from the definition, ideal extensions by filtering all 2^t
subsets with an explicit closure test over every pair (run on one int
bitset per candidate; the candidates that pass are sorted by their bits,
not their generators, and each is built from its own least member per
class, not through adjoin or from_gaps), and the minimal i-chain length
by a memoised recursion over the extension graph, which is acyclic
because every proper extension has fewer gaps.  The memo is keyed by gap
set, which S ∪ A gives as the gaps of S less A, so an extension is built
only on the first visit to its key; the recursion shares the catalog's
genus bound, 12, so the memo holds at most the 1413 semigroups of the
genus-12 catalog.  The catalog walks the genus tree on Apéry sets:
removing a minimal generator x > F from S is closed by proof, so each
child is built by raising one Apéry element, with no checked without;
check_tree's multiplicity tree, whose children are checked, and the
known counts n_g certify the walk.
The search for semigroups where the full PF selection overshoots the
complexity walks the catalog by ascending genus with its chain lengths
keyed by gap set too, and reads each one off the entry for the gaps of S
less PF(S), which is S ∪ PF(S), without building it.  The ``verify`` CLI
command and the test suite both run these.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .chains import ThetaMap, complexity, mu, theta_apply
from .errors import GenusTooLarge, TypeTooLarge, WholeMonoid
from .extensions import _extend, _pertinent, ideal_extensions
from .genealogy import DEFAULT_NODE_CAP, _walk, child_edges, root
from .semigroup import WHOLE, NumericalSemigroup, _from_apery

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
# pf_bruteforce lists every gap and every member up to F, so a larger genus
# is refused before either list is made.  It stays well above genus 912,
# which the tests reach with <48,77,101>.
MAX_ORACLE_GENUS = 1 << 15


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
    certifies the latter).  Each child is built by proof (_genus_edges),
    with no closure check.
    """
    if max_genus < 0:
        raise ValueError("genus bound must be nonnegative")
    if max_genus > MAX_CATALOG_GENUS:
        raise GenusTooLarge(
            f"genus {max_genus} exceeds the catalog guard {MAX_CATALOG_GENUS}")
    return GenusCatalog(max_genus, tuple(
        tuple(sorted((s for _, s, _ in lvl), key=lambda s: s.min_generators))
        for lvl in _walk(WHOLE, _genus_edges, max_genus, DEFAULT_NODE_CAP)))


def _genus_edges(s: NumericalSemigroup):
    """(S ∖ {x}, x) for each minimal generator x > F, ascending, built from Ap(S, m).

    Removing x ≠ m leaves m the multiplicity and raises w_{x mod m} = x by
    m, since x + m is a member.  x = m exceeds F only when S is ordinary or
    ℕ, and S ∖ {m} is then the ordinary semigroup of multiplicity m + 1.
    """
    m, ap = s.multiplicity, s._apery
    for x in s.min_generators:
        if x > s.frobenius:
            yield (root(m + 1) if x == m
                   else _from_apery(m, (*ap[:x % m], x + m, *ap[x % m + 1:]))), x


def pf_bruteforce(s: NumericalSemigroup) -> set[int]:
    """Gaps x with x + n a member for every nonzero member n.

    Testing n up to F(s)+1 is exhaustive: for larger n the sum already
    exceeds the Frobenius number.
    """
    if s.genus > MAX_ORACLE_GENUS:
        raise GenusTooLarge(f"genus {s.genus} exceeds the oracle guard {MAX_ORACLE_GENUS}")
    if s.is_whole:
        raise WholeMonoid("the full monoid has no pseudo-Frobenius numbers")
    nonzero = [n for n in s.small_elements if n]
    return {x for x in s.gaps if all(x + n in s for n in nonzero)}


def extensions_bruteforce(s: NumericalSemigroup) -> list[NumericalSemigroup]:
    """Every semigroup between s and s ∪ PF(s), by trying all 2^t unions.

    Independent of the pertinence shortcut: each candidate gets a direct
    closure test over all pairs of nonzero members.  The members up to F
    are the bits of one int, and the candidates come one at a time in
    Gray-code order (step k flips the PF member indexed by the lowest set
    bit of k), so O(t) ints are held, never 2^t.  A pair a ≤ b with
    a + b ≤ F has a ≤ F/2, and a sum past F is a member, so a candidate
    is closed iff (cand << a) & ~cand has no bit up to F for every member
    a with m ≤ a ≤ F/2, m its least nonzero member.

    The list runs by descending genus and, within a genus, by ascending
    minimal generators, which is descending order of the member bits read
    from 0 up.  Let A and B of equal genus first differ at x, a member of
    A only.  Then x is a minimal generator of A, as a sum of two smaller
    nonzero members of A would lie in B too; below x the two have the
    same members, so the same generators; and B has a generator above x,
    since otherwise its generators would be a proper prefix of A's and
    generate a proper subset of A, which has more gaps.  So A comes first
    both ways.  Each closed candidate is therefore kept as its genus (the
    0s of its bit string), that string and m, and is built only after the
    sort, from Ap(cand, m) read off the bits class by class by _from_apery,
    with no round robin, no checked edit and no generators.
    """
    if s.is_whole:
        raise WholeMonoid("the full monoid is its only extension")
    pf = sorted(pf_bruteforce(s))
    if len(pf) > MAX_ORACLE_TYPE:
        raise TypeTooLarge(f"type {len(pf)} exceeds the oracle guard")
    f, closed = s.frobenius, []
    low = (1 << f + 1) - 1  # bits 0..F
    cand = sum(1 << x for x in s.small_elements if x <= f)
    flips = [1 << x for x in pf]
    for k in range(1 << len(pf)):
        cand ^= k and flips[(k & -k).bit_length() - 1]  # k = 0 tests s itself
        bits = bin(cand | low << f + 1)[:1:-1]  # LSB first, with F+1..2F+1 in
        m, holes = bits.index("1", 1), cand ^ low
        if not any(cand << a & holes for a in range(m, f // 2 + 1) if bits[a] == "1"):
            closed.append((bits.count("0"), bits, m))  # bits differ, so m never decides
    return [_from_apery(m, tuple(i + m * bits[i::m].index("1") for i in range(m)))
            for _, bits, m in sorted(closed, reverse=True)]


def min_ichain_bfs(s: NumericalSemigroup) -> int:
    """Length of the shortest i-chain from s to the full monoid.

    Found without the closed form, by recursion over the ideal-extension
    graph: 0 for the full monoid, otherwise one more than the least value
    over the proper extensions of s.  The graph is acyclic (a proper
    extension has fewer gaps) and results are memoised across calls, keyed
    by gap set: S ∪ A has the gaps of S less A, so each pertinent A gives
    its extension's key without building it, and the extension is built
    only on the first visit to that key.
    """
    if s.genus > MAX_CATALOG_GENUS:
        raise GenusTooLarge(
            f"genus {s.genus} exceeds the catalog guard {MAX_CATALOG_GENUS}")
    return _shortest(s, sum(1 << g for g in s.gaps))


# Shortest chain length by gap set, one bit per gap; 0 is the full monoid.
# A proper extension has fewer gaps, so the extension graph is acyclic and
# the recursion ends.  Every node it reaches has genus at most the input's,
# which the guard keeps within MAX_CATALOG_GENUS = 12, so the memo holds at
# most the 1413 semigroups of the genus-12 catalog.
_steps = {0: 0}


def _shortest(s: NumericalSemigroup, gaps: int) -> int:
    if gaps not in _steps:
        steps = []
        for a in _pertinent(s)[1:]:  # () is s itself
            key = gaps & ~sum(1 << x for x in a)
            steps.append(_steps[key] if key in _steps else _shortest(_extend(s, a), key))
        _steps[gaps] = 1 + min(steps)
    return _steps[gaps]


def pf_gap_search(max_genus: int) -> list[tuple[NumericalSemigroup, int, int]]:
    """Semigroups where iterating the full PF selection overshoots.

    Returns (s, complexity, mu_pf) triples with mu_pf > complexity, in
    catalog order.  The catalog runs by ascending genus, and S ∪ PF(S) has
    fewer gaps than S, so each mu_pf is one more than the entry already
    kept for S ∪ PF(S).  The entries are keyed by gap set, one bit per gap
    as in _steps, and S ∪ PF(S) has the gaps of S less PF(S), so its entry
    is read without building it.  The second route, in the tests, steps
    each whole PF chain with the checked adjoin.
    """
    steps = {0: 0}
    out = []
    for s in enumerate_by_genus(max_genus).semigroups:
        if s.is_whole:
            continue
        gaps = sum(1 << g for g in s.gaps)
        k = steps[gaps] = 1 + steps[gaps & ~sum(1 << x for x in s.pseudo_frobenius())]
        c = complexity(s)
        if k > c:
            out.append((s, c, k))
    return out


# -- certification passes, each returns None or a counterexample report ----

def _first_mismatch(catalog: GenusCatalog, name: str, fast, slow, show) -> str | None:
    """The first member S ≠ ℕ of the catalog with fast(S) ≠ slow(S), reported by show."""
    for s in catalog.semigroups:
        if not s.is_whole and (a := fast(s)) != (b := slow(s)):
            return f"{name} mismatch at {s}: fast={show(a)} brute={show(b)}"
    return None


def check_pf(catalog: GenusCatalog) -> str | None:
    """pseudo_frobenius against the definitional scan."""
    return _first_mismatch(catalog, "pf", lambda s: set(s.pseudo_frobenius()),
                           pf_bruteforce, sorted)


def check_extensions(catalog: GenusCatalog) -> str | None:
    """Pertinent-subset extensions against the closure-filter scan."""
    return _first_mismatch(catalog, "extensions", ideal_extensions, extensions_bruteforce,
                           lambda ds: [str(d) for d in ds])


def check_complexity(catalog: GenusCatalog) -> str | None:
    """⌊F/m⌋+1 against the gamma chain and against the shortest i-chain."""
    for s in catalog.semigroups:
        c = complexity(s)
        steps = mu(ThetaMap.GAMMA, s)
        if c != steps:
            return f"complexity mismatch at {s}: closed-form={c} gamma-chain={steps}"
        shortest = min_ichain_bfs(s)
        if c != shortest:
            return f"complexity mismatch at {s}: closed-form={c} bfs={shortest}"
    return None


def check_tree(catalog: GenusCatalog) -> str | None:
    """Tree enumeration against the catalog, on fully covered classes.

    A semigroup with multiplicity m and complexity c has genus at most
    c(m−1), so the catalog covers the whole (m, c) class whenever
    c(m−1) ≤ max_genus.  The catalog must hold each semigroup once.  An
    edge between covered classes must remove only generators of its
    parent's top block (strictly between (⌊F/m⌋+1)m and (⌊F/m⌋+2)m), keep
    m, add one to the complexity, and lead back to its parent under gamma.
    """
    gmax = catalog.max_genus
    if repeated := [s for s, n in Counter(catalog.semigroups).items() if n > 1]:
        return f"catalog repeats {repeated[0]}"
    by_class: dict[tuple[int, int], list[NumericalSemigroup]] = {}
    for s in sorted(catalog.semigroups, key=lambda s: s.min_generators):
        if not s.is_whole:
            by_class.setdefault((s.multiplicity, complexity(s)), []).append(s)
    for m in range(2, gmax + 2):
        # depth k holds complexity k+1, covered while (k+1)(m-1) <= gmax
        levels = _walk(root(m), child_edges, gmax // (m - 1) - 1, DEFAULT_NODE_CAP)
        for k, lvl in enumerate(levels):
            for t, child, removed in lvl if k else ():
                if fault := _edge_fault(t, child, removed):
                    return (f"tree edge mismatch at {t} minus {list(removed)}: "
                            f"child {child} {fault}")
            got = sorted((s for _, s, _ in lvl), key=lambda s: s.min_generators)
            expected = by_class.get((m, k + 1), [])
            if got != expected:
                return (f"tree mismatch at m={m} c={k + 1}: "
                        f"tree={[str(s) for s in got]} "
                        f"catalog={[str(s) for s in expected]}")
    return None


def _edge_fault(t: NumericalSemigroup, child: NumericalSemigroup,
                removed: tuple[int, ...]) -> str | None:
    m = t.multiplicity
    lo = (t.frobenius // m + 1) * m
    if not all(lo < x < lo + m for x in removed):
        return f"removes a generator outside ({lo}, {lo + m})"
    if child.multiplicity != m:
        return f"has multiplicity {child.multiplicity}"
    if complexity(child) != complexity(t) + 1:
        return f"has complexity {complexity(child)}, parent {complexity(t)}"
    up = child.adjoin(theta_apply(ThetaMap.GAMMA, child))
    return None if up == t else f"goes back to {up} under gamma"


CHECKS = {
    "pf": check_pf,
    "ext": check_extensions,
    "complexity": check_complexity,
    "tree": check_tree,
}
