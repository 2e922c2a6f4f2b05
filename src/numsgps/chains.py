"""Chains of ideal extensions and the complexity of a numerical semigroup.

An i-chain climbs from S to the full monoid through ideal-extension
steps.  The *complexity* C(S) is the least possible chain length; it has
the closed form ⌊F(S)/m(S)⌋ + 1, with C = 0 reserved for the full monoid
itself.  Repeatedly enlarging S by a pertinent selection θ(S) of its
gaps always reaches the full monoid in finitely many steps; μ(θ,S), the
number of those steps, is chain(θ, S).length and is bounded below by C(S).

Seven selections are provided.  Six pick pseudo-Frobenius numbers in
various ways; the seventh, gamma, picks every gap in the top block
[⌊F/m⌋·m, F] and is optimal: iterating it realizes a chain of length
exactly C(S), dropping the complexity by one per step.

Every selection is pertinent by proof, so no step checks closure.  The
gamma chain reads every link off Ap(S, m) of its first: with q = ⌊F/m⌋,
link k clamps each Kunz coordinate k_i = (w_i − i)/m to q + 1 − k.
Clamping every coordinate to one bound keeps the Kunz inequalities, so
each link is a semigroup, one comprehension over Ap(S, m) apiece.  The
other six pick members of PF(S) closed under sums that land in PF(S):
``pf``, ``upperhalf``, ``above-f-m`` and ``above-f-g`` keep every member
above a threshold, and a sum lies above both its parts; ``frob`` and
``min-half`` pick one x with 2x > F, whose double is a member.  They step
by extensions._extend, which also makes every ideal_extensions result.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ChainTooLong, WholeMonoid
from .extensions import _extend, is_ideal_extension
from .semigroup import WHOLE, NumericalSemigroup, _from_apery

__all__ = [
    "Classification",
    "IChain",
    "ThetaMap",
    "chain",
    "classify",
    "complexity",
    "theta_apply",
    "validate_chain",
]

# A chain keeps every link, and a gamma chain has ⌊F/m⌋ + 2 of them, up to
# 2^39 + 1 within MAX_FROBENIUS; a longer chain is refused before it is
# built.  The cap bounds links, not memory: a link holds m Apéry entries,
# about 0.4 kB at m = 2 (<2,200001>) but about 23.6 kB at m = 1024
# (<1024,16001>), so a chain within the cap can still take gigabytes
# (ROADMAP item 6).
MAX_CHAIN_LINKS = 1 << 17


class ThetaMap(Enum):
    """Named pertinent selections of gaps; values are the CLI tokens."""

    PF = "pf"
    FROBENIUS_ONLY = "frob"
    UPPER_HALF_PF = "upperhalf"
    ABOVE_F_MINUS_M = "above-f-m"
    ABOVE_F_MINUS_G = "above-f-g"
    MIN_ABOVE_HALF_F = "min-half"
    GAMMA = "gamma"


class Classification(Enum):
    WHOLE_MONOID = "whole-monoid"
    ORDINARY = "ordinary"
    ELEMENTARY_NOT_ORDINARY = "elementary-not-ordinary"
    GENERAL = "general"


@dataclass(frozen=True)
class IChain:
    """An ascending run of semigroups ending at the full monoid."""

    links: tuple[NumericalSemigroup, ...]

    @property
    def length(self) -> int:
        return len(self.links) - 1

    def __iter__(self):
        return iter(self.links)


def theta_apply(theta: ThetaMap, s: NumericalSemigroup) -> frozenset[int]:
    """The gap selection named by ``theta``; nonempty and pertinent for s ≠ ℕ.

    Halving comparisons are done on doubled integers (2x ≥ F, 2x > F),
    never through floating point.
    """
    if s.is_whole:
        raise WholeMonoid("gap selections are undefined for the full monoid")
    f = s.frobenius
    if theta is ThetaMap.GAMMA:
        lo = (f // s.multiplicity) * s.multiplicity
        return frozenset(x for x in range(lo, f + 1) if x not in s)
    if theta is ThetaMap.FROBENIUS_ONLY:
        return frozenset({f})
    pf = s.pseudo_frobenius()
    if theta is ThetaMap.PF:
        return frozenset(pf)
    if theta is ThetaMap.UPPER_HALF_PF:
        return frozenset(x for x in pf if 2 * x >= f)
    if theta is ThetaMap.ABOVE_F_MINUS_M:
        return frozenset(x for x in pf if x > f - s.multiplicity)
    if theta is ThetaMap.ABOVE_F_MINUS_G:
        return frozenset(x for x in pf if x > f - s.genus)
    if theta is ThetaMap.MIN_ABOVE_HALF_F:
        return frozenset({min(x for x in pf if 2 * x > f)})
    raise ValueError(f"unknown selection {theta!r}")


def chain(theta: ThetaMap, s: NumericalSemigroup) -> IChain:
    """Iterate S ← S ∪ θ(S) until the full monoid; the run is an i-chain.

    θ(S) is pertinent, so each link is the ideal extension S ∪ θ(S), built
    with no closure check.  Gamma links are read straight off Ap(S, m):
    with q = ⌊F/m⌋, link k is w_i ← min(w_i, (q + 1 − k)·m + i) for
    1 ≤ k ≤ q, as one clamp at qm leaves F in [(q − 1)m, qm), and ℕ ends
    the chain.  The other selections step by _extend.  Raises
    ChainTooLong for a chain of more than MAX_CHAIN_LINKS links, and for
    gamma, whose C(S) + 1 links are known, before the first link is built.
    """
    if theta is ThetaMap.GAMMA and not s.is_whole:
        if complexity(s) >= MAX_CHAIN_LINKS:
            raise ChainTooLong(f"chain of {s} exceeds {MAX_CHAIN_LINKS} links")
        m, ap = s.multiplicity, s._apery
        links = [_from_apery(m, tuple([w if w < t else t for w, t in zip(ap, range(b, b + m))]))
                 for b in range(s.frobenius // m * m, 0, -m)]
        return IChain((s, *links, WHOLE))
    links, cur = [s], s
    while not cur.is_whole:
        if len(links) > s.genus + 1:
            # each step strictly shrinks the gap set, so this cannot happen
            raise RuntimeError(f"selection {theta} failed to terminate on {s}")
        if len(links) == MAX_CHAIN_LINKS:
            raise ChainTooLong(f"chain of {s} exceeds {MAX_CHAIN_LINKS} links")
        cur = _extend(cur, theta_apply(theta, cur))
        links.append(cur)
    return IChain(tuple(links))


def complexity(s: NumericalSemigroup) -> int:
    """⌊F(S)/m(S)⌋ + 1, the minimal i-chain length; 0 for the full monoid."""
    if s.is_whole:
        return 0
    return s.frobenius // s.multiplicity + 1


def classify(s: NumericalSemigroup) -> Classification:
    """Complexity class: 0 whole monoid, 1 ordinary, 2 elementary, else general."""
    if s.is_whole:
        return Classification.WHOLE_MONOID
    if s.is_ordinary:
        return Classification.ORDINARY
    if s.frobenius < 2 * s.multiplicity:
        return Classification.ELEMENTARY_NOT_ORDINARY
    return Classification.GENERAL


def validate_chain(links) -> bool:
    """True iff consecutive links are ideal extensions and the last is ℕ."""
    links = list(links)
    if not links or not links[-1].is_whole:
        return False
    return all(is_ideal_extension(a, b) for a, b in zip(links, links[1:]))
