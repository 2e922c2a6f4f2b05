"""The genealogy tree of numerical semigroups with a fixed multiplicity.

All semigroups of multiplicity m form a tree rooted at the ordinary
semigroup {0, m, →}.  A node's parent is obtained by filling in the top
gap block (the gamma selection); conversely the children of T are the
semigroups T∖A for nonempty sets A of minimal generators of T lying
above the threshold (⌊F(T)/m⌋+1)·m.  Complexity grows by exactly one
per edge, so the depth-n level is precisely the set of semigroups with
multiplicity m and complexity n+1, and walking the tree level by level
enumerates them all.

Prepending a copy of m to a semigroup (shift_embed) maps each level
injectively into the next, which is why the levels never shrink.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import LevelTooLarge, WholeMonoid
from .semigroup import NumericalSemigroup, _from_apery, from_gaps

DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class TreeLevel:
    """All semigroups of multiplicity ``multiplicity`` at depth ``depth``."""

    multiplicity: int
    depth: int
    members: tuple[NumericalSemigroup, ...]


def root(m: int) -> NumericalSemigroup:
    """The ordinary semigroup {0, m, →}, root of the multiplicity-m tree."""
    if m < 2:
        raise ValueError("multiplicity must be at least 2")
    return from_gaps(range(1, m))


def removal_candidates(t: NumericalSemigroup) -> tuple[int, ...]:
    """Minimal generators of t above (⌊F/m⌋+1)·m, the removable ones.

    They all lie strictly between (q+1)m and (q+2)m with q = ⌊F/m⌋,
    so there are at most m−1 of them; ``oracle.check_tree`` certifies this
    on every edge it walks.
    """
    if t.is_whole:
        raise WholeMonoid("the full monoid has no children")
    threshold = (t.frobenius // t.multiplicity + 1) * t.multiplicity
    return tuple(x for x in t.min_generators if x > threshold)


def child_edges(t: NumericalSemigroup) -> list[tuple[NumericalSemigroup, tuple[int, ...]]]:
    """(child, removed generators) pairs for every nonempty removable subset."""
    cand = removal_candidates(t)
    edges = []
    for mask in range(1, 1 << len(cand)):
        removed = tuple(cand[i] for i in range(len(cand)) if mask >> i & 1)
        edges.append((t.without(removed), removed))
    return edges


def children(t: NumericalSemigroup) -> list[NumericalSemigroup]:
    """All semigroups whose gamma step leads back to t."""
    return [child for child, _ in child_edges(t)]


def _walk(first, edges, depth: int, max_nodes: int):
    """Breadth-first levels 0..depth of the tree ``edges`` grows from ``first``.

    ``edges(t)`` lists t's (child, label) pairs.  Each level is a list of
    (parent, child, label) triples, level 0 being [(None, first, None)].
    Raises LevelTooLarge as soon as the nodes built, ``first`` included,
    pass ``max_nodes``.
    """
    lvl, built = [(None, first, None)], 1
    for _ in range(depth):
        yield lvl
        nxt = []
        for _, t, _ in lvl:
            for child, label in edges(t):
                nxt.append((t, child, label))
            if built + len(nxt) > max_nodes:
                raise LevelTooLarge(
                    f"tree below {first} exceeds the cap of {max_nodes} nodes")
        built += len(nxt)
        lvl = nxt
    yield lvl


def level(m: int, n: int, max_nodes: int = DEFAULT_NODE_CAP) -> TreeLevel:
    """The depth-n level of the multiplicity-m tree, sorted by generators.

    Raises LevelTooLarge as soon as the tree down to depth n passes
    ``max_nodes`` nodes.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    for lvl in _walk(root(m), child_edges, n, max_nodes):
        pass
    return TreeLevel(m, n, tuple(sorted((t for _, t, _ in lvl),
                                        key=lambda s: s.min_generators)))


def enumerate_semigroups(m: int, c: int,
                         max_nodes: int = DEFAULT_NODE_CAP) -> list[NumericalSemigroup]:
    """All numerical semigroups with multiplicity m and complexity c."""
    if c < 1:
        raise ValueError("complexity must be at least 1")
    return list(level(m, c - 1, max_nodes).members)


def count(m: int, c: int, max_nodes: int = DEFAULT_NODE_CAP) -> int:
    """How many semigroups have multiplicity m and complexity c."""
    return len(enumerate_semigroups(m, c, max_nodes))


def shift_embed(s: NumericalSemigroup) -> NumericalSemigroup:
    """({m}+S) ∪ {0}: same multiplicity, complexity one higher.

    Injective on each (multiplicity, complexity) class, which forces
    count(m, c) ≤ count(m, c+1).
    """
    if s.is_whole:
        raise WholeMonoid("the full monoid has no shift embedding")
    m = s.multiplicity
    ap = s.apery_set(m).elements
    return _from_apery(m, (0, *(w + m for w in ap[1:])))


def export_dot(m: int, max_depth: int, max_nodes: int = DEFAULT_NODE_CAP) -> str:
    """DOT digraph of the multiplicity-m tree down to ``max_depth``.

    Nodes are generator literals in breadth-first order; each edge is
    labeled with the removed generator set, e.g. {7,8}.  Raises
    LevelTooLarge as soon as the tree passes ``max_nodes`` nodes.
    """
    if max_depth < 0:
        raise ValueError("depth must be nonnegative")
    nodes, edges = [], []
    for lvl in _walk(root(m), child_edges, max_depth, max_nodes):
        for t, child, removed in lvl:
            nodes.append(f'  "{child}";')
            if t is not None:
                label = "{" + ",".join(str(x) for x in removed) + "}"
                edges.append(f'  "{t}" -> "{child}" [label="{label}"];')
    lines = [f'digraph "G({m})" {{', "  rankdir=TB;", *nodes, *edges, "}"]
    return "\n".join(lines) + "\n"
