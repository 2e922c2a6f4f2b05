"""The genealogy tree of numerical semigroups with a fixed multiplicity.

All semigroups of multiplicity m form a tree rooted at the ordinary
semigroup {0, m, →}.  A node's parent is obtained by filling in the top
gap block (the gamma selection); conversely the children of T are the
semigroups T∖A for nonempty sets A of minimal generators of T lying
above the threshold (⌊F(T)/m⌋+1)·m.  Complexity grows by exactly one
per edge, so the depth-n level is precisely the set of semigroups with
multiplicity m and complexity n+1, and walking the tree level by level
enumerates them all.

The tree has one edge route, _apery_edges, on Apéry tuples Ap(T, m):
removing the generator w_i raises w_i by m, so count and export_dot
build no semigroup object past the root, and enumerate_semigroups builds
only the last level.  No public call lists a node's children; a level
comes from enumerate_semigroups, and the edges with their labels from
export_dot.  count does not build its last level at all: it stops one
level short and counts 2^k − 1 children for each node with k removable
generators.  A node's removable generators (_candidates) are the w_i
above ⌊max w/m⌋·m that are no sum of two nonzero members, found by
semigroup._generators_above, the rule that derives every instance's
minimal generators; export_dot names each node by the same rule with no
bound.  oracle.check_tree walks the same tuples by _walk and certifies
every edge: the child read off its tuple must equal the parent's
closure-checked ``without`` of the removed generators.

Prepending a copy of m to a semigroup (shift_embed) maps each level
injectively into the next, which is why the levels never shrink.
"""
from __future__ import annotations

from math import inf

from .errors import LevelTooLarge, WholeMonoid
from .semigroup import (NumericalSemigroup, _check_ints, _check_multiplicity, _from_apery,
                        _generators_above)

__all__ = [
    "count",
    "enumerate_semigroups",
    "export_dot",
    "root",
    "shift_embed",
]

DEFAULT_NODE_CAP = 10_000_000


def root(m: int) -> NumericalSemigroup:
    """The ordinary semigroup {0, m, →}, root of the multiplicity-m tree."""
    _check_ints((m,), -inf, "multiplicity must be an integer")
    if m < 2:
        raise ValueError("multiplicity must be at least 2")
    _check_multiplicity(m)
    return _from_apery(m, (0, *range(m + 1, 2 * m)))


def _candidates(ap):
    """The removable generators of Ap(T, m): the minimal generators above (⌊F/m⌋+1)·m.

    They all lie strictly between (q+1)m and (q+2)m with q = ⌊F/m⌋,
    so there are at most m−1 of them; ``oracle.check_tree`` certifies this
    on every edge it walks.
    """
    return _generators_above(ap, max(ap) // len(ap) * len(ap))  # (⌊F/m⌋+1)·m, as F = max w − m


def _apery_edges(ap):
    """(child, removed) for each nonempty set of removable generators of Ap(T, m).

    Removing w_i raises it by m.  Candidate j adds a stage that extends
    every earlier subset by it, which keeps the subsets in bit-mask order.
    """
    m, edges = len(ap), [(ap, ())]
    for x in _candidates(ap):
        i = x % m
        for c, r in edges[:]:
            edges.append((c[:i] + (x + m,) + c[i + 1:], r + (x,)))
            yield edges[-1]


def _walk(m: int, depth: int, max_nodes: int):
    """Breadth-first levels 0..depth of the multiplicity-m tree, on Apéry tuples.

    Each level is a list of (parent, child, removed) triples, the child
    grown from the parent by _apery_edges, level 0 being
    [(None, Ap(root(m), m), None)].  Raises LevelTooLarge on the first
    node past ``max_nodes``, the root included.  Every level holds a node,
    as shift_embed maps each level into the next, so depth ≥ max_nodes is
    refused before the root is expanded.
    """
    _check_ints((max_nodes,), -inf, "node cap must be an integer")
    r = root(m)
    if depth >= max_nodes:
        raise _too_large(r, max_nodes)
    lvl, built = [(None, r._apery, None)], 1
    for _ in range(depth):
        yield lvl
        nxt = []
        for _, ap, _ in lvl:
            for child, removed in _apery_edges(ap):
                built += 1
                if built > max_nodes:
                    raise _too_large(r, max_nodes)
                nxt.append((ap, child, removed))
        lvl = nxt
    yield lvl


def _too_large(r, max_nodes):
    return LevelTooLarge(f"tree below {r} exceeds the cap of {max_nodes} nodes")


def enumerate_semigroups(m: int, c: int,
                         max_nodes: int = DEFAULT_NODE_CAP) -> list[NumericalSemigroup]:
    """All numerical semigroups with multiplicity m and complexity c, sorted by generators.

    They are the depth c−1 level of the multiplicity-m tree.  Raises
    LevelTooLarge as soon as the tree down to that depth passes
    ``max_nodes`` nodes.
    """
    _check_ints((c,), -inf, "complexity must be an integer")
    if c < 1:
        raise ValueError("complexity must be at least 1")
    for last in _walk(m, c - 1, max_nodes):
        pass
    return sorted((_from_apery(m, ap) for _, ap, _ in last), key=lambda s: s.min_generators)


def count(m: int, c: int, max_nodes: int = DEFAULT_NODE_CAP) -> int:
    """How many semigroups have multiplicity m and complexity c.

    The last level is counted, not built: a node with k removable
    generators has exactly 2^k − 1 children, one per nonempty subset, so
    the walk stops one level short and sums those.  The node cap covers
    the counted level as if it were built.
    """
    _check_ints((c,), -inf, "complexity must be an integer")
    if c < 2:
        return len(enumerate_semigroups(m, c, max_nodes))
    built = 0
    for lvl in _walk(m, c - 2, max_nodes):
        built += len(lvl)
    leaves = sum(2 ** len(_candidates(ap)) - 1 for _, ap, _ in lvl)
    if built + leaves > max_nodes:
        raise _too_large(root(m), max_nodes)
    return leaves


def shift_embed(s: NumericalSemigroup) -> NumericalSemigroup:
    """({m}+S) ∪ {0}: same multiplicity, complexity one higher.

    Injective on each (multiplicity, complexity) class, which forces
    count(m, c) ≤ count(m, c+1).
    """
    if s.is_whole:
        raise WholeMonoid("the full monoid has no shift embedding")
    m = s.multiplicity
    return _from_apery(m, (0, *(w + m for w in s._apery[1:])))


def export_dot(m: int, max_depth: int, max_nodes: int = DEFAULT_NODE_CAP) -> str:
    """DOT digraph of the multiplicity-m tree down to ``max_depth``.

    Nodes are generator literals in breadth-first order; each edge is
    labeled with the removed generator set, e.g. {7,8}.  Raises
    LevelTooLarge as soon as the tree passes ``max_nodes`` nodes.
    """
    _check_ints((max_depth,), -inf, "depth must be an integer")
    if max_depth < 0:
        raise ValueError("depth must be nonnegative")
    nodes, edges, names = [], [], {}
    for lvl in _walk(m, max_depth, max_nodes):
        for t, ap, removed in lvl:
            names[ap] = name = "<" + ",".join(str(g) for g in (m, *_generators_above(ap, 0))) + ">"
            nodes.append(f'  "{name}";')
            if t is not None:
                label = "{" + ",".join(str(x) for x in removed) + "}"
                edges.append(f'  "{names[t]}" -> "{name}" [label="{label}"];')
    lines = [f'digraph "G({m})" {{', "  rankdir=TB;", *nodes, *edges, "}"]
    return "\n".join(lines) + "\n"
