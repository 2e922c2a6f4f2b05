import hashlib
import re
import time

import pytest

from brute import kunz_count
from numsgps import genealogy, oracle, semigroup
from numsgps.chains import complexity
from numsgps.errors import LevelTooLarge, WholeMonoid
from numsgps.genealogy import (child_edges, count, enumerate_semigroups,
                               export_dot, removal_candidates, root, shift_embed)
from numsgps.oracle import enumerate_by_genus, pf_gap_search
from numsgps.semigroup import WHOLE, NumericalSemigroup

G2_DOT = """digraph "G(2)" {
  rankdir=TB;
  "<2,3>";
  "<2,5>";
  "<2,7>";
  "<2,3>" -> "<2,5>" [label="{3}"];
  "<2,5>" -> "<2,7>" [label="{5}"];
}
"""


def test_root():
    assert root(2).min_generators == (2, 3)
    assert root(3).min_generators == (3, 4, 5)
    assert root(5).is_ordinary and root(5).multiplicity == 5
    with pytest.raises(ValueError):
        root(1)


def test_removal_candidates():
    assert removal_candidates(root(3)) == (4, 5)
    assert removal_candidates(NumericalSemigroup(3, 7, 8)) == (7, 8)
    assert removal_candidates(NumericalSemigroup(2, 3)) == (3,)
    assert removal_candidates(NumericalSemigroup(3, 7)) == ()  # leaf
    with pytest.raises(WholeMonoid):
        removal_candidates(WHOLE)


def test_removal_candidates_keep_the_generator_rule(catalog10):
    # the Apéry-tuple rule against the definition on minimal generators
    for t in catalog10.semigroups:
        if t.is_whole:
            continue
        m = t.multiplicity
        threshold = (t.frobenius // m + 1) * m
        assert removal_candidates(t) == tuple(
            x for x in t.min_generators if x > threshold)


def test_candidates_sit_in_one_block(catalog10):
    for t in catalog10.semigroups:
        if t.is_whole:
            continue
        m = t.multiplicity
        lo = (t.frobenius // m + 1) * m
        cand = removal_candidates(t)
        assert len(cand) <= m - 1
        assert all(lo < x < lo + m for x in cand)


def test_children_of_the_ordinary_root():
    kids = [c for c, _ in child_edges(root(3))]
    assert [k.min_generators for k in kids] == [(3, 5, 7), (3, 4), (3, 7, 8)]


def test_children_deeper():
    kids = [c for c, _ in child_edges(NumericalSemigroup(3, 7, 8))]
    assert [k.min_generators for k in kids] == [(3, 8, 10), (3, 7, 11), (3, 10, 11)]
    assert [c.min_generators for c, _ in child_edges(NumericalSemigroup(2, 3))] == [(2, 5)]
    assert child_edges(NumericalSemigroup(3, 7)) == []


def test_child_edges_labels():
    edges = child_edges(root(3))
    assert [removed for _, removed in edges] == [(4,), (5,), (4, 5)]


def test_children_invariants(catalog8):
    for t in catalog8.semigroups:
        if t.is_whole:
            continue
        for child, _ in child_edges(t):
            assert child.multiplicity == t.multiplicity
            assert complexity(child) == complexity(t) + 1


def test_level_m3():
    assert {s.min_generators for s in enumerate_semigroups(3, 2)} == {
        (3, 5, 7), (3, 4), (3, 7, 8)}
    assert {s.min_generators for s in enumerate_semigroups(3, 3)} == {
        (3, 5), (3, 8, 10), (3, 7, 11), (3, 10, 11)}
    assert {s.min_generators for s in enumerate_semigroups(3, 4)} == {
        (3, 8, 13), (3, 7), (3, 11, 13), (3, 10, 14), (3, 13, 14)}


def test_level_m2_is_a_single_column():
    for k in range(11):
        members = enumerate_semigroups(2, k + 1)
        assert len(members) == 1
        assert members[0].min_generators == (2, 2 * k + 3)


def test_level_zero_and_errors():
    assert enumerate_semigroups(7, 1) == [root(7)]
    with pytest.raises(ValueError):
        enumerate_semigroups(3, 0)
    with pytest.raises(LevelTooLarge):
        enumerate_semigroups(5, 4, max_nodes=10)


@pytest.mark.parametrize("call, message", [
    (lambda: root(2.5), "multiplicity must be an integer, got 2.5"),
    (lambda: count(4, 2.5), "complexity must be an integer, got 2.5"),
    (lambda: enumerate_semigroups(4, 2.5), "complexity must be an integer, got 2.5"),
    (lambda: enumerate_semigroups(3, True), "complexity must be an integer, got True"),
    (lambda: export_dot(4, 1.5), "depth must be an integer, got 1.5"),
    (lambda: export_dot(4, True), "depth must be an integer, got True"),
    (lambda: count(4, 3, max_nodes=2.5), "node cap must be an integer, got 2.5"),
    (lambda: enumerate_by_genus(2.5), "genus bound must be an integer, got 2.5"),
    (lambda: pf_gap_search(3.5), "genus bound must be an integer, got 3.5"),
    # an int out of range gets its range's message
    (lambda: root(1), "multiplicity must be at least 2"),
    (lambda: enumerate_semigroups(3, 0), "complexity must be at least 1"),
    (lambda: export_dot(4, -1), "depth must be nonnegative"),
    (lambda: enumerate_by_genus(-1), "genus bound must be nonnegative"),
])
def test_walk_and_catalog_arguments_are_checked_first(monkeypatch, call, message):
    # each argument is refused before a tree node or catalog level is built
    def refuse(*args):
        raise AssertionError("work started")
    monkeypatch.setattr(genealogy, "_from_apery", refuse)
    monkeypatch.setattr(oracle, "_generators", refuse)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_level_cap_counts_the_whole_walk():
    # G(2) is one column, so depth 9 is one node but the walk builds ten
    with pytest.raises(LevelTooLarge):
        enumerate_semigroups(2, 10, max_nodes=5)
    assert enumerate_semigroups(2, 10, max_nodes=10) == [NumericalSemigroup(2, 21)]


def test_enumerate_semigroups():
    got = enumerate_semigroups(3, 4)
    assert {s.min_generators for s in got} == {
        (3, 8, 13), (3, 7), (3, 11, 13), (3, 10, 14), (3, 13, 14)}
    assert enumerate_semigroups(4, 1) == [root(4)]
    with pytest.raises(ValueError):
        enumerate_semigroups(3, 0)


def test_enumerate_members_have_the_advertised_class():
    for m, c in [(3, 3), (4, 2), (5, 3), (6, 2)]:
        for s in enumerate_semigroups(m, c):
            assert s.multiplicity == m
            assert complexity(s) == c


def test_count():
    assert count(3, 2) == 3 and count(3, 3) == 4 and count(3, 4) == 5
    assert count(2, 9) == 1
    assert count(4, 2) == 7 and count(4, 3) == 15
    for m in range(2, 7):
        assert count(m, 1) == 1
        assert count(m, 2) == 2 ** (m - 1) - 1  # every nonempty removal works


@pytest.mark.parametrize("m, c, expected", [
    (8, 4, 4463), (6, 5, 785), (7, 4, 1160), (10, 3, 7931),
    (3, 4, 5), (4, 5, 37), (5, 4, 87), (6, 3, 138), (7, 3, 372),
])
def test_count_matches_the_kunz_scan(m, c, expected):
    # classes beyond the genus-12 catalog, against an independent scan
    assert count(m, c) == kunz_count(m, c) == expected


def test_count_matches_the_kunz_scan_on_small_classes():
    for m in range(2, 6):
        for c in range(1, 5):
            assert count(m, c) == kunz_count(m, c), (m, c)


def test_levels_match_a_walk_through_child_edges():
    for m in range(2, 7):
        frontier = [root(m)]
        for depth in range(4):
            assert enumerate_semigroups(m, depth + 1) == sorted(
                frontier, key=lambda s: s.min_generators)
            frontier = [child for t in frontier for child, _ in child_edges(t)]


def test_count_honours_the_node_cap():
    with pytest.raises(LevelTooLarge):
        count(2, 10, max_nodes=5)
    assert count(2, 10, max_nodes=10) == 1


def test_count_of_the_last_level_matches_building_it():
    # count sums 2^k - 1 over the level above; enumerate_semigroups and the Kunz scan
    # build or scan it
    for m in range(2, 8):
        for c in range(1, 6):
            assert count(m, c) == len(enumerate_semigroups(m, c)) == kunz_count(m, c), (m, c)


def test_count_cap_covers_the_counted_level():
    # G(4) down to depth 2 has 1 + 7 + 15 nodes, the last 15 counted, not built
    for walk in (count, enumerate_semigroups):
        with pytest.raises(LevelTooLarge, match="tree below <4,5,6,7> exceeds the cap of 22 nodes"):
            walk(4, 3, max_nodes=22)
    assert count(4, 3, max_nodes=23) == len(enumerate_semigroups(4, 3, max_nodes=23)) == 15


@pytest.mark.parametrize("walk, nodes", [
    (lambda cap: enumerate_semigroups(3, 1, max_nodes=cap), 1),
    (lambda cap: count(3, 1, max_nodes=cap), 1),
    (lambda cap: count(3, 2, max_nodes=cap), 4),  # <3,4,5> and its 3 counted children
    (lambda cap: export_dot(3, 0, max_nodes=cap), 1),
], ids=["level", "count_c1", "count_c2", "export_dot"])
def test_node_cap_counts_the_root(walk, nodes):
    # every node from the root on counts, so a cap of 0 refuses even the root
    for cap in (0, 1):
        if cap < nodes:
            with pytest.raises(LevelTooLarge, match=f"<3,4,5> exceeds the cap of {cap} nodes"):
                walk(cap)
        else:
            walk(cap)


def test_count_does_not_build_its_last_level():
    start = time.process_time()
    assert count(20, 2) == 2 ** 19 - 1
    assert time.process_time() - start < 0.05


@pytest.mark.parametrize("walk", [lambda: count(20, 2, max_nodes=10),
                                  lambda: export_dot(20, 1, max_nodes=10)],
                         ids=["count", "export_dot"])
def test_node_cap_fires_before_the_children_exist(walk):
    # the root of G(20) has 2^19 - 1 children; the walk stops at its eleventh node
    start = time.process_time()
    with pytest.raises(LevelTooLarge):
        walk()
    assert time.process_time() - start < 0.05


@pytest.mark.parametrize("walk", [lambda: count(2, 10**9), lambda: export_dot(2, 10**9)],
                         ids=["count", "export_dot"])
def test_node_cap_refuses_a_depth_past_it_first(walk):
    # each level holds a node, so a depth past the default cap is refused
    # before the root is expanded, not after 10^7 nodes
    start = time.process_time()
    with pytest.raises(LevelTooLarge, match="tree below <2,3> exceeds the cap of 10000000 nodes"):
        walk()
    assert time.process_time() - start < 0.1


def test_count_monotone_in_complexity():
    for m in range(2, 7):
        counts = [count(m, c) for c in range(1, 7)]
        assert counts == sorted(counts), (m, counts)


def test_shift_embed():
    assert shift_embed(NumericalSemigroup(3, 4)).min_generators == (3, 7, 11)
    assert shift_embed(NumericalSemigroup(2, 5)).min_generators == (2, 7)
    shifted_root = shift_embed(root(4))
    assert shifted_root.small_elements == (0, 4, 8)
    assert shifted_root.min_generators == (4, 9, 10, 11)
    with pytest.raises(WholeMonoid):
        shift_embed(WHOLE)


def test_shift_embed_invariants(catalog10):
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        t = shift_embed(s)
        assert t.multiplicity == s.multiplicity
        assert t.frobenius == s.frobenius + s.multiplicity
        assert complexity(t) == complexity(s) + 1


def test_shift_embed_injective_into_next_class():
    for m in range(2, 6):
        for c in range(1, 5):
            cls = enumerate_semigroups(m, c)
            image = [shift_embed(s) for s in cls]
            assert len(set(image)) == len(image)
            target = set(enumerate_semigroups(m, c + 1))
            assert all(t in target for t in image)


def test_levels_are_disjoint():
    for m in (3, 4):
        seen = set()
        for depth in range(5):
            members = set(enumerate_semigroups(m, depth + 1))
            assert not (members & seen)
            seen |= members


def test_export_dot_g2():
    assert export_dot(2, 2) == G2_DOT


def test_export_dot_shapes():
    dot = export_dot(3, 1)
    assert dot.count('";') == 4
    assert dot.count("->") == 3
    for label in ("{4}", "{5}", "{4,5}"):
        assert f'[label="{label}"]' in dot
    single = export_dot(6, 0)
    assert single.count('";') == 1 and "->" not in single
    with pytest.raises(ValueError):
        export_dot(3, -1)


@pytest.mark.parametrize("m, depth, size, edges, sha256", [
    (5, 4, 21898, 294, "1cfa6fa1a353648165773c546f4711f30152a5e2c0487544e7812c6888a81892"),
    (6, 3, 44574, 539, "4d28653944a2e09f062ed9b59bd089c6089ea5696444b30de7b78e527faea425"),
    (4, 5, 9046, 135, "60bdff1dcc3e8e7745fd172ff1cd10beee722e0172bf9812e8ecdde9eecf47bf"),
])
def test_export_dot_bytes_are_pinned(m, depth, size, edges, sha256):
    dot = export_dot(m, depth).encode()
    assert (len(dot), dot.count(b" -> ")) == (size, edges)
    assert hashlib.sha256(dot).hexdigest() == sha256


def test_export_dot_derives_each_name_once(monkeypatch):
    # naming a node derives all its generators (bound 0), once per node
    calls = []

    def counted(ap, bound):
        calls.append(bound)
        return derive(ap, bound)
    derive = semigroup._generators_above
    monkeypatch.setattr(semigroup, "_generators_above", counted)
    monkeypatch.setattr(genealogy, "_generators_above", counted)
    dot = export_dot(5, 4)
    assert calls.count(0) == dot.count('";') == 295


def test_export_dot_builds_only_the_root(monkeypatch):
    # the walk runs on Apéry tuples; only root() builds a semigroup
    built = []

    def counted(m, ap):
        built.append(ap)
        return build(m, ap)
    build = genealogy._from_apery
    monkeypatch.setattr(genealogy, "_from_apery", counted)
    dot = export_dot(5, 4)
    assert len(built) == 1 and dot.count('";') == 295


@pytest.mark.parametrize("m", range(2, 7))
def test_export_dot_matches_level_and_child_edges(m):
    node = re.compile(r'  "(<[\d,]+>)";')
    edge = re.compile(r'  "(<[\d,]+>)" -> "(<[\d,]+>)" \[label="\{([\d,]+)\}"\];')
    for max_depth in range(4):
        lines = export_dot(m, max_depth).splitlines()
        names = [node.fullmatch(line)[1] for line in lines if node.fullmatch(line)]
        depth, kids = {str(root(m)): 0}, {}
        for line in lines:
            if found := edge.fullmatch(line):
                parent, child, label = found.groups()
                if parent not in kids:
                    t = NumericalSemigroup.parse(parent)
                    kids[parent] = {str(c): r for c, r in child_edges(t)}
                assert kids[parent][child] == tuple(map(int, label.split(",")))
                depth[child] = depth[parent] + 1
        assert len(depth) == len(names) == len(set(names))
        for k in range(max_depth + 1):
            assert sorted(x for x in names if depth[x] == k) == sorted(
                str(s) for s in enumerate_semigroups(m, k + 1)), (m, max_depth, k)


def test_child_edges_reads_the_parent_generators(monkeypatch):
    # t's candidates are derived once, and no checked child derives
    # generators: without builds each from Apéry sets alone
    t = root(4).without({5, 6, 7})
    calls = []

    def counted(ap, bound):
        calls.append(ap)
        return derive(ap, bound)
    derive = semigroup._generators_above
    monkeypatch.setattr(semigroup, "_generators_above", counted)
    monkeypatch.setattr(genealogy, "_generators_above", counted)
    edges = child_edges(t)
    assert len(edges) == 7 and calls == [t._apery]


def test_export_dot_node_cap():
    assert export_dot(2, 2, max_nodes=3) == G2_DOT  # exactly three nodes
    with pytest.raises(LevelTooLarge):
        export_dot(2, 2, max_nodes=2)
    with pytest.raises(LevelTooLarge):
        export_dot(4, 3, max_nodes=5)
