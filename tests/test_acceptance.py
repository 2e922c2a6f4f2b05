"""Acceptance suite: ten numbered end-to-end checks with time budgets.

Each test prints one PASS line (visible with -s or in failure reports);
the pytest -v status line per test doubles as the pass/fail record.
"""
import time

from numsgps.chains import ThetaMap, chain, complexity, theta_apply
from numsgps.extensions import ideal_extensions, is_pertinent
from numsgps.genealogy import count, enumerate_semigroups, shift_embed
from numsgps.oracle import (enumerate_by_genus, extensions_bruteforce,
                            min_ichain_bfs, pf_bruteforce)
from numsgps.semigroup import NumericalSemigroup, from_gaps

GENUS_COUNTS_0_TO_10 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204)


def _report(num, claim, elapsed, budget):
    assert elapsed < budget, f"criterion {num} took {elapsed:.3f}s, budget {budget}s"
    print(f"PASS criterion {num}: {claim} [{elapsed:.4f}s < {budget:g}s]")


def test_criterion_01_apery_and_pf_of_worked_example():
    s = NumericalSemigroup(5, 6, 8, 9)
    t0 = time.perf_counter()
    ap = frozenset(s.apery_set(5))
    pf = set(s.pseudo_frobenius())
    elapsed = time.perf_counter() - t0
    assert ap == {0, 6, 8, 9, 12}
    assert pf == {3, 4, 7}
    _report(1, "Apery set and pseudo-Frobenius numbers of <5,6,8,9>",
            elapsed, 0.001)


def test_criterion_02_extensions_of_worked_example():
    s = NumericalSemigroup(5, 6, 8, 9)
    t0 = time.perf_counter()
    exts = ideal_extensions(s)
    elapsed = time.perf_counter() - t0
    assert len(exts) == 7
    proper = {d.min_generators for d in exts if d != s}
    assert proper == {(3, 5), (4, 5, 6), (5, 6, 7, 8, 9),
                      (3, 4, 5), (3, 5, 7), (4, 5, 6, 7)}
    _report(2, "the seven ideal extensions of <5,6,8,9>", elapsed, 0.001)


def test_criterion_03_complexity_and_gamma_chain():
    s = NumericalSemigroup(5, 7)
    t0 = time.perf_counter()
    c = complexity(s)
    links = chain(ThetaMap.GAMMA, s).links
    elapsed = time.perf_counter() - t0
    assert c == 5
    assert [l.min_generators for l in links[1:]] == [
        (5, 7, 23), (5, 7, 16, 18), (5, 7, 11, 13), (5, 6, 7, 8, 9), (1,)]
    _report(3, "complexity 5 and the five-step gamma chain of <5,7>",
            elapsed, 0.001)


def test_criterion_04_pf_chain_overshoot_and_minimality():
    t0 = time.perf_counter()
    s = NumericalSemigroup(4, 6, 9, 11)
    assert complexity(s) == 2
    links = chain(ThetaMap.PF, s).links
    assert [l.min_generators for l in links] == [
        (4, 6, 9, 11), (2, 5), (2, 3), (1,)]
    assert chain(ThetaMap.PF, s).length == 3
    # gaps fit inside [1, F], so genus <= 6 covers every F <= 6
    for other in enumerate_by_genus(6).semigroups:
        if other.is_whole or other.frobenius > 6:
            continue
        assert chain(ThetaMap.PF, other).length == complexity(other), other
    elapsed = time.perf_counter() - t0
    _report(4, "PF chain of <4,6,9,11> overshoots; no overshoot below F=7",
            elapsed, 1.0)


def test_criterion_05_small_tree_levels():
    t0 = time.perf_counter()
    for k in range(11):
        members = enumerate_semigroups(2, k + 1)
        assert len(members) == 1
        assert members[0].min_generators == (2, 2 * k + 3)
    by_depth = {
        1: {(3, 5, 7), (3, 4), (3, 7, 8)},
        2: {(3, 5), (3, 8, 10), (3, 7, 11), (3, 10, 11)},
        3: {(3, 8, 13), (3, 7), (3, 11, 13), (3, 10, 14), (3, 13, 14)},
    }
    for depth, expected in by_depth.items():
        assert {s.min_generators for s in enumerate_semigroups(3, depth + 1)} == expected
    assert {s.min_generators for s in enumerate_semigroups(3, 4)} == by_depth[3]
    elapsed = time.perf_counter() - t0
    _report(5, "levels of G(2) and G(3) and the five semigroups with m=3, c=4",
            elapsed, 1.0)


def test_criterion_06_complexity_formula_suite(catalog10):
    t0 = time.perf_counter()
    semigroups = catalog10.semigroups
    assert len(semigroups) == sum(GENUS_COUNTS_0_TO_10)
    for s in semigroups:
        if s.is_whole:
            continue
        c = complexity(s)
        m = s.multiplicity
        assert (c - 1) * m < s.frobenius < c * m
        assert c == s.frobenius // m + 1
        assert c == chain(ThetaMap.GAMMA, s).length
    elapsed = time.perf_counter() - t0
    _report(6, "Frobenius bracketing and the gamma-chain formula, genus <= 10",
            elapsed, 30.0)


def test_criterion_07_oracle_equivalence(catalog8, catalog10):
    t0 = time.perf_counter()
    for s in catalog8.semigroups:
        assert min_ichain_bfs(s) == complexity(s), s
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        assert pf_bruteforce(s) == set(s.pseudo_frobenius()), s
        assert extensions_bruteforce(s) == ideal_extensions(s), s
    elapsed = time.perf_counter() - t0
    _report(7, "BFS chains (genus <= 8), brute PF and extensions (genus <= 10)",
            elapsed, 300.0)


def test_criterion_08_count_monotonicity_and_shift():
    t0 = time.perf_counter()
    for m in range(2, 7):
        for c in range(1, 6):
            here = enumerate_semigroups(m, c)
            there = enumerate_semigroups(m, c + 1)
            assert count(m, c) == len(here) <= len(there)
            image = [shift_embed(s) for s in here]
            assert len(set(image)) == len(image)
            target = set(there)
            assert all(t in target for t in image)
    elapsed = time.perf_counter() - t0
    _report(8, "count(m,c) <= count(m,c+1) via the injective shift, m <= 6",
            elapsed, 60.0)


def test_criterion_09_selection_suite_and_named_families(catalog10):
    t0 = time.perf_counter()
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        for theta in ThetaMap:
            picked = theta_apply(theta, s)
            assert picked and is_pertinent(s, picked), (s, theta)
    # staircase family: multiples of m up to k*m, then everything after
    for m in range(2, 7):
        for k in range(1, 7):
            gaps = set(range(1, k * m)) - {j * m for j in range(1, k)}
            s = from_gaps(gaps)
            assert complexity(s) == k
            assert chain(ThetaMap.PF, s).length == k, (m, k)
    # the family {0, 2k, 3k, 4k, ->}: complexity 2 but three PF steps
    for k in range(2, 11):
        s = from_gaps(set(range(1, 4 * k)) - {2 * k, 3 * k})
        assert complexity(s) == 2
        assert chain(ThetaMap.PF, s).length == 3, k
    elapsed = time.perf_counter() - t0
    _report(9, "all seven selections pertinent; both named families behave",
            elapsed, 30.0)


def test_criterion_10_genus_catalog_counts():
    t0 = time.perf_counter()
    cat = enumerate_by_genus(10)
    elapsed = time.perf_counter() - t0
    assert tuple(cat.counts()) == GENUS_COUNTS_0_TO_10
    _report(10, "catalog counts 1,1,2,4,7,12,23,39,67,118,204 for genus 0-10",
            elapsed, 10.0)
