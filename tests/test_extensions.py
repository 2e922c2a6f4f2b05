import time
from itertools import combinations

import pytest
from hypothesis import example, given

from numsgps import semigroup
from numsgps.errors import NotASemigroup, TypeTooLarge, WholeMonoid
from numsgps.extensions import (_extend, ideal_extensions, is_ideal_extension,
                                is_pertinent, pertinent_sets)
from numsgps.oracle import extensions_bruteforce
from numsgps.semigroup import (WHOLE, NumericalSemigroup, _from_generators,
                               from_gaps)
from test_properties import SETTINGS, high_type_semigroups

S5689 = NumericalSemigroup(5, 6, 8, 9)


def test_pertinent_sets_order_and_members():
    got = pertinent_sets(S5689)
    assert got == [(), (3,), (4,), (7,), (3, 7), (4, 7), (3, 4, 7)]


def test_pertinent_sets_single_pf():
    assert pertinent_sets(NumericalSemigroup(5, 7)) == [(), (23,)]
    assert pertinent_sets(from_gaps({1})) == [(), (1,)]


def test_is_pertinent():
    assert is_pertinent(S5689, set())
    assert is_pertinent(S5689, {3, 7})
    assert is_pertinent(S5689, {3, 4, 7})
    assert not is_pertinent(S5689, {3, 4})  # 3+4 = 7 stays outside
    assert not is_pertinent(S5689, {1})     # not a pseudo-Frobenius number
    assert not is_pertinent(S5689, {3, 5})
    with pytest.raises(WholeMonoid):
        is_pertinent(WHOLE, set())


def test_is_pertinent_counts_self_sums():
    # 2 is pseudo-Frobenius for <4,6,9,11> but {2} is fine: 2+2 = 4 is a member
    t = NumericalSemigroup(4, 6, 9, 11)
    assert is_pertinent(t, {2})
    assert not is_pertinent(t, {2, 5})  # 2+5 = 7 is pseudo-Frobenius, missing
    assert is_pertinent(t, {2, 5, 7})


def test_is_pertinent_agrees_with_pertinent_sets(catalog10):
    # the pairwise test and the ascending build name the same subsets of PF(S)
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        pf, found = s.pseudo_frobenius(), set(pertinent_sets(s))
        for k in range(len(pf) + 1):
            for a in combinations(pf, k):
                assert is_pertinent(s, a) == (a in found), (s, a)


def test_ideal_extensions_example():
    exts = ideal_extensions(S5689)
    assert len(exts) == 7
    assert exts[0] == S5689
    assert exts[-1] == S5689.adjoin({3, 4, 7})
    proper = ideal_extensions(S5689, proper=True)
    assert len(proper) == 6
    assert {d.min_generators for d in proper} == {
        (3, 5), (4, 5, 6), (5, 6, 7, 8, 9), (3, 4, 5), (3, 5, 7), (4, 5, 6, 7)}


@SETTINGS
@given(high_type_semigroups())
@example(S5689)
def test_ideal_extensions_order_is_genus_desc_then_msg(s):
    # pertinent_sets' order, by size and then members, is this order, so
    # nothing sorts it; the draws reach type 12, with PF below m
    exts = ideal_extensions(s)
    keys = [(-d.genus, d.min_generators) for d in exts]
    assert keys == sorted(set(keys))


def test_ideal_extensions_seven_of_eight_subsets():
    # PF = {2,5,7}; the only subset failing pertinence is {2,5} (2+5 = 7),
    # so seven of the eight subsets survive
    t = NumericalSemigroup(4, 6, 9, 11)
    assert len(ideal_extensions(t)) == 7


def test_ideal_extensions_ordinary():
    got = ideal_extensions(from_gaps({1}))
    assert [d.min_generators for d in got] == [(2, 3), (1,)]


def test_ideal_extensions_whole_monoid_raises():
    with pytest.raises(WholeMonoid):
        ideal_extensions(WHOLE)
    with pytest.raises(WholeMonoid):
        pertinent_sets(WHOLE)


def test_type_guard():
    big = from_gaps(range(1, 27))  # ordinary with type 26
    with pytest.raises(TypeTooLarge):
        pertinent_sets(big)


def test_pertinent_sets_cost_follows_the_output():
    # type 19: 2616 pertinent sets out of 2^19 subsets; building them by
    # the ascending rule never visits the other subsets
    start = time.process_time()
    found = pertinent_sets(NumericalSemigroup(*range(20, 40)))
    assert len(found) == 2616
    assert time.process_time() - start < 0.5


def test_is_ideal_extension():
    assert is_ideal_extension(S5689, S5689)
    assert is_ideal_extension(S5689, NumericalSemigroup(3, 5))
    assert not is_ideal_extension(NumericalSemigroup(5, 7), WHOLE)
    assert not is_ideal_extension(S5689, NumericalSemigroup(2, 5))  # 2 not PF
    assert not is_ideal_extension(NumericalSemigroup(3, 5), S5689)  # not superset
    assert is_ideal_extension(NumericalSemigroup(2, 3), WHOLE)
    assert is_ideal_extension(WHOLE, WHOLE)
    assert not is_ideal_extension(WHOLE, NumericalSemigroup(2, 3))


def test_pertinent_extension_fills_one_gap_each(catalog8):
    for s in catalog8.semigroups:
        if s.is_whole:
            continue
        for p in pertinent_sets(s):
            assert s.adjoin(p).genus == s.genus - len(p)


def test_extensions_match_bruteforce(catalog10):
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        assert ideal_extensions(s) == extensions_bruteforce(s), s


def test_extensions_ideal_property(catalog10):
    # every returned Delta keeps the nonzero part of s an ideal:
    # s + d lands back in s for all nonzero s-members and all d in Delta
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        f = s.frobenius
        nonzero = [x for x in s.small_elements if x]
        pf = set(s.pseudo_frobenius())
        for d in ideal_extensions(s):
            assert s.issubset(d)
            assert all(g in pf for g in s.gaps if g in d)
            assert all(x + y in s for x in nonzero for y in d.elements(f))


def test_extension_count_bounded_by_type(catalog10):
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        assert len(ideal_extensions(s)) <= 2 ** len(s.pseudo_frobenius())


def test_both_endpoints_always_present(catalog10):
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        exts = ideal_extensions(s)
        assert exts[0] == s
        assert exts[-1] == s.adjoin(s.pseudo_frobenius())


def test_pertinent_set_is_frozen():
    # equal to a tuple, so a tuple and frozen: the list [3] is not equal to (3,)
    assert pertinent_sets(S5689)[1] == (3,)


def _count_round_robins(monkeypatch) -> list[int]:
    """The modulus of each _apery_mod call from here on, which _from_generators looks up."""
    moduli, run = [], semigroup._apery_mod
    monkeypatch.setattr(semigroup, "_apery_mod", lambda n, gens: moduli.append(n) or run(n, gens))
    return moduli


def test_extensions_below_m_run_the_round_robin_iff_genus_exceeds_m(monkeypatch, catalog10):
    # the cost rule in _extend: an A with min A < m is read off Ap(S, m)
    # unless g(S) − |A| > m; on the genus-10 catalog 164 of those 2709 A
    # go to the round robin, modulo min A, in the order of the extensions
    bases = [s for s in catalog10.semigroups if not s.is_whole]
    below = [(s, a) for s in bases for a in pertinent_sets(s) if a and min(a) < s.multiplicity]
    slow = [min(a) for s, a in below if s.genus - len(a) > s.multiplicity]
    assert (len(below), len(slow)) == (2709, 164)
    moduli = _count_round_robins(monkeypatch)
    for s in bases:
        ideal_extensions(s)
    assert moduli == slow


def test_large_f_with_a_small_pf_member_keeps_the_round_robin(monkeypatch):
    # S = <4,6,4a+1,4a+3> has 2 in PF(S) and genus about 2a, so the three
    # A ∋ 2 run the round robin mod 2; a read would step 2a times, so a wrong
    # cost rule fails fast at a = 1000 before it would hang at a = 10^10
    for a in (1000, 10**10):
        s = NumericalSemigroup(4, 6, 4 * a + 1, 4 * a + 3)
        moduli = _count_round_robins(monkeypatch)
        start = time.process_time()
        exts = ideal_extensions(s)
        assert time.process_time() - start < 0.1
        assert moduli == [2, 2, 2]
        monkeypatch.undo()
        assert [d.min_generators for d in exts] == [
            (4, 6, 4 * a + 1, 4 * a + 3), (2, 4 * a + 1), (4, 6, 4 * a - 3),
            (4, 6, 4 * a - 1, 4 * a + 1), (2, 4 * a - 1), (4, 6, 4 * a - 3, 4 * a - 1), (2, 4 * a - 3)]


def test_both_builds_below_m_agree_on_the_genus_12_catalog(catalog12):
    # every A with min A < m, read or not, against the round robin over
    # {m} ∪ Ap(S, m) ∪ A, which the cost rule keeps for a large genus
    n = 0
    for s in catalog12.semigroups:
        if s.is_whole:
            continue
        for a in pertinent_sets(s):
            if a and min(a) < s.multiplicity:
                got = _extend(s, a)
                want = _from_generators({s.multiplicity, *s._apery[1:], *a})
                assert (got._apery, got.genus, got.frobenius) == (want._apery, want.genus, want.frobenius)
                n += 1
    assert n == 12581


@pytest.mark.parametrize("gens", [(48, 77, 101), (30, 31, 37, 41, 43), tuple(range(20, 40))])
def test_ideal_extensions_run_no_kunz_pass(monkeypatch, gens):
    # pertinence proves each S ∪ A closed, and neither PF(S) nor any
    # extension reads generators, so none are derived; below m the 2615
    # extensions of <20,...,39> have genus at most 18 < m, so each is read
    # off Ap(S, m) and none runs the round robin
    calls = []
    derive = semigroup._generators_above
    monkeypatch.setattr(semigroup, "_generators_above", lambda *a: calls.append(a) or derive(*a))
    s = NumericalSemigroup(*gens)
    passes = _count_round_robins(monkeypatch)
    exts = ideal_extensions(s)
    assert calls == []
    assert passes == []
    below = [d for d in exts if d.multiplicity < s.multiplicity]
    monkeypatch.undo()
    if gens[0] != 20:
        assert below == []  # min PF(S) > m
        slow = extensions_bruteforce(s)
    else:
        # the oracle would try 2^19 subsets; the extensions of <20,...,39> are
        # the semigroups with F < 20, 2616 of them (OEIS A124506 summed, and ℕ)
        assert len(below) == 2615 and len(set(exts)) == 2616
        assert max(d.frobenius for d in exts) < 20
        slow = [from_gaps(d.gaps) for d in exts]
    assert exts == slow
    assert [d.min_generators for d in exts] == [d.min_generators for d in slow]


def test_hand_built_pertinent_set_is_checked():
    # 3 + 4 = 7 is missing from <5,6,8,9> ∪ {3, 4}: adjoin keeps the closure check
    with pytest.raises(NotASemigroup) as exc:
        S5689.adjoin((3, 4))
    assert exc.value.witness == (3, 4)
