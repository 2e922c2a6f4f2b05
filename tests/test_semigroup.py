import copy
import pickle
import time

import pytest

from brute import closure_witness, naive_members
from numsgps import semigroup
from numsgps.chains import ThetaMap, chain, complexity
from numsgps.errors import (FrobeniusTooLarge, GcdNotOne, MultiplicityTooLarge,
                            NotAMember, NotASemigroup, WholeMonoid)
from numsgps.extensions import _extend, pertinent_sets
from numsgps.oracle import pf_bruteforce
from numsgps.semigroup import WHOLE, NumericalSemigroup, from_gaps


def test_basic_invariants():
    s = NumericalSemigroup(5, 6, 8, 9)
    assert s.multiplicity == 5
    assert s.frobenius == 7
    assert s.genus == 5
    assert s.min_generators == (5, 6, 8, 9)
    assert s.small_elements == (0, 5, 6, 8)
    assert s.gaps == (1, 2, 3, 4, 7)


def test_generators_need_not_be_minimal():
    assert NumericalSemigroup(5, 6, 8, 9, 10, 11).min_generators == (5, 6, 8, 9)
    assert NumericalSemigroup([3, 5, 8, 11]).min_generators == (3, 5)


def test_two_generator_frobenius():
    # F(<a,b>) = ab - a - b
    for a, b in [(2, 3), (3, 5), (5, 7), (31, 97)]:
        s = NumericalSemigroup(a, b)
        assert s.frobenius == a * b - a - b
        assert s.genus == (a - 1) * (b - 1) // 2


def test_whole_monoid():
    assert WHOLE.frobenius == -1
    assert WHOLE.genus == 0
    assert WHOLE.multiplicity == 1
    assert WHOLE.small_elements == (0, 1)
    assert WHOLE.gaps == ()
    assert WHOLE.is_whole and not WHOLE.is_ordinary
    assert str(WHOLE) == "<1>"
    assert NumericalSemigroup(1) == WHOLE
    assert NumericalSemigroup(1, 5) == WHOLE
    assert list(WHOLE.elements(3)) == [0, 1, 2, 3]


def test_constructor_rejects_bad_input():
    with pytest.raises(GcdNotOne):
        NumericalSemigroup(4, 6)
    with pytest.raises(GcdNotOne):
        NumericalSemigroup(10)
    with pytest.raises(ValueError):
        NumericalSemigroup([])
    with pytest.raises(ValueError):
        NumericalSemigroup(0, 3)
    with pytest.raises(ValueError):
        NumericalSemigroup(-2, 3)
    # one argument that is not iterable is a generator, checked as one
    for bad in (5.0, None):
        with pytest.raises(ValueError) as exc:
            NumericalSemigroup(bad)
        assert str(exc.value) == f"generators must be positive integers, got {bad!r}"


def test_membership():
    s = NumericalSemigroup(5, 6, 8, 9)
    assert 0 in s and 5 in s and 14 in s and 100 in s
    assert 7 not in s and 4 not in s and -1 not in s
    assert 11 in s and -5 not in s
    assert list(s.elements(12)) == [0, 5, 6, 8, 9, 10, 11, 12]


@pytest.mark.parametrize("bad", [2.5, "3", None, True])
def test_elements_refuses_a_limit_that_is_no_integer(bad):
    with pytest.raises(ValueError, match="limit must be an integer"):
        NumericalSemigroup(5, 6, 8, 9).elements(bad)


def test_members_match_naive_generation(catalog8):
    for s in catalog8.semigroups:
        upto = max(s.frobenius + 1, 1)
        expected = naive_members(s.min_generators, upto)
        assert set(s.small_elements) == expected, s


def test_small_elements_are_closed(catalog8):
    for s in catalog8.semigroups:
        assert closure_witness(set(s.small_elements), s.frobenius) is None, s


def test_apery_set():
    s = NumericalSemigroup(5, 6, 8, 9)
    ap = s.apery_set(5)
    assert ap == (0, 6, 12, 8, 9)
    assert frozenset(ap) == {0, 6, 8, 9, 12}
    assert frozenset(NumericalSemigroup(5, 7).apery_set(5)) == {0, 7, 14, 21, 28}
    assert NumericalSemigroup(2, 3).apery_set(5) == (0, 6, 2, 3, 4)


def test_apery_set_requires_nonzero_member():
    s = NumericalSemigroup(5, 6, 8, 9)
    for bad in (0, 7, -5):
        with pytest.raises(NotAMember):
            s.apery_set(bad)


def test_apery_set_rejects_non_integers_before_comparing():
    s = NumericalSemigroup(5, 6, 8, 9)
    for bad in ("5", None, 5.0, True):
        with pytest.raises(NotAMember):
            s.apery_set(bad)


def test_apery_set_matches_naive_members(catalog8):
    for s in catalog8.semigroups:
        f = s.frobenius
        members = naive_members(s.min_generators, 2 * (f + s.multiplicity))
        for n in range(1, f + s.multiplicity + 1):
            if n in members:
                least = [min(x for x in members if x % n == i) for i in range(n)]
                assert s.apery_set(n) == tuple(least), (s, n)


def test_apery_set_bounds_its_modulus():
    start = time.process_time()
    with pytest.raises(MultiplicityTooLarge):
        NumericalSemigroup(2, 3).apery_set(10**6)
    assert time.process_time() - start < 0.1
    with pytest.raises(NotAMember):
        WHOLE.apery_set(True)


def test_apery_invariants(catalog8):
    for s in catalog8.semigroups:
        if s.is_whole:
            continue
        m = s.multiplicity
        ap = s.apery_set(m)
        assert len(ap) == m
        assert ap[0] == 0
        for i, w in enumerate(ap):
            assert w % m == i
            assert w in s and (w - m) not in s
        assert max(ap) == s.frobenius + m


def test_pseudo_frobenius():
    assert NumericalSemigroup(5, 6, 8, 9).pseudo_frobenius() == (3, 4, 7)
    assert NumericalSemigroup(4, 6, 9, 11).pseudo_frobenius() == (2, 5, 7)
    assert NumericalSemigroup(5, 7).pseudo_frobenius() == (23,)
    assert from_gaps(range(1, 6)).pseudo_frobenius() == (1, 2, 3, 4, 5)
    with pytest.raises(WholeMonoid):
        WHOLE.pseudo_frobenius()


def test_pf_invariants(catalog8):
    for s in catalog8.semigroups:
        if s.is_whole:
            continue
        pf = s.pseudo_frobenius()
        assert max(pf) == s.frobenius
        assert set(pf) <= set(s.gaps)
        assert 1 <= len(s.pseudo_frobenius()) <= s.multiplicity - 1


def test_type_bound_is_tight_for_ordinary():
    for m in range(2, 8):
        assert len(from_gaps(range(1, m)).pseudo_frobenius()) == m - 1


def test_membership_order_is_a_partial_order(catalog8):
    # a <= b iff b - a is a member: reflexive, antisymmetric and transitive
    s = NumericalSemigroup(5, 6, 8, 9)
    assert 14 - 6 in s and 13 - 6 not in s and 9 - 5 not in s
    for s in catalog8.semigroups:
        xs = range(s.frobenius + 2)
        assert all(a - a in s for a in xs)
        assert all(a == b for a in xs for b in xs if b - a in s and a - b in s)
        assert all(c - a in s for a in xs for b in xs for c in xs
                   if b - a in s and c - b in s), s


def test_from_gaps():
    assert from_gaps({1, 2, 4}).min_generators == (3, 5, 7)
    assert from_gaps({1, 3}).min_generators == (2, 5)
    assert from_gaps(set()) is WHOLE
    assert from_gaps(range(1, 5)).min_generators == (5, 6, 7, 8, 9)


def test_from_gaps_round_trip(catalog8):
    for s in catalog8.semigroups:
        assert from_gaps(s.gaps) == s


def test_from_gaps_rejects_non_semigroup():
    with pytest.raises(NotASemigroup) as exc:
        from_gaps({2})
    assert exc.value.witness == (1, 1)
    with pytest.raises(NotASemigroup) as exc:
        from_gaps({1, 4})  # 2+2 = 4 would be missing
    assert exc.value.witness == (2, 2)
    with pytest.raises(ValueError):
        from_gaps({0})
    with pytest.raises(ValueError):
        from_gaps({-3})


def test_parse_and_str():
    s = NumericalSemigroup(5, 6, 8, 9)
    assert str(s) == "<5,6,8,9>"
    assert NumericalSemigroup.parse("<5,6,8,9>") == s
    assert NumericalSemigroup.parse(" 5 , 6 , 8 , 9 ") == s
    assert NumericalSemigroup.parse("[ 3, 5 ]") == NumericalSemigroup(3, 5)
    assert NumericalSemigroup.parse("<1>") == WHOLE
    for bad in ("", "<>", "bogus", "3,,5", "<3;5>"):
        with pytest.raises(ValueError):
            NumericalSemigroup.parse(bad)


def test_repr():
    assert repr(NumericalSemigroup(5, 7)) == "NumericalSemigroup(<5,7>)"

def test_str_parse_round_trip(catalog8):
    for s in catalog8.semigroups:
        assert NumericalSemigroup.parse(str(s)) == s


def test_equality_and_hash():
    a = NumericalSemigroup(2, 3)
    b = from_gaps({1})
    assert a == b and hash(a) == hash(b)
    assert a != NumericalSemigroup(2, 5)
    assert len({a, b, NumericalSemigroup(2, 5)}) == 2
    assert a != "not a semigroup"


def test_adjoin():
    t = NumericalSemigroup(4, 6, 9, 11)
    assert t.adjoin({2, 5, 7}).min_generators == (2, 5)
    assert t.adjoin({7}).min_generators == (4, 6, 7, 9)
    assert t.adjoin(set()) == t
    assert t.adjoin({8}) == t  # adjoining members changes nothing
    with pytest.raises(NotASemigroup) as exc:
        t.adjoin({2, 5})
    assert exc.value.witness == (2, 5)
    with pytest.raises(ValueError):
        t.adjoin({-1})


def test_without():
    assert NumericalSemigroup(2, 3).without({3}).min_generators == (2, 5)
    s = NumericalSemigroup(3, 4, 5)
    assert s.without({4, 5}).min_generators == (3, 7, 8)
    assert s.without(set()) == s
    with pytest.raises(NotASemigroup):
        NumericalSemigroup(2, 3).without({4})
    with pytest.raises(ValueError):
        s.without({7})  # not a member
    with pytest.raises(ValueError):
        s.without({0})


def test_issubset(catalog8):
    s = NumericalSemigroup(5, 6, 8, 9)
    assert s.issubset(NumericalSemigroup(3, 5))
    assert not NumericalSemigroup(3, 5).issubset(s)
    for t in catalog8.semigroups:
        assert t.issubset(WHOLE)
        assert t.issubset(t)


def test_immutability():
    s = NumericalSemigroup(3, 5)
    with pytest.raises(AttributeError):
        s.frobenius = 0


def test_frobenius_guard(monkeypatch):
    monkeypatch.setattr(semigroup, "MAX_FROBENIUS", 100)
    with pytest.raises(FrobeniusTooLarge):
        NumericalSemigroup(31, 97)  # F would be 2879
    assert NumericalSemigroup(5, 7).frobenius == 23  # still fine under the cap


def test_genus_counts_gaps(catalog8):
    for s in catalog8.semigroups:
        assert s.genus == len(s.gaps)


def test_min_generators_are_minimal(catalog8):
    for s in catalog8.semigroups:
        members = set(s.small_elements)
        f = s.frobenius
        nonzero = [x for x in range(1, f + s.multiplicity + 1)
                   if x > f or x in members]
        for g in s.min_generators:
            sums = {a + b for a in nonzero for b in nonzero if a + b == g}
            assert not sums, (s, g)
        assert NumericalSemigroup(s.min_generators) == s


def test_bools_are_not_integers():
    with pytest.raises(ValueError) as exc:
        NumericalSemigroup(True, 3)
    assert "generators must be positive integers" in str(exc.value)
    with pytest.raises(ValueError):
        NumericalSemigroup([3, False])
    with pytest.raises(ValueError) as exc:
        from_gaps([True])
    assert "gaps must be positive integers" in str(exc.value)
    with pytest.raises(ValueError):
        NumericalSemigroup(3, 5).adjoin({True})
    with pytest.raises(ValueError):
        NumericalSemigroup(2, 3).without({True})


def test_frobenius_guard_fires_before_the_work():
    start = time.process_time()
    with pytest.raises(FrobeniusTooLarge):
        NumericalSemigroup(1000, 10**12 + 1)
    with pytest.raises(FrobeniusTooLarge):
        NumericalSemigroup(2**41, 2**41 + 1)  # F >= m - 1 refuses it unbuilt
    with pytest.raises(FrobeniusTooLarge) as exc:
        NumericalSemigroup(2, 2**40 + 1).without({2**40 + 1})  # F(S ∖ R) >= max R
    assert str(exc.value) == f"Frobenius number {2**40 + 1} exceeds {2**40}"
    assert time.process_time() - start < 1.0
    assert NumericalSemigroup(2, 2**40 - 1).without({2**40 - 1}).frobenius == 2**40 - 1


def test_sparse_nonclosed_inputs_fail_fast():
    # the witness search looks only at the candidate nonmembers, not at
    # every integer below them
    start = time.process_time()
    with pytest.raises(FrobeniusTooLarge):
        from_gaps([2**41])
    with pytest.raises(NotASemigroup) as exc:
        from_gaps([10**7])
    assert exc.value.witness == (1, 9999999)
    with pytest.raises(NotASemigroup) as exc:
        NumericalSemigroup(3, 5).without([10**7])
    assert exc.value.witness == (3, 9999997)
    with pytest.raises(NotASemigroup) as exc:
        NumericalSemigroup(3, 5).without([3, 10**7])
    assert exc.value.witness == (5, 9999995)  # m = 3 is removed: Ap(S, 5) is raised
    assert time.process_time() - start < 1.0


def test_edits_of_huge_frobenius_finish_fast():
    # neither edit scans up to F ≈ 2^40: adjoin checks by the genus and looks
    # for its witness class by class, without raises Ap(S, n) past R only
    start = time.process_time()
    with pytest.raises(NotASemigroup) as exc:
        NumericalSemigroup(2, 2**40 + 1).adjoin({2**40 - 3})
    assert exc.value.witness == (2, 2**40 - 3)
    with pytest.raises(NotASemigroup) as exc:
        NumericalSemigroup(4, 2**38 + 1, 2**38 + 2, 2**38 + 3).adjoin({2})
    assert exc.value.witness == (2, 4)
    assert NumericalSemigroup(2, 2**40 + 1).without({2, 4}).min_generators == (
        6, 8, 10, 2**40 + 1, 2**40 + 3, 2**40 + 5)
    assert time.process_time() - start < 1.0


def test_adjoin_below_the_multiplicity_skips_the_rescan():
    # F ≈ 10⁶: the round robin modulo 2 accepts <2,1000001> by its genus
    # alone, in O(m + e·n) steps, however large F is
    s = NumericalSemigroup(4, 6, 10**6 + 1, 10**6 + 3)
    start = time.process_time()
    t = s.adjoin({2})
    assert time.process_time() - start < 0.005
    assert t == NumericalSemigroup(2, 10**6 + 1) and t.min_generators == (2, 10**6 + 1)
    with pytest.raises(NotASemigroup) as exc:  # <3,4> is too big: the witness class by class
        s.adjoin({3})
    assert exc.value.witness == (3, 4)
    # every adjoined gap must generate: <2,5> has the 2 gaps fewer that
    # <5,...,9> ∪ {2, 3} would have, but 2 + 2 is missing from the latter
    with pytest.raises(NotASemigroup) as exc:
        NumericalSemigroup(5, 6, 7, 8, 9).adjoin({2, 3})
    assert exc.value.witness == (2, 2)


def test_large_two_generator_semigroup_is_fast():
    start = time.process_time()
    s = NumericalSemigroup(1001, 1003)
    f = 1001 * 1003 - 1001 - 1003
    assert s.frobenius == f
    assert s.genus == 1000 * 1002 // 2
    assert s.pseudo_frobenius() == (f,)
    assert complexity(s) == f // 1001 + 1
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("build", [
    lambda: NumericalSemigroup(5000, 5001),
    lambda: from_gaps(range(1, 5000)),
    lambda: NumericalSemigroup(2 * 10**6, 2 * 10**6 + 1),  # F over the guard too
], ids=["generators", "gaps", "huge"])
def test_multiplicity_guard_fires_before_the_round_robin(build):
    # Ap(S, m) has m entries and the round robin up to m·e steps: refuse m first
    start = time.process_time()
    with pytest.raises(MultiplicityTooLarge):
        build()
    assert time.process_time() - start < 0.1


def test_multiplicity_guard_admits_its_bound(monkeypatch):
    monkeypatch.setattr(semigroup, "MAX_MULTIPLICITY", 50)
    assert NumericalSemigroup(50, 51).multiplicity == 50
    assert from_gaps(range(1, 50)).multiplicity == 50
    for build in (lambda: NumericalSemigroup(51, 52), lambda: from_gaps(range(1, 51)),
                  lambda: NumericalSemigroup(50, 51).without({50})):  # m goes to 51
        with pytest.raises(MultiplicityTooLarge):
            build()


def test_pickle_round_trip(catalog10):
    for s in [*catalog10.semigroups, WHOLE]:
        t = pickle.loads(pickle.dumps(s))
        assert t == s and hash(t) == hash(s)
        assert t._apery == s._apery and t.genus == s.genus
        assert t.min_generators == s.min_generators
    # pickles made before they carried Ap(S, m) call NumericalSemigroup(gens)
    old = b"\x80\x02cnumsgps.semigroup\nNumericalSemigroup\nq\x00K\x05K\x07\x86q\x01\x85q\x02Rq\x03."
    assert pickle.loads(old) == NumericalSemigroup(5, 7)


def test_copies_are_equal():
    s = NumericalSemigroup(5, 6, 8, 9)
    assert copy.copy(s) == s and copy.deepcopy(s) == s
    assert copy.deepcopy({s: [s]}) == {s: [s]}


def test_removing_the_multiplicity_needs_no_rescan():
    # without({m}) takes the round robin modulo the new multiplicity after a
    # search of at most 2m members, so no step grows with F
    assert NumericalSemigroup(3, 10**6 + 1).without({3}).min_generators == (
        6, 9, 10**6 + 1, 10**6 + 4)
    assert NumericalSemigroup(400, 401).without({400}).min_generators == (401, 800, 801, 1200)
    assert WHOLE.without({1}) == NumericalSemigroup(2, 3)
    start = time.process_time()
    assert NumericalSemigroup(3, 2**38 + 1).without({3}).min_generators == (
        6, 9, 2**38 + 1, 2**38 + 4)
    assert time.process_time() - start < 0.1


def test_multiplicity_guard_fires_before_the_rescan(monkeypatch):
    # one count() call finds the new multiplicity 5001; the round robin modulo
    # it refuses it before building its table, and no class is scanned
    calls = []

    def counted(*args):
        calls.append(args)
        return scan(*args)
    scan = semigroup.count
    monkeypatch.setattr(semigroup, "count", counted)
    with pytest.raises(MultiplicityTooLarge):
        from_gaps(range(1, 5001))
    assert calls == [(1,)]


def test_round_robin_builds_keep_their_generators(monkeypatch):
    # no build derives the minimal generators, nor does a pickle, which
    # carries Ap(S, m) alone; each read derives them, as nothing is memoised
    calls = []
    derive = semigroup._generators_above
    monkeypatch.setattr(semigroup, "_generators_above", lambda *a: calls.append(a) or derive(*a))
    t = NumericalSemigroup(4000, 4001).without({4000})
    assert t == NumericalSemigroup(4001, 8000, 8001, 12000)
    pickle.dumps(NumericalSemigroup(1001, 1003))
    link = chain(ThetaMap.GAMMA, NumericalSemigroup(1001, 1003)).links[1]
    assert pickle.loads(pickle.dumps(link)) == link
    assert calls == []
    assert t.min_generators == (4001, 8000, 8001, 12000)
    assert calls == [(t._apery, 0)]
    assert t.min_generators == t.min_generators
    assert calls == [(t._apery, 0)] * 3


def test_builds_read_no_generators(monkeypatch):
    # a gamma link is built from Ap(S, m) alone, and neither its edits nor
    # its pertinent sets, which reach below m = 5 and above it, read generators
    link = chain(ThetaMap.GAMMA, NumericalSemigroup(5, 7, 8, 9)).links[1]
    found = pertinent_sets(link)
    below, above = (4,), (6,)
    assert below in found and above in found
    expected = [link.without({5}), link.apery_set(7), link.adjoin({3, 6}),
                link.adjoin(below), link.adjoin(above),
                chain(ThetaMap.FROBENIUS_ONLY, link).links]

    def refuse(*args):
        raise AssertionError("generators derived")
    monkeypatch.setattr(semigroup, "_generators_above", refuse)
    link = chain(ThetaMap.GAMMA, NumericalSemigroup(5, 7, 8, 9)).links[1]
    assert pertinent_sets(link) == found
    assert [link.without({5}), link.apery_set(7), link.adjoin({3, 6}),
            _extend(link, below), _extend(link, above),
            chain(ThetaMap.FROBENIUS_ONLY, link).links] == expected
    assert link.issubset(expected[2]) and not expected[2].issubset(link)
    assert pickle.loads(pickle.dumps(link)) == link



def test_pf_reads_no_generators(catalog12, monkeypatch):
    # an instance holds Ap(S, m) and F, g, m, all set at build time, and
    # PF is read off Ap(S, m) alone; <48,77,101>, <1000,1001> and
    # <200,...,399> have maximal Apéry elements w whose every w + v passes
    # max w, and <1000,1001>, past the oracle's genus guard, has PF = {F}
    assert NumericalSemigroup.__slots__ == ("frobenius", "genus", "multiplicity", "_apery")
    big = [NumericalSemigroup(48, 77, 101), NumericalSemigroup(range(200, 400))]
    nonwhole = [s for s in catalog12.semigroups if not s.is_whole]
    expected = [pf_bruteforce(s) for s in (*nonwhole, *big)]
    two = NumericalSemigroup(1000, 1001)

    def refuse(*args):
        raise AssertionError("generators derived")
    monkeypatch.setattr(semigroup, "_generators_above", refuse)
    assert [set(s.pseudo_frobenius()) for s in (*nonwhole, *big)] == expected
    assert two.pseudo_frobenius() == (two.frobenius,) == (1000 * 1001 - 1000 - 1001,)
