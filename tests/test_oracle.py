import ast
import copy
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import closure_witness, naive_members
from numsgps import cli, extensions, genealogy, oracle, semigroup
from numsgps.chains import complexity
from numsgps.errors import GenusTooLarge, TypeTooLarge, WholeMonoid
from numsgps.extensions import ideal_extensions
from numsgps.oracle import (CHECKS, GenusCatalog, check_complexity,
                            check_extensions, check_pf, check_tree,
                            enumerate_by_genus, extensions_bruteforce,
                            min_ichain_bfs, pf_bruteforce, pf_gap_search)
from numsgps.semigroup import WHOLE, NumericalSemigroup, from_gaps

# number of numerical semigroups per genus 0..12 (OEIS A007323)
GENUS_COUNTS = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592)


def test_catalog_counts_match_known_sequence():
    cat = enumerate_by_genus(12)
    assert tuple(cat.counts()) == GENUS_COUNTS
    assert len(cat.semigroups) == sum(GENUS_COUNTS)


def test_genus_walk_by_proof_matches_the_checked_walk():
    # every level of genus <= 11, node by node: the gap ints the generator
    # rule gives, in their order, are those of the children the
    # closure-checked without builds, sorted by generators, and each built
    # from its bits equals that child
    def nodes(lvl):
        return [(c._apery, c.min_generators) for c in lvl]
    lvl, sizes = [WHOLE], []
    for ints in oracle._levels(11):
        check = sorted(lvl, key=lambda c: c.min_generators)
        assert ints == [_gap_bits(c) for c in check]
        assert nodes(map(oracle._semigroup, ints)) == nodes(check)
        sizes.append(len(ints))
        lvl = [s.without({x}) for s in lvl for x in s.min_generators if x > s.frobenius]
    assert tuple(sizes) == GENUS_COUNTS[:12]


def test_children_by_generators_are_the_closed_candidates():
    # the generator rule's bits above F, against the closure test on each
    # of the m candidates in (F, F + m]; ℕ's one candidate there would be
    # bit 0, so its child is checked on its own
    for g in (g for lvl in oracle._levels(12)[1:] for g in lvl):
        f, m = g.bit_length(), oracle._multiplicity(g)
        gens = oracle._generators(g)
        assert [g | 1 << x for x in range(f, f + m) if gens >> x & 1] == [
            g | 1 << x for x in range(f, f + m) if oracle._closed(g | 1 << x)], bin(g)
    assert oracle._generators(0) == 0b10 and oracle._levels(1) == [[0], [0b10]]  # <1>, <2,3>


@st.composite
def gap_sets(draw):
    """The gaps of some <m, m+1, ...>, closed, with one integer flipped or not."""
    m = draw(st.integers(2, 9))
    gens = [m, m + 1, *draw(st.lists(st.integers(m + 2, 3 * m), max_size=2))]
    gaps = set(range(1, m * m)) - naive_members(gens, m * m)
    flip = draw(st.none() | st.integers(1, m * m))
    return gaps ^ {flip} if flip else gaps


@settings(max_examples=200, deadline=None)
@given(gap_sets())
def test_closed_agrees_with_the_pairwise_scan(gaps):
    bound = max(gaps, default=0)
    members = {x for x in range(bound + 1) if x not in gaps}
    assert oracle._closed(sum(1 << x for x in gaps)) == (closure_witness(members, bound) is None)


def test_gap_int_reads_back_into_the_apery_tuple(catalog12):
    # the oracle reads an int back into Ap(S, m) class by class, and check_ext
    # compares that with the fast route's tuple; the gaps come from a second
    # route too, the members by the naive sieve
    large = [NumericalSemigroup(48, 77, 101), NumericalSemigroup(121, 123),
             NumericalSemigroup(5, 7), from_gaps(range(1, 200))]
    for s in catalog12.semigroups + large:
        g = oracle._gap_int(s)
        assert oracle._apery(g) == s._apery, s
    for s in large:
        f = s.frobenius
        gaps = set(range(1, f + 1)) - naive_members(s.min_generators, f)
        assert oracle._gap_int(s) == sum(1 << x for x in gaps), s


def test_catalog_small_levels():
    cat = enumerate_by_genus(2)
    assert cat.by_genus[0] == (WHOLE,)
    assert [s.min_generators for s in cat.by_genus[1]] == [(2, 3)]
    assert [s.min_generators for s in cat.by_genus[2]] == [(2, 5), (3, 4, 5)]


def test_catalog_is_duplicate_free_and_genus_sorted(catalog10):
    seen = set()
    for g, lvl in enumerate(catalog10.by_genus):
        for s in lvl:
            assert s.genus == g
            assert s not in seen
            seen.add(s)
    assert isinstance(catalog10, GenusCatalog)


def test_catalog_guards():
    with pytest.raises(GenusTooLarge):
        enumerate_by_genus(13)
    with pytest.raises(ValueError):
        enumerate_by_genus(-1)
    assert enumerate_by_genus(0).semigroups == [WHOLE]


def test_pf_bruteforce():
    assert pf_bruteforce(NumericalSemigroup(5, 6, 8, 9)) == {3, 4, 7}
    assert pf_bruteforce(NumericalSemigroup(5, 7)) == {23}
    for m in range(2, 7):
        assert pf_bruteforce(from_gaps(range(1, m))) == set(range(1, m))
    with pytest.raises(WholeMonoid):
        pf_bruteforce(WHOLE)


def test_pf_bruteforce_genus_guard_fires_before_the_scan():
    # genus 2^39: the gaps and members up to F would be listed first
    start = time.perf_counter()
    with pytest.raises(GenusTooLarge, match="oracle guard"):
        pf_bruteforce(NumericalSemigroup(2, 2**40 + 1))
    assert time.perf_counter() - start < 0.1
    with pytest.raises(GenusTooLarge):
        extensions_bruteforce(NumericalSemigroup(2, 2**40 + 1))


def test_extensions_bruteforce_type_guard():
    with pytest.raises(TypeTooLarge):
        extensions_bruteforce(from_gaps(range(1, 27)))  # ordinary, type 26

def test_pf_bruteforce_matches_fast_route(catalog10):
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        assert pf_bruteforce(s) == set(s.pseudo_frobenius()), s


def test_extensions_bruteforce():
    got = extensions_bruteforce(NumericalSemigroup(5, 6, 8, 9))
    assert len(got) == 7
    assert {d.min_generators for d in got} == {
        (5, 6, 8, 9), (3, 5), (4, 5, 6), (5, 6, 7, 8, 9),
        (3, 4, 5), (3, 5, 7), (4, 5, 6, 7)}
    assert len(extensions_bruteforce(NumericalSemigroup(4, 6, 9, 11))) == 7
    with pytest.raises(WholeMonoid):
        extensions_bruteforce(WHOLE)


def test_extensions_bruteforce_matches_fast_route(catalog10):
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        assert extensions_bruteforce(s) == ideal_extensions(s), s


def test_extensions_bruteforce_sorts_without_generators(catalog8, monkeypatch):
    # the oracle orders by member bits, so it never derives a generator
    fast = {s: ideal_extensions(s) for s in catalog8.semigroups if not s.is_whole}

    def refuse(*args):
        raise AssertionError("generators derived")
    monkeypatch.setattr(semigroup, "_generators_above", refuse)
    for s, exts in fast.items():
        assert extensions_bruteforce(s) == exts, s


def test_extension_routes_never_edit(catalog8, monkeypatch):
    # neither route goes through a checked edit: the oracle builds what
    # its own pair loop proved closed, ideal_extensions what pertinence did
    def refuse(*args):
        raise AssertionError("checked edit called")
    monkeypatch.setattr(NumericalSemigroup, "adjoin", refuse)
    monkeypatch.setattr(NumericalSemigroup, "_without", refuse)
    fast = {s: ideal_extensions(s) for s in catalog8.semigroups if not s.is_whole}
    # nor does the oracle share the fast route's pertinence or round robin
    for name in ("pertinent_sets", "is_pertinent", "_extend"):
        monkeypatch.setattr(extensions, name, refuse)
    monkeypatch.setattr(oracle, "ideal_extensions", refuse)
    monkeypatch.setattr(semigroup, "_from_generators", refuse)
    for s, exts in fast.items():
        assert extensions_bruteforce(s) == exts, s


def test_min_ichain_bfs():
    assert min_ichain_bfs(NumericalSemigroup(4, 6, 9, 11)) == 2
    assert min_ichain_bfs(WHOLE) == 0
    assert min_ichain_bfs(NumericalSemigroup(3, 7, 8)) == 2
    assert min_ichain_bfs(NumericalSemigroup(3, 7, 11)) == 3
    assert min_ichain_bfs(from_gaps(range(1, 8))) == 1


def test_min_ichain_bfs_guard():
    with pytest.raises(GenusTooLarge):
        min_ichain_bfs(NumericalSemigroup(5, 8))  # genus 14
    with pytest.raises(GenusTooLarge):
        min_ichain_bfs(from_gaps(range(1, 14)))  # genus 13


def test_check_complexity_runs_the_shortest_chain_on_every_member(catalog12, monkeypatch):
    calls = []

    def counted(s):
        calls.append(s)
        return min_ichain_bfs(s)
    monkeypatch.setattr(oracle, "min_ichain_bfs", counted)
    assert check_complexity(catalog12) is None
    assert len(calls) == len(catalog12.semigroups) == 1413


def test_min_ichain_matches_complexity(catalog10):
    for s in catalog10.semigroups:
        assert min_ichain_bfs(s) == complexity(s), s


def _gap_bits(s):
    return sum(1 << g for g in s.gaps)


def test_extension_gaps_are_the_gaps_less_a(catalog10):
    # the identity the shortest-chain memo keys on: S ∪ A has the gaps of S less A
    for s in catalog10.semigroups:
        if s.is_whole:
            continue
        for p in extensions.pertinent_sets(s):
            mask = sum(1 << x for x in p)
            assert _gap_bits(extensions._extend(s, p)) == _gap_bits(s) & ~mask, (s, p)


def _refuse(*args):
    raise AssertionError("called")


def _empty_memo_and_refuse_builds(monkeypatch):
    """Empty the shortest-chain memo and make every semigroup build raise."""
    monkeypatch.setattr(oracle, "_steps", {0: 0})
    monkeypatch.setattr(oracle, "_from_apery", _refuse)
    monkeypatch.setattr(extensions, "_extend", _refuse)
    monkeypatch.setattr(semigroup, "_from_generators", _refuse)


def test_min_ichain_bfs_builds_nothing_in_catalog_order(catalog10, monkeypatch):
    # the recursion runs on gap ints, so it builds nothing at all, and by
    # ascending genus each call adds one entry to the memo
    _empty_memo_and_refuse_builds(monkeypatch)
    for s in catalog10.semigroups:
        assert min_ichain_bfs(s) == complexity(s), s
    assert len(oracle._steps) == len(catalog10.semigroups) == 478


def test_min_ichain_bfs_builds_each_reached_semigroup_once(catalog10, monkeypatch):
    def reached(s):
        seen, todo = {s}, [s]
        while todo:
            t = todo.pop()
            for d in [] if t.is_whole else ideal_extensions(t, proper=True):
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        return seen
    keys = {s: {_gap_bits(t) for t in reached(s)} for s in catalog10.by_genus[10]}
    for s in catalog10.by_genus[10]:
        _empty_memo_and_refuse_builds(monkeypatch)
        assert min_ichain_bfs(s) == complexity(s), s
        # one memo entry per reached gap set, the full monoid's 0 among them
        assert set(oracle._steps) == keys[s], s


def test_pf_gap_search(monkeypatch):
    hits = pf_gap_search(6)
    assert [(s.min_generators, c, steps) for s, c, steps in hits] == [
        ((4, 6, 9, 11), 2, 3),
        ((4, 6, 9), 3, 4),
        ((4, 6, 11, 13), 3, 4),
        ((5, 7, 8, 11), 2, 3),
        ((5, 7, 9, 11, 13), 2, 3),
    ]
    # no gap below Frobenius number 7: the first offender is <4,6,9,11>
    assert min(s.frobenius for s, _, _ in hits) == 7
    assert pf_gap_search(3) == []
    # the whole PF chain from each semigroup, stepped with the checked
    # adjoin, is a second route to the same list
    def mu_pf(s):
        k = 0
        while not s.is_whole:
            s, k = s.adjoin(s.pseudo_frobenius()), k + 1
        return k
    assert pf_gap_search(9) == [
        (s, c, k) for s in enumerate_by_genus(9).semigroups
        if not s.is_whole and (k := mu_pf(s)) > (c := complexity(s))]
    assert len(pf_gap_search(12)) == 551
    # each chain length is read off the entry for the gap int less PF(S),
    # so no extension is built and no pertinent set is found
    expected = pf_gap_search(8)
    monkeypatch.setattr(extensions, "_extend", _refuse)
    monkeypatch.setattr(extensions, "pertinent_sets", _refuse)
    assert pf_gap_search(8) == expected


def test_all_checks_pass(catalog8):
    for name in ("pf", "ext", "complexity", "tree"):
        assert CHECKS[name](catalog8) is None, name


def test_checks_report_counterexamples(catalog8, monkeypatch):
    monkeypatch.setattr(oracle, "pf_bruteforce", lambda s: {1})
    report = check_pf(catalog8)
    assert report is not None and "pf mismatch" in report

    monkeypatch.setattr(oracle, "_extension_ints", lambda s: [])
    report = check_extensions(catalog8)
    assert report is not None and "extensions mismatch" in report

    monkeypatch.setattr(oracle, "complexity", lambda s: 99)
    report = check_complexity(catalog8)
    assert report is not None and "complexity mismatch" in report
    report = check_tree(catalog8)
    assert report is not None and "tree mismatch" in report


def test_check_reports_name_the_first_counterexample(catalog8, monkeypatch):
    monkeypatch.setattr(oracle, "pf_bruteforce", lambda s: {1})
    assert check_pf(catalog8) == "pf mismatch at <2,5>: fast=[3] brute=[1]"
    monkeypatch.setattr(oracle, "_extension_ints", lambda s: [])
    assert check_extensions(catalog8) == (
        "extensions mismatch at <2,3>: fast=['<2,3>', '<1>'] brute=[]")
    monkeypatch.setattr(oracle, "min_ichain_bfs", lambda s: 99)
    assert check_complexity(catalog8) == "complexity mismatch at <1>: closed-form=0 bfs=99"


def _lower_under_m(s, a):
    # _extend's min A >= m branch for every A: an entry of Ap(S, m) lowered to
    # each x in A, so with 1 in A the tuple is kept modulo m, not modulo 1
    m, ap = s.multiplicity, list(s._apery)
    for x in a:
        ap[x % m] = x
    return semigroup._from_apery(m, tuple(ap))


def _wrong_residue(s):
    # <3,4,5> built as (0, 3, 5): w_1 = 3 has residue 0, and its gaps up to F
    # read as those of <3,4,5>
    return [semigroup._from_apery(3, (0, 3, 5)) if d._apery == (0, 4, 5) else d
            for d in ideal_extensions(s)]


@pytest.mark.parametrize("module, name, fault, report", [
    (extensions, "_extend", _lower_under_m,
     "extensions mismatch at <2,3>: fast=['<2,3>', 'Apéry tuple (0, 1)'] brute=['<2,3>', '<1>']"),
    (oracle, "ideal_extensions", _wrong_residue,
     "extensions mismatch at <3,4,5>: fast=['Apéry tuple (0, 3, 5)', '<2,3>', '<1>'] "
     "brute=['<3,4,5>', '<2,3>', '<1>']"),
], ids=["kept_modulo_m", "wrong_residue"])
def test_check_ext_reports_a_tuple_whose_gaps_read_right(catalog8, monkeypatch,
                                                         module, name, fault, report):
    # each faulty tuple reads, up to its F, the gap int of the right answer, so
    # only a comparison of the tuples themselves reports it
    monkeypatch.setattr(module, name, fault)
    assert check_extensions(catalog8) == report


def test_reports_name_semigroups_by_the_oracle_rule(monkeypatch):
    # a generator rule that drops its last generator leaves PF, which reads
    # no generators, right, but str(<2,3>) prints <2>, and the report names
    # the semigroup <2,3> by the oracle's rule; the tree derives its
    # candidates through its own name for the rule, so it stays right, and
    # check_tree reads no generator to compare it
    derive = semigroup._generators_above
    monkeypatch.setattr(semigroup, "_generators_above", lambda ap, bound: derive(ap, bound)[:-1])
    assert check_pf(enumerate_by_genus(10)) == "generators mismatch at <2,3>: fast=<2> brute=<2,3>"
    assert check_tree(enumerate_by_genus(10)) is None


def test_check_tree_covers_only_complete_classes(catalog8):
    # classes with c(m-1) <= 8 sit fully inside the catalog; spot-check
    # that the covered (4,2) class equals the tree output
    from numsgps.genealogy import enumerate_semigroups
    by_class = [s for s in catalog8.semigroups
                if not s.is_whole and s.multiplicity == 4 and complexity(s) == 2]
    assert sorted(by_class, key=lambda s: s.min_generators) == enumerate_semigroups(4, 2)


def _tamper_walk(monkeypatch, parent, real, fake=None, label=None):
    """Make the tree walk yield ``fake``'s tuple or ``label`` on the edge parent → real."""
    genuine = genealogy._apery_edges

    def tampered(ap):
        for c, r in genuine(ap):
            edge = ap == parent._apery and c == real._apery
            yield (fake._apery if edge and fake else c), (label if edge and label else r)
    monkeypatch.setattr(genealogy, "_apery_edges", tampered)
    return next(r for c, r in genuine(parent._apery) if c == real._apery)


@pytest.mark.parametrize("parent, real, fake, fault", [
    ((3, 4, 5), (3, 5, 7), (3, 7, 11), "has complexity 3, parent 1"),
    ((3, 4, 5), (3, 5, 7), (3, 4, 5), "has complexity 1, parent 1"),
    ((3, 7, 8), (3, 8, 10), (3, 5), "goes back to <3,5,7> under gamma"),
])
def test_check_tree_reports_a_tampered_edge(monkeypatch, parent, real, fake, fault):
    # the walk and without share the fault: both give fake for the edge
    # parent → real, so the complexity and gamma checks have to catch it
    parent, real, fake = (NumericalSemigroup(g) for g in (parent, real, fake))
    removed = _tamper_walk(monkeypatch, parent, real, fake=fake)
    genuine = NumericalSemigroup.without
    monkeypatch.setattr(NumericalSemigroup, "without", lambda t, r: (
        fake if t == parent and tuple(r) == removed else genuine(t, r)))
    assert check_tree(enumerate_by_genus(6)) == (
        f"tree edge mismatch at {parent} minus {list(removed)}: child {fake} {fault}")


def test_check_tree_reports_a_child_tuple_that_without_does_not_build(monkeypatch):
    parent, real, fake = (NumericalSemigroup(g) for g in ((3, 4, 5), (3, 5, 7), (3, 7, 11)))
    _tamper_walk(monkeypatch, parent, real, fake=fake)
    assert check_tree(enumerate_by_genus(6)) == (
        "tree edge mismatch at <3,4,5> minus [4]: "
        "child <3,7,11> differs from <3,5,7>, which without builds")


def test_check_tree_reports_a_label_outside_the_top_block(monkeypatch):
    parent, child = NumericalSemigroup(3, 7, 8), NumericalSemigroup(3, 8, 10)
    _tamper_walk(monkeypatch, parent, child, label=(8, 10))  # minus {7} relabelled
    assert check_tree(enumerate_by_genus(6)) == (
        f"tree edge mismatch at {parent} minus [8, 10]: "
        f"child {child} removes a generator outside (6, 9)")


def test_verify_catches_a_walk_that_raises_by_2m(catalog10, monkeypatch):
    # removing two generators at m > 3 raises the second by 2m, not m: count
    # goes wrong, and check_tree, which walks the same tuples, says where
    genuine = genealogy._apery_edges

    def raise_by_2m(ap):
        m = len(ap)
        for c, r in genuine(ap):
            if m > 3 and len(r) == 2:
                i = r[1] % m
                c = c[:i] + (c[i] + m,) + c[i + 1:]
            yield c, r
    monkeypatch.setattr(genealogy, "_apery_edges", raise_by_2m)
    assert (genealogy.count(4, 3), genealogy.count(5, 3)) == (8, 36)  # 15 and 44 unpatched
    assert check_tree(catalog10) == (
        "tree edge mismatch at <4,5,6,7> minus [5, 6]: "
        "child <4,7,9> differs from <4,7,9,10>, which without builds")
    assert cli.main(["verify", "--max-genus", "10", "--checks", "tree"]) == 1


def test_a_removal_without_refuses_is_a_counterexample(catalog10, monkeypatch, capsys):
    # offering every Apéry element of the top block, not only the minimal
    # generators, walks to sets that are no semigroup: a counterexample
    # (exit 1), not a usage error (exit 2), and named by its gaps
    monkeypatch.setattr(genealogy, "_candidates", lambda ap: tuple(
        sorted(w for w in ap if w > max(ap) // len(ap) * len(ap))))
    report = ("tree edge mismatch at <3,4> minus [8]: child set with gaps {1,2,5,8} is "
              "refused by without: not closed under addition: 4 + 4 = 8 is missing")
    assert check_tree(catalog10) == report
    assert cli.main(["verify", "--max-genus", "10", "--checks", "tree"]) == 1
    assert f"check tree: FAIL {report}" in capsys.readouterr().out


def test_check_tree_reports_counts_off_a007323():
    cat = enumerate_by_genus(6)
    short = GenusCatalog(6, (*cat.by_genus[:5], cat.by_genus[5][1:], *cat.by_genus[6:]))
    assert check_tree(short) == ("catalog counts [1, 1, 2, 4, 7, 11, 23] "
                                 "differ from A007323 [1, 1, 2, 4, 7, 12, 23]")


def test_check_tree_reports_a_repeated_semigroup():
    cat = enumerate_by_genus(6)
    twice = NumericalSemigroup(3, 5, 7)
    tampered = GenusCatalog(6, (*cat.by_genus[:3], (*cat.by_genus[3], twice),
                                *cat.by_genus[4:]))
    assert check_tree(tampered) == f"catalog repeats {twice}"


def test_a_catalog_deep_copies(catalog8):
    # semigroups pickle and copy, so a catalog can cross a process boundary
    dup = copy.deepcopy(catalog8)
    assert dup == catalog8 and dup.counts() == catalog8.counts()
    assert dup.semigroups[5] is not catalog8.semigroups[5]


def test_oracle_routes_share_nothing_with_the_fast_routes(catalog10, monkeypatch):
    # with the fast route's generator rule, round robin, pertinence, trusted
    # extension and tree walk all raising, the oracle's routes return what
    # they return unpatched
    nonwhole = [s for s in catalog10.semigroups if not s.is_whole]
    pf = [pf_bruteforce(s) for s in nonwhole]
    ext = [extensions_bruteforce(s) for s in nonwhole]
    gap = pf_gap_search(9)
    for module, name in ((semigroup, "_generators_above"), (semigroup, "_from_generators"),
                         (extensions, "pertinent_sets"), (extensions, "_extend"), (oracle, "_walk")):
        monkeypatch.setattr(module, name, _refuse)
    monkeypatch.setattr(oracle, "_steps", {0: 0})
    assert enumerate_by_genus(10) == catalog10
    assert [pf_bruteforce(s) for s in nonwhole] == pf
    assert [extensions_bruteforce(s) for s in nonwhole] == ext
    assert [min_ichain_bfs(s) for s in catalog10.semigroups] == [
        complexity(s) for s in catalog10.semigroups]
    assert pf_gap_search(9) == gap


def test_oracle_imports_what_its_docstring_lists():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    boundary = ("chains", "extensions", "genealogy", "semigroup")
    imported = {node.module: sorted(a.name for a in node.names) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module in boundary}
    listed = re.findall(rf"^    ({'|'.join(boundary)}): (.+)$", ast.get_docstring(tree), re.M)
    assert imported == {module: sorted(names.split(", ")) for module, names in listed}
    assert sorted(imported) == list(boundary)
