"""Which semigroups keep S as an ideal?  All of them, enumerated.

Delta extends S *ideally* when adding the new elements never breaks S:
every sum of a nonzero member of S with anything in Delta falls back
into S.  Such Delta are squeezed between S and S plus its
pseudo-Frobenius numbers, so the search space is just the subsets of
PF(S), and a subset works exactly when it is closed under the sums that
miss S.  This script shows the full list for two small semigroups,
including the one subset that fails.
"""
from numsgps import (NumericalSemigroup, ideal_extensions, is_pertinent,
                     pertinent_sets)

s = NumericalSemigroup(5, 6, 8, 9)
print(f"S = {s} with PF = {list(s.pseudo_frobenius())}")
print()
print("subsets of PF whose union with S is again a semigroup:")
for p in pertinent_sets(s):
    print(f"  {set(p) if p else '{}'}  ->  {s.adjoin(p)}")
print()
print("the missing subsets fail because a sum escapes: for example")
print(f"  is_pertinent(S, {{3, 4}}) = {is_pertinent(s, {3, 4})}"
      "   (3 + 4 = 7 is pseudo-Frobenius but not chosen)")
print()

t = NumericalSemigroup(4, 6, 9, 11)
print(f"T = {t} with PF = {list(t.pseudo_frobenius())}")
exts = ideal_extensions(t)
print(f"{len(exts)} of the 8 subsets survive; {{2,5}} is the one casualty"
      " since 2 + 5 = 7 stays out:")
for d in exts:
    print(f"  {d}   genus {d.genus}")
print()
print("largest first gap count, smallest last: the list is ordered from")
print("T itself down to the full union T + PF(T).")
