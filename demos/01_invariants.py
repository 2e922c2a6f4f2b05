"""A first walk through numerical semigroups and their invariants.

A numerical semigroup is what you get when a handful of coprime coin
denominations generate all the amounts you can pay exactly: zero is
payable, sums of payable amounts are payable, and only finitely many
amounts are impossible.  This script builds a few semigroups and prints
the classical data attached to them.
"""
from numsgps import NumericalSemigroup

s = NumericalSemigroup(5, 6, 8, 9)
print(f"S = {s}, generated by 5, 6, 8 and 9")
print(f"  members up to 15:  {list(s.elements(15))}")
print(f"  gaps (not payable): {list(s.gaps)}")
print(f"  multiplicity m(S) = {s.multiplicity}   (smallest nonzero member)")
print(f"  Frobenius F(S)    = {s.frobenius}   (largest gap)")
print(f"  genus g(S)        = {s.genus}   (number of gaps)")
print()

ap = s.apery_set(5)
print(f"Apery set of S at 5: the least member in each residue class mod 5")
for i, w in enumerate(ap):
    print(f"  class {i} (mod 5): {w}")
print()

pf = s.pseudo_frobenius()
print(f"pseudo-Frobenius numbers: {list(pf)}")
print("  each is a gap x with x + s back in S for every nonzero member s;")
print(f"  their count is the type, t(S) = {len(pf)}")
print()

print("the same semigroup can be built from its gap set:")
rebuilt = NumericalSemigroup.from_gaps(s.gaps)
print(f"  NumericalSemigroup.from_gaps({set(s.gaps)}) == S  ->  {rebuilt == s}")
print()

two_gen = NumericalSemigroup(5, 7)
print(f"two coprime generators, {two_gen}:")
print(f"  F = 5*7 - 5 - 7 = {two_gen.frobenius} and "
      f"g = (5-1)(7-1)/2 = {two_gen.genus}, as the classic formulas say")
