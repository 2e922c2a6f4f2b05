"""Climbing from a semigroup to all of the nonnegative integers.

Repeatedly pick a pertinent set of gaps and fill them in: every such
walk terminates, and the number of steps depends on the picker.  The
*complexity* of S is the fewest steps possible, and it has a one-line
closed form: floor(F/m) + 1.  The gamma picker (fill the whole top
block of gaps) always achieves it; the full-PF picker can overshoot.
"""
from numsgps import (NumericalSemigroup, ThetaMap, chain, classify,
                     complexity, pf_gap_search)

s = NumericalSemigroup(5, 7)
print(f"S = {s}: F = {s.frobenius}, m = {s.multiplicity}, "
      f"complexity = {complexity(s)}")
print()
print("the gamma chain, one complexity drop per step:")
for link in chain(ThetaMap.GAMMA, s):
    print(f"  {link}   (complexity {complexity(link)})")
print()

print("all seven pickers on the same start:")
for theta in ThetaMap:
    print(f"  {theta.value:>10}: {chain(theta, s).length} steps")
print()

t = NumericalSemigroup(4, 6, 9, 11)
print(f"T = {t}: complexity {complexity(t)}, "
      f"but the PF picker needs {chain(ThetaMap.PF, t).length} steps:")
for link in chain(ThetaMap.PF, t):
    print(f"  {link}")
print()

print("searching genus <= 8 for every semigroup where PF overshoots:")
for hit, c, steps in pf_gap_search(8):
    print(f"  {hit}: complexity {c}, PF steps {steps}")
print()

print("complexity sorts semigroups into classes:")
for gens in [(1,), (4, 5, 6, 7), (3, 4), (5, 7)]:
    x = NumericalSemigroup(gens)
    print(f"  {str(x):>12}: complexity {complexity(x)}, {classify(x).value}")
