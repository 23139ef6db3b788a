"""Anti-circularity: the Selmer set from pure local solvability searches.

The kernel of the Monsky matrix encodes which torsors are everywhere locally
solvable.  The oracle re-derives the same set without any F2 linear algebra:
for every candidate square-class triple it searches for certified p-adic
points (Hensel-lift certificates) and real points at all bad places.
"""

from noncongruent.arith import factor_squarefree
from noncongruent.matrices import selmer_elements
from noncongruent.oracles import point_search, selmer_oracle

for n in (17, 34, 105, 161):
    sf = factor_squarefree(n)
    oracle = selmer_oracle(sf)
    kernel = selmer_elements(sf)
    print(f"n = {n}: oracle set = kernel set: {oracle == kernel} ({len(oracle)} triples)")
print()

print("rational point search on the congruent-number curves:")
for n in (5, 6, 7, 17):
    pts = point_search(n, 2000)
    if pts:
        x, y = pts[0]
        print(f"  n = {n}: found ({x}, {y}) -> {n} is congruent")
    else:
        print(f"  n = {n}: nothing below the bound (consistent with non-congruence)")
