"""Cassels pairing: local factors against the closed form.

The pairing of the two pure Selmer generators is a product of local factors
over the places dividing 2n (plus the real place).  The closed form is a
single Jacobi-type symbol, which ``classify`` records in its verdict with d
and mu; this demo prints both sides, including n = 322 where the
distinguished divisor is negative and the real place contributes.
"""

from noncongruent.arith import factor_squarefree
from noncongruent.cassels import local_factors, pairing_matrix, pairing_product
from noncongruent.criteria import classify

for n in (17, 34, 161, 322):
    sf = factor_squarefree(n)
    v = classify(sf)
    factors = {"oo" if p is None else str(p): f for p, f in local_factors(sf).items()}
    print(f"n = {n}, d = {v.d}:")
    print(f"  local factors {factors}")
    print(f"  product = {pairing_product(sf)}, closed form = {v.pairing_symbol}")
    gram, nondeg = pairing_matrix(sf)
    print(f"  Gram {gram}, non-degenerate: {nondeg}")
    print()
