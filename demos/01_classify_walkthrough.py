"""Walk through the full classification of a few square-free integers.

For n = 17 every ingredient of the criterion is printed: the pure 2-Selmer
rank from the Monsky matrix, both Redei 4-ranks, the distinguished divisor,
the normalized Pell representation, and the final Jacobi symbol.
"""

from noncongruent import classify, factor_squarefree, rep_2mu2_tau2
from noncongruent.criteria import distinguished_divisor
from noncongruent.matrices import h4, s2, symbol_table


def show(rows):
    return "\n".join("".join(str(r >> j & 1) for j in range(len(rows))) for r in rows)


for n in (17, 34, 41, 161, 322, 15):
    verdict = classify(n)
    print(f"n = {n}: {verdict.verdict.value}")
    for field in ("s2", "h4_minus", "h4_plus", "d", "mu", "pairing_symbol"):
        value = getattr(verdict, field)
        if value is not None:
            print(f"  {field} = {value}")
print()

n = 17
sf = factor_squarefree(n)
print(f"Monsky matrix of {n} (rank {2 * sf.k - s2(sf)}):")
print(show(symbol_table(sf).monsky_matrix()))
print(f"s2({n}) = {s2(sf)}")
print(f"h4(-{n}) = {h4(-n)}, h4({n}) = {h4(n)}")
d = distinguished_divisor(sf)
rep = rep_2mu2_tau2(n, d)
print(f"distinguished divisor d = {d}")
print(f"{n} = 2*({rep.mu})^2 - ({rep.tau})^2 with mu = d mod 4")
print("criterion symbol (-mu/d) = -1, so 17 is non-congruent with Sha[2^oo] = (Z/2)^2")
