"""Descent matrices and the rank bridge.

Reads the symbol matrix A, the Monsky matrix and the Redei matrices of a
composite example off its symbol table, enumerates the pure 2-Selmer
representatives, and sweeps a range to illustrate that s2(n) = 2 is
equivalent to the pair of Redei 4-rank conditions.
"""

from noncongruent.arith import factor_squarefree, squarefree_part
from noncongruent.matrices import h4, redei_matrix, s2, selmer_elements, symbol_table


def show(rows):
    return "\n".join("".join(str(r >> j & 1) for j in range(len(rows))) for r in rows)


n = 161  # 7 * 23, both -1 mod 8
sf = factor_squarefree(n)
table = symbol_table(sf)
print(f"A_{n} =\n{show(table.a)}")
print(f"M_{n} =\n{show(table.monsky_matrix())}")
print(f"s2({n}) = {s2(sf)}")
print(f"R_{n} =\n{show(redei_matrix(n))}")
print(f"R_-{n} =\n{show(redei_matrix(-n))}")
print(f"h4({n}) = {h4(n)}, h4(-{n}) = {h4(-n)}")
print("pure 2-Selmer representatives:")
for t in sorted(selmer_elements(sf), key=str):
    print(f"  {t}")
print()

print("rank bridge on odd eligible n = 1 mod 8 up to 2000:")
hits = []
for n in range(9, 2001, 8):
    if squarefree_part(n) != n:
        continue
    sf = factor_squarefree(n)
    if sf.k == 0 or not sf.eligibility:
        continue
    lhs = s2(sf) == 2
    rhs = h4(-n) == 1 and h4(n) == 0
    assert lhs == rhs, n
    if lhs:
        hits.append(n)
print(f"  equivalence holds everywhere; s2 = 2 at {len(hits)} values: {hits[:10]}...")
