"""Tame kernel ranks and the corollary equivalence.

For strictly eligible n (all odd prime factors 1 mod 8) the classification
is equivalent to vanishing of the 4-rank of the tame kernel of Q(sqrt(n))
(odd n) or Q(sqrt(-n)) (even n).  The V-sets are also computed twice: from
one F2 kernel and by literal per-divisor Hilbert-symbol checks.
"""

from noncongruent import classify
from noncongruent.criteria import VerdictKind
from noncongruent.arith import squarefree_part, factor_squarefree
from noncongruent.tame import r4_tame, tame_report, v_sets_direct

for m in (17, -34, 113, -161):
    rep = tame_report(m)
    print(f"m = {m}: r2 = {rep.r2}, r4 = {rep.r4}")
    print(f"  V1 = {sorted(rep.v1)}")
    print(f"  V2 = {sorted(rep.v2)} (mu = {rep.mu_used})")
    assert (rep.v1, rep.v2) == v_sets_direct(m)
print()

print("corollary dual route on strictly eligible n up to 5000:")
agree = 0
for n in range(1, 5001):
    if n % 8 not in (1, 2) or squarefree_part(n) != n:
        continue
    sf = factor_squarefree(n)
    if sf.k == 0 or not sf.strict_eligibility:
        continue
    verdict = classify(n).verdict
    r4 = r4_tame(n if n % 2 else -n)
    assert (verdict == VerdictKind.NON_CONGRUENT_SHA22) == (r4 == 0), n
    agree += 1
print(f"  {agree} values, classify route = tame-kernel route everywhere")
