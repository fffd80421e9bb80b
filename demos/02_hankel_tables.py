'''Tabulate shifted Hankel determinants for the fourth and third powers.

The integer sequences repeat with a small period; the polynomial
versions concentrate all weight near the top degree t^binom(N,2).
Each table is one sweep: every size is a leading minor of the largest
matrix, read off a single subresultant chain.
'''
from catalan_hankel import Family, family_dets

print("integer determinants, N = 0..11")
for k, shift in [(4, -2), (4, 0), (3, -1), (3, 0)]:
    seq = family_dets(Family("catalan-conv", k), shift, 11)
    print(f"  D_{{{k},{shift}}}: {seq}")

print()
print("polynomial determinants for the cubic family, shift 0")
for n, d in enumerate(family_dets(Family("narayana-conv", 3), 0, 6)):
    print(f"  N={n}: {d}")

print()
print("polynomial determinants for the quartic family, shift -2")
for n, d in enumerate(family_dets(Family("narayana-conv", 4), -2, 7)):
    print(f"  N={n}: {d}")
