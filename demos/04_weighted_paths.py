'''Count nonnegative lattice paths by down-steps landing at odd height.

The weighted count of paths from the origin to (2n+k-1, k-1) matches the
n-th mixed Narayana convolution power, giving the polynomials a direct
combinatorial meaning.
'''
from catalan_hankel import (
    UniPoly,
    enumerate_paths,
    narayana_conv,
    path_weight_sum,
    path_weight_sum_table,
)

# list every path of length 5 ending at height 1 by its running heights,
# with its weight t^(down steps landing at odd height)
print("paths of length 5 to height 1")
for heights, odd_downs in enumerate_paths(5, 1):
    print(f"  {heights}: {UniPoly.monomial(odd_downs)}")

print()
print("weighted totals vs convolution coefficients")
for k in range(1, 4):
    for n in range(0, 5):
        length, height = 2 * n + k - 1, k - 1
        total = path_weight_sum(length, height)
        target = narayana_conv(k, n)
        mark = "ok" if total == target else "MISMATCH"
        print(f"  k={k} n={n}: {total}  [{mark}]")
        assert total == target

# the closed-form table reproduces the brute force enumeration
for length in range(13):
    for height in range(7):
        assert path_weight_sum_table(length, height) == path_weight_sum(
            length, height
        )
print()
print("closed form agrees with enumeration through length 12")
