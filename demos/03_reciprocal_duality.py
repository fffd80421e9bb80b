'''Demonstrate the reciprocal duality between two Hankel determinants.

For a series s with s(0) = 1 and t = 1/s, the size N+M+1 determinant of
backward shifted coefficients of s equals, up to an explicit sign, the
size N determinant of forward shifted coefficients of t.
'''
import random

from catalan_hankel import catalan_conv, check_reciprocal_duality

# structured instance: the Catalan generating function itself
report = check_reciprocal_duality([catalan_conv(1, n) for n in range(12)], shift=1, size=3)
print(report)
print("  lhs:", report.lhs, " rhs:", report.rhs)

# a batch of random integer series, every one must balance exactly
rng = random.Random(99)
bad = 0
for trial in range(25):
    coeffs = [1] + [rng.randint(-9, 9) for _ in range(12)]
    shift = rng.randint(0, 3)
    size = rng.randint(1, 5)
    r = check_reciprocal_duality(coeffs, shift, size)
    bad += not r.ok
    print(f"  trial {trial:2d}: shift={shift} size={size} -> {r.status}")
assert bad == 0
print("all random trials balanced")
