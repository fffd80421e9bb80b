'''Print the first terms of the convolution power families.

Integer rows are convolution powers of the Catalan numbers; polynomial
rows alternate the plain and weighted Narayana generating functions.
'''
from catalan_hankel import catalan_conv, narayana_conv

N = 10

print("Catalan convolution powers C_{k,n}")
for k in range(1, 6):
    row = [catalan_conv(k, n) for n in range(N)]
    print(f"  k={k}: {row}")

print()
print("mixed Narayana convolution powers, k = 1..4")
for k in range(1, 5):
    row = [str(narayana_conv(k, n)) for n in range(5)]
    print(f"  k={k}: " + " | ".join(row))

# the polynomial rows collapse to the integer rows at t = 1
for k in range(1, 5):
    for n in range(N):
        assert narayana_conv(k, n)(1) == catalan_conv(k, n)
print()
print("t = 1 collapse checked for k <= 4, n <", N)
