"""The reference run: a fixed computation, independent of defectlab, that
the benchmark spawns before every timed invocation to gauge the machine's
current speed.

It starts an interpreter and eliminates a fixed 22x22 rational matrix with
`fractions.Fraction`, the same two things a defectlab invocation spends
its time on, so a slowdown of the host slows it in the same proportion.
It exits 1 if the elimination does not give the known determinant (its
sha256 below; sympy's `Matrix.det` gives the same value).
"""
import hashlib
import sys
from fractions import Fraction as Q

N = 22
DETERMINANT_SHA256 = "e53f947c78c9fb551c1c87c3bea84b1a271ea51fadf5fcddf03dbe6b0aa57302"


def determinant() -> Q:
    a = [[Q((i * 7 + j * 3) % 11 + 1, i + j + 1) for j in range(N)] for i in range(N)]
    det = Q(1)
    for c in range(N):
        pivot = a[c][c]
        det *= pivot
        for r in range(c + 1, N):
            f = a[r][c] / pivot
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


if __name__ == "__main__":
    digest = hashlib.sha256(str(determinant()).encode()).hexdigest()
    sys.exit(0 if digest == DETERMINANT_SHA256 else 1)
