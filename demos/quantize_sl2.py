"""Quantize the geometric-series r-matrix on sl2 and verify everything.

The base subalgebra is the Cartan line spanned by h; the r-matrix is
rho = sum_d lambda^d e^f, the unique formal solution of the classical
dynamical equation with constant term e^f.  The solver produces an
algebraic twist K order by order, and every claim about it is
recomputed from scratch at the end.
"""

from fractions import Fraction

from dyntwist import (
    LieData,
    CdybElement,
    RMatrix,
    UEnvelope,
    adte_residual,
    dte_residual,
    j_to_k,
    semiclassical_check,
    solve_adte,
)

N = 3

sl2 = LieData(
    ["e", "h", "f"],
    {(0, 1): {0: -2}, (1, 2): {2: -2}, (0, 2): {1: 1}},
    [1],
)

body = CdybElement.zero(N)
for d in range(N + 1):
    body = body + CdybElement.monomial((0, 2), (1,) * d, Fraction(1), N)
rho = RMatrix(sl2, body)

uea = UEnvelope(sl2)
pair = solve_adte(rho, N, uea=uea)

print("order-1 coefficient of K:")
print(" ", pair.K.hbar_component(1))
print("valuation certificate:", pair.valuation_certificate)
print("equation residual zero:", adte_residual(pair.K).is_zero())

ok, _ = semiclassical_check(pair.J, rho)
print("semiclassical limit reproduces rho:", ok)
print("formal residual zero on the determined triangle:",
      dte_residual(pair.J).is_zero())
print("round trip J -> K:", j_to_k(pair.J) == pair.K)
