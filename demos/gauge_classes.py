"""Different solver runs land in the same gauge class.

Running the quantizer with a perturbation seed acts on each order by a
random gauge element 1 + hbar^n u; the resulting twists differ term by
term but solve the same equation, and the gauge search certifies their
equivalence with an explicit invariant group element.
"""

from fractions import Fraction

from dyntwist import (
    LieData,
    CdybElement,
    RMatrix,
    UEnvelope,
    find_gauge,
    gauge_act_algebraic,
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

K1 = solve_adte(rho, N, uea=uea, perturb_seed=1).K
K2 = solve_adte(rho, N, uea=uea, perturb_seed=2).K
print("twists coincide termwise:", K1 == K2)

result = find_gauge(K1, K2)
print("gauge equivalent:", result.equivalent)
if result.equivalent:
    replay = gauge_act_algebraic(result.gauge, K1)
    print("replaying the gauge element reproduces K2:", replay == K2)
