"""
Trigonometric vs hyperbolic interference
========================================

Two interference laws share one shape: P' = P1 + P2 + 2*sqrt(P1*P2)*f,
with f = cos(theta) in the trigonometric regime and f = +-cosh(theta) in
the hyperbolic one.  Given measured (P', P1, P2) the classifier inverts
the correlation factor and names the regime.
"""

import math

from hyperq.interference import (
    classify,
    hyp_law,
    hyp_linearization_residual,
    sweep_rows,
    trig_law,
    trig_linearization_residual,
)

p1, p2 = 0.36, 0.49

# the trig law oscillates, the hyp law blows up
print("theta    trig       hyp(+)")
for theta in (0.0, 0.5, 1.0, 2.0, 3.0):
    print(f"{theta:4.1f}  {trig_law(p1, p2, theta):9.6f}  {hyp_law(p1, p2, theta, 1):10.6f}")

# both laws are squared-amplitude statements; the linearization
# residuals confirm that to machine precision, the trig one from the real
# and imaginary parts, the hyp one as the product of the two light-cone
# coordinates sqrt(A) +- sqrt(B)*e^(+-theta)
print("\ntrig residual:", trig_linearization_residual(2.0, 3.0, 1.1))
print("hyp residual :", hyp_linearization_residual(2.0, 3.0, 1.1, -1))

# classifier round trip: law -> data -> (regime, theta, sign)
for theta, sign in ((1.3, 1), (2.2, -1)):
    v = classify(hyp_law(p1, p2, theta, sign), p1, p2)
    print(f"\nhyp theta={theta} sign={sign:+d} classified:", v.to_json_dict())
v = classify(trig_law(p1, p2, 2.0), p1, p2)
print("trig theta=2.0 classified:", v.to_json_dict())

# the boundary regime separates the two: |correlation factor| == 1
flat = p1 + p2 + 2 * math.sqrt(p1 * p2)
print("\nP' at the boundary:", flat, "->", classify(flat, p1, p2).regime)

# sweep_rows powers the CLI's CSV output
print("\ntheta, p_prime over a short hyperbolic sweep:")
for theta, p_prime in sweep_rows("hyp", p1, p2, 0.0, 2.0, 5):
    print(f"  {theta:4.2f}  {p_prime:9.6f}")
