"""
Two-component states and basis changes
======================================

States live in a 2D module over the split-complex scalars.  The inner
product conjugates its second argument, so norms are split-complex
norm_sq values and can be negative.  Unitaries are matrices with
orthonormal rows; every unitary with positive-cone entries produces a
doubly stochastic probability matrix.
"""

from hyperq import (
    Mat2,
    SplitComplex,
    Vec2,
    change_basis,
    doubly_stochastic_residual,
    expj,
    inner,
    is_orthonormal_rows,
    orthonormality_residual,
    prob_matrix,
)
from hyperq.born import amplitude
from hyperq.witness import UnitaryParams, make_decomposable_unitary

u = Vec2(SplitComplex(0.8, 0.2), SplitComplex(0.5, -0.1))
v = Vec2.basis1()
print("u =", u.c1, ",", u.c2)
print("<u, v> =", inner(u, v))
print("<u, u> =", inner(u, u), " (sum of the two entry norms)")

# a hyperbolic rotation: rows are expj phases placed like a boost matrix
r = 0.5 ** 0.5
boost = Mat2.from_rows(
    Vec2(expj(0.4) * r, expj(-0.4) * r),
    Vec2(expj(0.4) * r, expj(-0.4) * -r),
)
print("\nboost orthonormality residual:", orthonormality_residual(boost))
print("is_orthonormal_rows:", is_orthonormal_rows(boost))

# change_basis refuses anything that is not unitary
coeffs = Vec2(SplitComplex(1.0, 0.0), SplitComplex(0.0, 0.0))
rotated = change_basis(coeffs, boost)
print("\nbasis vector through the boost:", rotated.c1, ",", rotated.c2)
print("norm_sq sum before:", coeffs.norm_sq_sum(), " after:", rotated.norm_sq_sum())

# the entrywise norm_sq matrix of a decomposable unitary is doubly
# stochastic with equal diagonals
basis = make_decomposable_unitary(UnitaryParams(p=0.3, gamma1=0.7, gamma2=-0.2, delta=1.1))
pm = prob_matrix(basis)
print("\nprobability matrix:")
for row in pm:
    print(" ", row)
(a, b), (c, d) = pm
print("row sums:", (a + b, c + d), " column sums:", (a + c, b + d))
print("doubly stochastic residual:", doubly_stochastic_residual(pm))

# normalization survives any unitary, even with wild phases
state = Vec2(amplitude(1, 0.6, 1.3), amplitude(-1, 0.4, -0.9))
moved = change_basis(state, basis)
print("\nnormalized state through the unitary:")
print("norm_sq sum:", moved.norm_sq_sum())
