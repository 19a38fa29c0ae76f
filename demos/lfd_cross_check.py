"""
Cross-checking velocities against the local fractional derivative
=================================================================

The local fractional derivative evaluates the Riemann-Liouville
derivative of f - f(a) ever closer to the base point a.  Where the
fractional velocity exists, the two constructions agree up to the
factor Gamma(1+beta).  This demo reproduces that bridge numerically.
"""

from math import gamma

import numpy as np

from fracvel import (Direction, check_lfd_equivalence, kg_lfd,
                     make_power_cusp, rl_derivative, rl_integral)

# First the quadrature itself: integrating K t^beta at order 1-beta
# collapses to Gamma(1+beta) K h, a closed form worth checking.
K, beta, h = 2.0, 0.5, 0.25
f = lambda t: K * np.abs(np.asarray(t, dtype=float)) ** beta
got = rl_integral(f, 0.0, 1.0 - beta, h)
want = gamma(1.0 + beta) * K * h
print(f"integral identity: got {got:.10f}  expected {want:.10f}")

# The derivative of the same order takes K t^beta to the constant
# Gamma(1+beta) K at every point; it is the derivative of that integral.
got = rl_derivative(f, 0.0, beta, [h, 4 * h])
want = gamma(1.0 + beta) * K
print(f"derivative identity: got {got[0]:.10f} and {got[1]:.10f}  expected {want:.10f}")

# The derivative limit at a cusp: Gamma(1.5) times the velocity 1.
cusp = make_power_cusp(0.0, 0.5, 1.0, 0.0)
est = kg_lfd(cusp, 0.0, 0.5, Direction.FORWARD)
print(f"\nlfd at the cusp: {est.value:.8f}"
      f"  (Gamma(1.5) = {gamma(1.5):.8f})")
print(f"approach status: {est.status.value}, window spread {est.residual:.2e}")

# And the packaged comparison, which estimates the velocity first and
# then measures the gap against Gamma(1+beta) * velocity.
rep = check_lfd_equivalence(cusp, 0.0, 0.5, Direction.FORWARD)
print(f"\nequivalence check: passed={rep.passed}")
print(f"  velocity            {rep.velocity:.6f}")
print(f"  scaled velocity     {rep.velocity_scaled:.6f}")
print(f"  lfd                 {rep.lfd.value:.6f}")
print(f"  gap                 {rep.equivalence_gap:.2e}")
print(f"  combined tolerance  {rep.combined_tolerance:.2e}")
