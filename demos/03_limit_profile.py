"""The limit profile: where the glue elements sit in a typical extension.

The normalized weight u^((a-1)/(b-a)) (1-u)^((m-b)/(b-a)) integrates to a
strictly increasing bijection of [0,1] (a regularized incomplete beta); its
inverse is the limiting height profile.  The slope of the profile satisfies
an exact algebraic identity, is unimodal, and bottoms out where the weight
density peaks.  The same recipe solves the general weight/exponent problem,
which is checked here against two closed forms.
"""

import math

import numpy as np

from clusterext import (VariationalProblem, cli, limit_profile,
                        limit_profile_slope, slope_argmin,
                        variational_profile, weight_cdf)

m, a, b = 8, 3, 5
print(f"profile for (m, a, b) = ({m}, {a}, {b})")
lam = slope_argmin(m, a, b)
print(f"  slope minimum at t = {lam:.6f} "
      f"(= cdf evaluated at (a-1)/(m-b+a-1) = {(a-1)/(m-b+a-1)})")
print("  t      f(t)     f'(t)")
for t in np.linspace(0.1, 0.9, 9):
    print(f"  {t:.2f}  {limit_profile(m, a, b, float(t)):.5f}  "
          f"{limit_profile_slope(m, a, b, float(t)):.5f}")
print()

print("slope identity residual f'(t)^(b-a) f^(a-1) (1-f)^(m-b) - B^(b-a):")
from clusterext import beta_value

target = beta_value(m, a, b) ** (b - a)
worst = max(abs(limit_profile_slope(m, a, b, t) ** (b - a)
                * limit_profile(m, a, b, t) ** (a - 1)
                * (1 - limit_profile(m, a, b, t)) ** (m - b) - target)
            for t in np.linspace(0.01, 0.99, 99))
print(f"  worst over [0.01, 0.99]: {worst:.2e}")
print()

print("(3,1,2) has closed forms: cdf(t) = 1-(1-t)^2, profile(t) = 1-sqrt(1-t)")
t = 0.37
print(f"  cdf(0.37)     = {weight_cdf(3, 1, 2, t):.12f} "
      f"(exact {1 - (1 - t) ** 2:.12f})")
print(f"  profile(0.37) = {limit_profile(3, 1, 2, t):.12f} "
      f"(exact {1 - math.sqrt(1 - t):.12f})")
print()

print("general solver: constant weight gives the identity map,")
u = np.linspace(0, 1, 1001)
tt, j = variational_profile(VariationalProblem(np.ones(1001), 2.0))
print(f"  max |j(t) - t| = {np.max(np.abs(j - tt)):.2e}")
print("and weight e^u with exponent 0 gives log(1 + (e-1)t):")
uu = np.linspace(0, 1, 200001)
tt, j = variational_profile(VariationalProblem(np.exp(uu), 0.0))
print(f"  max |j - log(1+(e-1)t)| = "
      f"{np.max(np.abs(j - np.log1p((math.e - 1) * tt))):.2e}")
print()

print("CSV of a coarse table, as `clusterext profile --format csv` prints it:")
cli.run(["profile", f"--m={m}", f"--a={a}", f"--b={b}", "--points=10",
         "--format=csv"])
