"""Walk through the finite-sample domination law with two fixed anchors.

With points on the unit interval and anchors pinned at its endpoints, the
domination number of the catch digraph is either 1 or 2, and P(gamma = 2)
has an exact value for every sample size.  This script prints that value
for a few densities along three independent routes: closed form where one
exists, exact rational arithmetic for step densities, and adaptive
quadrature of the two-dimensional integral that works for everything.
"""

from fractions import Fraction

from cccd.densities import GapUniform, ShrunkUniform, SquareCdf, TwoStep
from cccd.exact import p_uniform_fraction, probability


def show(model, n):
    auto = probability(model, n)
    quad = probability(model, n, method="quadrature")
    exact = f"= {auto.exact}" if auto.exact is not None else ""
    print(f"  {model.family:15s} n={n:<3d} p={auto.value:.10f} "
          f"[{auto.method}] {exact}")
    print(f"  {'':15s} quadrature gap {abs(auto.value - quad.value):.2e}")


def main():
    print("Uniform points: p_n = 4/9 - (16/9) 4^-n, exactly.")
    for n in (1, 2, 5, 20):
        frac = p_uniform_fraction(n)
        print(f"  n={n:<3d} p = {frac} = {float(frac):.10f}")
    print(f"  limiting value 4/9 = {4 / 9:.10f}")
    print()

    print("Step and shape families, three routes each:")
    for model, n in [
        (ShrunkUniform(0.1), 10),
        (GapUniform(0.1), 10),
        (TwoStep(0.5), 10),
        (SquareCdf(), 12),
    ]:
        show(model, n)
    print()

    print("Squeezing the support raises coverage, so gamma = 2 gets rarer;")
    print("tearing a hole in the middle does the opposite:")
    u10 = float(p_uniform_fraction(10))
    shrunk = probability(ShrunkUniform(0.1), 10).value
    gap = probability(GapUniform(0.1), 10).value
    print(f"  shrunk {shrunk:.6f}  <  uniform {u10:.6f}  <  gap {gap:.6f}")

    print()
    print("The square-cdf density has its own multinomial route:")
    rep = probability(SquareCdf(), 12)
    assert isinstance(rep.exact, Fraction)
    print(f"  n=12: {rep.exact} (exact), float {rep.value:.12f}")


if __name__ == "__main__":
    main()
