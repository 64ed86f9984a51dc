"""Large-sample behavior: limits from leading terms, and rates.

The limiting P(gamma = 2) depends on the density only through its leading
term c t^a beside three landmarks: the two support endpoints and the
midpoint.  On each side the lower power wins, which gives the end the
factor 1 or 0, and equal powers weigh the two c's.  So an end where the
density diverges beside a finite midpoint gets the factor 1.  This script
computes those profiles for the catalog, checks them against the published
closed formulas, and fits empirical convergence rates.
"""

from cccd.asymptotics import (
    asymptotic_profile,
    describe_limit,
    empirical_rate_exponent,
    limit_family_formula,
)
from cccd.densities import (
    AbsSine,
    ArcSine,
    Beta,
    Linear,
    PieceQuadratic,
    QPower,
    ThreeStep,
    TruncatedNormal,
    TwoStep,
    Uniform,
)


def main():
    print("Leading-term profiles and limits (relative gap to the closed formula):")
    for model in (Uniform(), Linear(1.0), AbsSine(), PieceQuadratic(0.0),
                  QPower(1), QPower(0.5), TwoStep(0.5), ThreeStep(0.5), Beta(2, 2),
                  TruncatedNormal(-0.5, 0.1)):
        prof = asymptotic_profile(model)
        formula = limit_family_formula(model)
        gap = abs(prof.p_limit - formula) / formula if formula else abs(prof.p_limit)
        print(f"  {model.family:17s} k={prof.k} ell={prof.ell} "
              f"limit={prof.p_limit:.10g} formula gap {gap:.1e}")
    print()

    print("The arc-sine density diverges at both endpoints beside a finite")
    print("midpoint, so each end holds more mass near it than the middle does")
    print("and weighs in with the factor 1:")
    row = describe_limit(ArcSine())
    print(f"  describe_limit: method={row['method']} k={row['k']} ell={row['ell']} "
          f"limit={row['p_limit']!r} (closed answer: 1)")
    print()

    print("Fitted log-log slopes of |p_n - limit|:")
    slope = empirical_rate_exponent(Linear(1.0), n_values=(50, 100, 200, 400),
                                    limit=3.0 / 8.0)
    print(f"  linear(1) over n=50..400:    {slope:.3f}  (theory: 1)")
    slope = empirical_rate_exponent(Beta(2, 2), n_values=(1600, 3200, 6400, 12800),
                                    limit=0.0)
    print(f"  beta(2,2) over n=1600..12800: {slope:.3f}  (theory: 2;")
    print("   the n^-2 regime only settles in past n of a few thousand)")
    slope = empirical_rate_exponent(ArcSine(), n_values=(1000, 2000, 4000, 8000))
    print(f"  arc-sine over n=1000..8000:   {slope:.3f}  (1 - p_n is about pi/n)")


if __name__ == "__main__":
    main()
