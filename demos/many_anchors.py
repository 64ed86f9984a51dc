"""Domination numbers with many anchors, fixed or random.

Anchors partition the interval into cells; end cells contribute 1 when
occupied, middle cells contribute 1 or 2.  Conditioning on the anchor
positions gives a fast dynamic program over cell occupancies.  Uniform
anchors make the cell counts uniform over the compositions of n, so the
same program gives the random-anchor pmf exactly, at any number of
anchors.  For equal sample and anchor counts the expectation grows
linearly, and for anchors dense relative to the points the domination
number saturates at n.
"""

from fractions import Fraction

import numpy as np

from cccd.densities import Uniform
from cccd.exact import p_uniform_fraction
from cccd.multianchor import (
    asymptotic_law_fixed_m,
    conditional_on_anchors,
    expected_gamma_hu,
    pmf_conditional_table,
    pmf_random_anchors_table,
)


def main():
    uniform = Uniform()

    print("Fixed anchors at {1/3, 2/3}, five uniform points:")
    cond = conditional_on_anchors(uniform, [1 / 3, 2 / 3])
    table = pmf_conditional_table(cond, 5)
    for k, prob in enumerate(table):
        if prob > 0:
            print(f"  P(gamma = {k}) = {prob:.6f}")
    print()

    print("Random uniform anchors, exact pmf from uniform compositions (n=4, m=2):")
    table = pmf_random_anchors_table(uniform, uniform, 4, 2)
    for k, prob in enumerate(table):
        if prob > 0:
            print(f"  P(gamma = {k}) = {prob:.6f}")
    mean = float(np.arange(len(table)) @ table)
    exact_mean = expected_gamma_hu(4, 2, [p_uniform_fraction(i) for i in range(1, 5)])
    print(f"  mean {mean:.6f} vs exact rational mean {exact_mean} = {float(exact_mean):.6f}")
    print()

    print("The same exact route at n = m = 30, far past any anchor quadrature:")
    table = pmf_random_anchors_table(uniform, uniform, 30, 30)
    mode = int(np.argmax(table))
    mean = float(np.arange(len(table)) @ table)
    exact_mean = expected_gamma_hu(30, 30, [p_uniform_fraction(i) for i in range(1, 31)])
    print(f"  mass {table.sum():.15f}, mode P(gamma = {mode}) = {table[mode]:.6f}")
    print(f"  mean {mean:.12f} vs exact rational mean {float(exact_mean):.12f}")
    print()

    print("Small exact expectations under equal-mass uniform anchors:")
    for n, m in ((2, 1), (2, 2), (3, 2), (3, 3)):
        p_table = [p_uniform_fraction(i) for i in range(1, n + 1)]
        value = expected_gamma_hu(n, m, p_table)
        assert isinstance(value, Fraction)
        print(f"  E[gamma(D_{n},{m})] = {value} = {float(value):.6f}")
    print()

    print("Fixed anchor count, huge n: gamma tends to m+1 + Binomial(m-1, 4/9):")
    law = asymptotic_law_fixed_m([4 / 9, 4 / 9], 3)
    for k, prob in sorted(law.items()):
        print(f"  P(gamma -> {k}) = {prob:.6f}")
    print()

    print("Equal counts n = m growing together (exact rational means):")
    means = []
    for n in (5, 10, 20, 40):
        means.append(expected_gamma_hu(n, n, [p_uniform_fraction(i) for i in range(1, n + 1)]))
        print(f"  n=m={n:<3d} E[gamma] = {float(means[-1]):.6f}")
    print(f"  strictly increasing: {all(b > a for a, b in zip(means, means[1:]))}; "
          f"E[gamma] / n at n = 40: {float(means[-1]) / 40:.4f}")


if __name__ == "__main__":
    main()
