"""A fixed reference job that measures how fast the host runs right now.

Shared hosts change speed by a third or more over minutes as other tenants'
load comes and goes, mostly through contention for the shared cache and
memory, so a run made in a slow minute reads slow although the code did the
same work.  The benchmark times this job after every op and scales its times
by ``REFERENCE_S`` over the job's median time in the run: the result is
seconds at the reference speed.  On the host below this cut the spread of
``wall_s`` over four runs of ``multi`` from 34% to 9%.

The job mixes the kinds of work cccd does: a Beta quantile and a row sort,
a broadcast comparison with a bincount, a cache-missing gather, a
tensor-product Gauss rule, Fraction arithmetic, and interpreter-bound dict
work.  Its working set of about 6 MB is larger than a core's L2 cache, as
cccd's is.  It uses nothing from cccd, so no change to the package moves it.
"""

import time
from fractions import Fraction

import numpy as np
from scipy import special

# Median seconds of one job on the reference host: Intel Xeon (Sapphire
# Rapids) VM, 2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1.
REFERENCE_S = 0.021

_RNG = np.random.default_rng(20260815)
_U = _RNG.random((512, 200))
_Y = np.sort(_RNG.random((512, 5)), axis=1)
_X, _W = np.polynomial.legendre.leggauss(15)
_BIG = _RNG.random(600_000)
_GATHER = _RNG.integers(0, _BIG.size, 200_000)


def seconds():
    """Wall seconds one run of the reference job takes."""
    start = time.perf_counter()
    special.betaincinv(2.0, 2.0, _U[:40])
    xs = np.sort(_U, axis=1)
    cells = (xs[:, :, None] >= _Y[:, None, :]).sum(axis=2)
    np.bincount(cells.ravel(), minlength=_Y.shape[1] + 1)
    _BIG[_GATHER].sum()
    grid = np.exp(50.0 * np.log1p(-np.outer(_X, _X) ** 2))
    np.einsum("ij,i,j->", grid, _W, _W)
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(1, k * k)
    tally = {}
    for k in range(20_000):
        tally[k % 97] = tally.get(k % 97, 0) + k
    return time.perf_counter() - start
