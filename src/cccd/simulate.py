"""Seeded Monte Carlo over the domination number.

A :class:`SimulationPlan` fixes the point model, the anchors (a fixed list
or a model to draw them from), the sample sizes, and a 64-bit seed.
:func:`run` turns a plan into empirical counts per domination number, and
:func:`compare` grades those counts against a predicted distribution with
per-atom binomial z scores.

Replicate ``r`` consumes the SFC64 substream keyed by ``(seed, r // BATCH_REPS)``
at row ``r % BATCH_REPS``, so the counts depend only on ``(seed, r)`` and are
bit-identical for any worker count and any total replicate budget that
includes ``r``.  Workers split work at batch boundaries and merge integer
counts, which commutes.  A batch that would hold more than ``2**18`` uniform
draws runs in chunks of whole rows, drawn one after another from its stream;
the stream fills in order, so the chunks bound the working set at large ``n``
and leave every count unchanged; 2 MiB chunks also keep peak memory steady.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .densities import DensityModel
from .digraph import _cell_gammas

BATCH_REPS = 2048
MAX_TIE_REDRAWS = 100
DEFAULT_THRESHOLD = 4.0

_CHUNK_VALUES = 1 << 18   # most uniform draws a batch holds at once; the C allocator
# may or may not keep a freed chunk of tens of MiB, so larger chunks swing peak RSS

# Stream word of per-replicate redraw streams, ``_REDRAW_KEY_BASE + r`` for
# replicate r; disjoint from batch indices (which stay far below 2**63).
_REDRAW_KEY_BASE = 1 << 63


def _stream(seed: int, word: int) -> np.random.Generator:
    """Stream ``word`` of ``seed``: SFC64 seeded by ``SeedSequence(seed, spawn_key=(word,))``.

    Every Monte Carlo number of the package comes from here.  SFC64 fills
    doubles in less than half the time of Philox.  ``spawn_key`` pads ``seed``
    to four 32-bit words before ``word``, so distinct pairs hash distinct
    entropy; the list form ``SeedSequence([seed, word])`` would not, as it
    gives (2**32, 5) and (0, 1 + 5 * 2**32) the same words.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(word,))
    return np.random.Generator(np.random.SFC64(seq))


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to reproduce one simulation run.

    ``fy`` is either a density model (anchors are drawn fresh each
    replicate) or a sequence of fixed anchor positions.  ``m`` may be
    omitted when fixed anchors pin it down.
    """

    fx: DensityModel
    fy: object
    n: int
    m: int = 0
    reps: int = 1
    seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if not isinstance(self.fx, DensityModel):
            raise TypeError("fx must be a DensityModel")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if isinstance(self.fy, DensityModel):
            if self.m < 1:
                raise ValueError("m must be at least 1 when anchors are drawn from a model")
            if self.fy.support != self.fx.support:
                raise ValueError("fx and fy must share a support interval")
        else:
            anchors = np.sort(np.asarray(self.fy, dtype=float))
            if anchors.ndim != 1 or anchors.size < 1:
                raise ValueError("fixed anchors must be a nonempty 1-d sequence")
            if np.unique(anchors).size != anchors.size:
                raise ValueError("fixed anchors must be distinct")
            lo, hi = self.fx.support.lo, self.fx.support.hi
            if anchors[0] < lo or anchors[-1] > hi:
                raise ValueError("fixed anchors must lie within the support of fx")
            object.__setattr__(self, "fy", tuple(float(a) for a in anchors))
            if self.m == 0:
                object.__setattr__(self, "m", anchors.size)
            elif self.m != anchors.size:
                raise ValueError("m disagrees with the number of fixed anchors")

    @property
    def random_anchors(self) -> bool:
        return isinstance(self.fy, DensityModel)

    @property
    def gamma_cap(self) -> int:
        return min(self.n, 2 * self.m)


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of grading empirical counts against a predicted law."""

    statistic: float
    threshold: float
    verdict: str
    per_atom: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _draw(plan: SimulationPlan, rng: np.random.Generator, rows: int):
    """Sorted points (rows, n) and anchors, (rows, m) or fixed (m,), from ``rng``."""
    if plan.random_anchors:
        u = rng.random((rows, plan.m + plan.n))
        ys = plan.fy.quantile(u[:, : plan.m])
        ys.sort(axis=1)
        xs = plan.fx.quantile(u[:, plan.m :])
    else:
        # the draw is ours, so its quantile may be the draw itself, unclipped
        xs = plan.fx._unit_quantile(rng.random((rows, plan.n)))
        ys = np.asarray(plan.fy, dtype=float)
    xs.sort(axis=1)   # a fresh array either way
    return xs, ys


def _redraw_row(plan: SimulationPlan, replicate: int):
    """Replacement draw, as one-row arrays, for a replicate whose first draw had ties."""
    rng = _stream(plan.seed, _REDRAW_KEY_BASE + replicate)
    for _ in range(MAX_TIE_REDRAWS):
        xs, ys = _draw(plan, rng, 1)
        if not _cell_gammas(xs, ys)[1][0]:
            return xs, ys
    raise ValueError(
        "replicate %d still has tied points after %d redraws; "
        "ties signal a degenerate model" % (replicate, MAX_TIE_REDRAWS)
    )


def _batch_counts(plan: SimulationPlan, batch: int) -> np.ndarray:
    """Domination-number counts for one batch of replicates."""
    start = batch * BATCH_REPS
    rows = min(BATCH_REPS, plan.reps - start)
    rng = _stream(plan.seed, batch)
    step = max(1, _CHUNK_VALUES // (plan.n + (plan.m if plan.random_anchors else 0)))
    gammas = []
    for first in range(0, rows, step):
        cells, tied = _cell_gammas(*_draw(plan, rng, min(step, rows - first)))
        for row in np.flatnonzero(tied):
            cells[row] = _cell_gammas(*_redraw_row(plan, start + first + int(row)))[0][0]
        gammas.append(cells.sum(axis=1))
    gammas = np.concatenate(gammas)
    if gammas.min() < 1 or gammas.max() > plan.gamma_cap:
        raise RuntimeError("domination number left [1, min(n, 2m)]; simulation internals are broken")
    return np.bincount(gammas, minlength=plan.gamma_cap + 1)


def run(plan: SimulationPlan) -> dict:
    """Simulate the plan and return ``{gamma: count}`` over observed values.

    Identical plans give bit-identical counts whatever ``parallelism`` says;
    the worker count only changes wall-clock time.
    """
    n_batches = -(-plan.reps // BATCH_REPS)
    if plan.parallelism > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=plan.parallelism) as pool:
            partials = list(pool.map(lambda b: _batch_counts(plan, b), range(n_batches)))
    else:
        partials = [_batch_counts(plan, b) for b in range(n_batches)]
    totals = np.zeros(plan.gamma_cap + 1, dtype=np.int64)
    for part in partials:
        totals += part
    return {int(k): int(c) for k, c in enumerate(totals) if c > 0}


def compare(empirical: dict, predicted: dict, threshold: float = DEFAULT_THRESHOLD) -> ComparisonVerdict:
    """Grade empirical counts against predicted atom probabilities.

    Each atom gets a binomial z score ``(phat - p) / sqrt(p (1 - p) / reps)``;
    the verdict is ``pass`` exactly when every score stays within
    ``threshold``.  The statistic field carries the aggregate chi-square
    over atoms with positive predicted mass.
    """
    reps = sum(empirical.values())
    if reps <= 0:
        raise ValueError("empirical distribution is empty")
    if not threshold > 0:  # NaN fails this test too
        raise ValueError("threshold must be positive")
    atoms = sorted(set(empirical) | set(predicted))
    per_atom = []
    chi2 = 0.0
    ok = True
    for k in atoms:
        p = float(predicted.get(k, 0.0))
        phat = empirical.get(k, 0) / reps
        spread = math.sqrt(p * (1.0 - p) / reps)
        if spread > 0.0:
            z = (phat - p) / spread
            chi2 += reps * (phat - p) ** 2 / p if p > 0.0 else 0.0
        elif phat == p:
            z = 0.0
        else:
            z = math.inf if phat > p else -math.inf
            chi2 = math.inf
        ok &= abs(z) <= threshold
        per_atom.append((k, phat, p, z))
    return ComparisonVerdict(
        statistic=chi2,
        threshold=float(threshold),
        verdict="pass" if ok else "fail",
        per_atom=tuple(per_atom),
    )
