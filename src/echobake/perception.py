"""Perceptual thresholds for late-reverb similarity, and path clustering.

Listeners stop noticing a change in late reverberation once the mean free
path moves by less than about one percent, a much tighter bound than the
three percent that applies to early reflections. Path points whose mean
free paths sit within that tolerance of each other can therefore share a
single expensive late-reverb simulation. `cluster_path` performs that
grouping in one forward pass.
"""

from __future__ import annotations

import bisect
import io
from dataclasses import dataclass, field

from .errors import InputError, is_finite_real, is_int, is_point

# Join tolerance, relative to the cluster reference. Absorbs the rounding
# of the threshold product so boundary cases land on the intended side.
_JOIN_SLACK_REL = 1e-12

# Listening-test constants behind the clustering thresholds. The detection
# probability for early reflections rises linearly with the mean free path
# around a 2 m reference room; its 50% point sits 0.06 m above the
# reference, a 3% relative threshold. Late reverb is more forgiving to
# simulate but less forgiving to perturb: its threshold is the early one
# minus `LR_OFFSET` times the mean free path, leaving 1% relative.
MU_REF_M = 2.0
JND_ER_ABS_M = 0.06
LR_OFFSET = 0.02


def jnd_er(mu_ref: float) -> float:
    """Smallest noticeable mean-free-path change for early reflections."""
    if mu_ref <= 0.0:
        raise InputError("mu_ref must be positive")
    return (JND_ER_ABS_M / MU_REF_M) * mu_ref


def jnd_lr(mu_ref: float) -> float:
    """Smallest noticeable mean-free-path change for late reverb.

    The early-reflection threshold minus `LR_OFFSET * mu_ref`: 1% of
    `mu_ref`, and at the 2 m reference room exactly `JND_ER_ABS_M - 0.04`.
    """
    return jnd_er(mu_ref) - LR_OFFSET * mu_ref


@dataclass(frozen=True)
class PathSample:
    """One listener-path point with its traced mean free path."""

    index: int
    position: tuple[float, float, float]
    mu: float

    def __post_init__(self) -> None:
        if not is_point(self.position):
            raise InputError(f"sample {self.index}: position must be 3 finite "
                             f"coordinates, got {self.position!r}")
        if not (is_finite_real(self.mu) and self.mu > 0.0):
            raise InputError(f"sample {self.index}: mu must be finite and "
                             f"positive, got {self.mu!r}")


@dataclass(frozen=True)
class Cluster:
    """A contiguous run of path samples sharing one late-reverb solution.

    `mu_ref` is the reference the join test used: the first member's mean
    free path. `jnd_threshold_m` is the absolute tolerance applied at that
    reference. The pipeline fills `rt60_bands`, `r_squared`, and
    `lr_position` after running the cluster's one high-order trace.
    """

    start: int
    stop: int
    mu_ref: float
    mu_mean: float
    jnd_threshold_m: float
    rt60_bands: tuple[float, ...] | None = None
    r_squared: tuple[float, ...] | None = None
    lr_position: tuple[float, float, float] | None = None

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ClusterMap:
    """Ordered, disjoint, exhaustive clustering of a sample list."""

    clusters: tuple[Cluster, ...]
    n_samples: int
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.clusters:
            raise InputError("cluster map must contain at least one cluster")
        expected = 0
        for i, c in enumerate(self.clusters):
            if not (is_int(c.start) and is_int(c.stop) and c.start == expected < c.stop):
                raise InputError(f"cluster {i}: clusters must partition the samples in order")
            expected = c.stop
        if expected != self.n_samples:
            raise InputError(
                f"clusters cover {expected} samples, expected {self.n_samples}"
            )
        object.__setattr__(self, "_starts", tuple(c.start for c in self.clusters))

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, sample_index: int) -> int:
        if not 0 <= sample_index < self.n_samples:
            raise InputError(f"sample index {sample_index} out of range")
        return bisect.bisect_right(self._starts, sample_index) - 1

    def dominant(self, n: int = 3) -> tuple[int, ...]:
        """Indices of the n largest clusters, in path order."""
        order = sorted(range(self.n_clusters),
                       key=lambda i: (-self.clusters[i].size, i))
        return tuple(sorted(order[:n]))


def _threshold(mu_ref: float, mode: str) -> float:
    if mode == "relative":
        return jnd_lr(mu_ref)
    if mode == "absolute":
        return jnd_lr(MU_REF_M)
    raise InputError(f"unknown clustering mode {mode!r}")


def cluster_path(samples: list[PathSample] | tuple[PathSample, ...],
                 mode: str = "relative") -> ClusterMap:
    """Group consecutive samples whose mean free paths are indistinguishable.

    Single forward pass: the first sample opens a cluster and becomes its
    reference. Each later sample joins the open cluster while
    |mu - mu_ref| stays within the late-reverb threshold at the
    reference; the first sample past it closes the cluster and opens the
    next with itself as reference. Deterministic, order-preserving.

    Parameters
    ----------
    mode : "relative" scales the threshold with the reference (1% of it);
        "absolute" freezes it at the reference room's value in metres.
    """
    if not samples:
        raise InputError("cluster_path requires at least one sample")
    for i, s in enumerate(samples):
        if s.index != i:
            raise InputError("sample indices must be contiguous from 0")

    clusters: list[Cluster] = []
    start = 0
    ref = samples[0].mu
    total = samples[0].mu

    def close(stop: int) -> None:
        mean = total / (stop - start)
        clusters.append(Cluster(start, stop, ref, mean,
                                _threshold(ref, mode)))

    for i in range(1, len(samples)):
        mu = samples[i].mu
        thr = _threshold(ref, mode)
        if abs(mu - ref) <= thr + _JOIN_SLACK_REL * ref:
            total += mu
        else:
            close(i)
            start = i
            ref = mu
            total = mu
    close(len(samples))
    return ClusterMap(tuple(clusters), len(samples))


def cluster_csv_text(samples: list[PathSample] | tuple[PathSample, ...],
                     cmap: ClusterMap) -> str:
    """Per-sample CSV with the assigned cluster, for plotting."""
    if len(samples) != cmap.n_samples:
        raise InputError("sample list does not match the cluster map")
    buf = io.StringIO()
    buf.write("sample_index,x,y,z,mu,cluster_id\n")
    for s in samples:
        cid = cmap.cluster_of(s.index)
        x, y, z = s.position
        buf.write(f"{s.index},{x!r},{y!r},{z!r},{s.mu!r},{cid}\n")
    return buf.getvalue()
