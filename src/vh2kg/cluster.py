"""Lloyd's k-means with seeded kmeans++ initialization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, TooFewPoints


@dataclass(frozen=True)
class KMeansConfig:
    k: int = 10
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise BadConfig("k must be >= 1")
        if self.max_iters < 1:
            raise BadConfig("max_iters must be >= 1")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise BadConfig("seed must be >= 0")


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _init_centroids(points: np.ndarray, cfg: KMeansConfig) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    n = len(points)
    centroids = [points[rng.integers(n)]]
    for _ in range(cfg.k - 1):
        d2 = _sq_dists(points, np.array(centroids)).min(axis=1)
        total = d2.sum()
        if total == 0:
            centroids.append(points[rng.integers(n)])
            continue
        centroids.append(points[rng.choice(n, p=d2 / total)])
    return np.array(centroids)


def kmeans(points: np.ndarray, cfg: KMeansConfig = KMeansConfig()):
    """Returns (assignments, centroids, inertia); ties go to the lowest
    centroid index and inertia never increases across iterations."""
    return kmeans_history(points, cfg)[:3]


def kmeans_history(points: np.ndarray, cfg: KMeansConfig = KMeansConfig()):
    """Like kmeans() but also returns the per-iteration inertia trail."""
    points = np.asarray(points, dtype=float)
    if cfg.k > len(points):
        raise TooFewPoints(f"k={cfg.k} exceeds {len(points)} points")
    centroids = _init_centroids(points, cfg)
    assignments = None
    history = []
    for _ in range(cfg.max_iters):
        d2 = _sq_dists(points, centroids)
        new_assignments = d2.argmin(axis=1)  # argmin takes the lowest index on ties
        history.append(float(d2[np.arange(len(points)), new_assignments].sum()))
        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(cfg.k):
            members = points[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    inertia = float(_sq_dists(points, centroids)[np.arange(len(points)), assignments].sum())
    return assignments, centroids, inertia, history


def clusters_csv(tokens, assignments) -> str:
    """``token,cluster`` rows, one per line.  A token holding a comma, a
    quote or a line break (literal tokens do) is quoted as in RFC 4180;
    ``csv.writer`` with a "\\n" terminator would leave a "\\r" unquoted."""
    rows = []
    for token, cluster in zip(tokens, assignments):
        if any(c in token for c in ',"\r\n'):
            token = '"' + token.replace('"', '""') + '"'
        rows.append(f"{token},{cluster}\n")
    return "".join(rows)
