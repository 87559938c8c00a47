import itertools

import numpy as np
import pytest

from vh2kg.cluster import KMeansConfig, kmeans, kmeans_history
from vh2kg.errors import TooFewPoints


def two_blobs(rng, n=30, spread=0.1):
    a = rng.normal((0, 0), spread, size=(n, 2))
    b = rng.normal((10, 10), spread, size=(n, 2))
    return np.vstack([a, b])


def brute_force_best(points, k):
    """Exact minimum inertia over every partition (tiny inputs only)."""
    best = np.inf
    n = len(points)
    for labels in itertools.product(range(k), repeat=n):
        labels = np.array(labels)
        inertia = 0.0
        for c in range(k):
            members = points[labels == c]
            if len(members):
                inertia += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


def test_two_blob_separation():
    points = two_blobs(np.random.default_rng(0))
    assignments, centroids, inertia = kmeans(points, KMeansConfig(k=2, seed=1))
    first, second = assignments[:30], assignments[30:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]
    assert inertia < 10.0


def test_matches_brute_force_on_tiny_input():
    rng = np.random.default_rng(2)
    points = rng.random((8, 2))
    _, _, inertia = kmeans(points, KMeansConfig(k=2, seed=0))
    best = brute_force_best(points, 2)
    # Lloyd's can hit a local optimum but on 8 well-spread points with
    # kmeans++ seeding it lands on the global one
    assert inertia == pytest.approx(best, rel=1e-9)


def test_inertia_monotone_non_increasing():
    rng = np.random.default_rng(3)
    for trial in range(10):
        points = rng.random((50, 4))
        _, _, _, history = kmeans_history(points, KMeansConfig(k=5, seed=trial))
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-12


def test_deterministic_under_seed():
    rng = np.random.default_rng(4)
    points = rng.random((40, 3))
    r1 = kmeans(points, KMeansConfig(k=4, seed=9))
    r2 = kmeans(points, KMeansConfig(k=4, seed=9))
    assert np.array_equal(r1[0], r2[0])
    assert np.array_equal(r1[1], r2[1])
    assert r1[2] == r2[2]


def test_tie_breaks_to_lowest_index():
    # four points equidistant from both centroids: all must land on index 0,
    # matching the documented lowest-index tie convention
    from vh2kg.cluster import _sq_dists
    points = np.array([[0.0, 1.0], [0.0, -1.0], [2.0, 1.0], [2.0, -1.0]])
    centroids = np.array([[1.0, 0.0], [1.0, 0.0]])
    d2 = _sq_dists(points, centroids)
    assert np.argmin(d2, axis=1).tolist() == [0, 0, 0, 0]


def test_k_larger_than_points_raises():
    with pytest.raises(TooFewPoints):
        kmeans(np.zeros((3, 2)), KMeansConfig(k=5))
