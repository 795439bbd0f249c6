"""Shared fixtures: meshes are immutable, so build each one once per session."""

import math

import numpy as np
import pytest

from obsfem import Boundary, TriMesh, build_disk_mesh, build_square_mesh
from obsfem import observations


@pytest.fixture(scope="session")
def square4():
    return build_square_mesh(4)


@pytest.fixture(scope="session")
def square8():
    return build_square_mesh(8)


@pytest.fixture(scope="session")
def square10():
    return build_square_mesh(10)


@pytest.fixture(scope="session")
def disk10():
    return build_disk_mesh(10)


@pytest.fixture(scope="session")
def mixed_mesh():
    """Unit disk cut into four quadrant triangles: the first boundary
    element is the straight chord from (1, 0) to (0, 1), the other three
    are quarter-circle arcs."""
    verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
    tris = np.array([[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]])
    h = math.pi / 2
    arc = [[math.nan] * 5] + [[0.0, 0.0, 1.0, j * h, (j + 1) * h] for j in (1, 2, 3)]
    return TriMesh(verts, tris, Boundary(np.arange(4), [math.sqrt(2.0), h, h, h], arc))


@pytest.fixture()
def stream_opens(monkeypatch):
    """(seed, block) of every noise block a cursor opened while the test runs."""
    opens, open_block = [], observations._NoiseStream._open

    def counted(self, block):
        opens.append((self.seed, block))
        open_block(self, block)

    monkeypatch.setattr(observations._NoiseStream, "_open", counted)
    return opens


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
