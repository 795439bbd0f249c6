import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import obsfem.analysis
import obsfem.mesh
from obsfem import (
    Boundary,
    ErrorQuadrature,
    Level,
    MeshError,
    NoiseModel,
    TriMesh,
    assemble_load,
    assemble_stiffness,
    boundary_normal,
    boundary_point,
    build_disk_mesh,
    build_mesh,
    build_square_mesh,
    mesh_quality,
    read_mesh_text,
    sine_case,
    write_mesh_text,
)
from obsfem.mesh import _stitch_rings, triangle_diameters


def walk_rings(inner_ids, inner_ang, outer_ids, outer_ang):
    """Triangles between two rings by walking both in angle, advancing the
    ring whose next vertex comes first (the inner one on a tie)."""
    na, nb = len(inner_ids), len(outer_ids)
    iid = np.append(inner_ids, inner_ids[0])
    oid = np.append(outer_ids, outer_ids[0])
    iang = np.append(inner_ang, inner_ang[0] + 2.0 * math.pi)
    oang = np.append(outer_ang, outer_ang[0] + 2.0 * math.pi)
    tris = []
    a = b = 0
    while a < na or b < nb:
        if b >= nb or (a < na and iang[a + 1] <= oang[b + 1]):
            tris.append((iid[a], oid[b], iid[a + 1]))
            a += 1
        else:
            tris.append((iid[a], oid[b], oid[b + 1]))
            b += 1
    return np.array(tris)


def quarter_arc_mesh():
    """Unit disk cut into four quadrant triangles with quarter-circle arcs."""
    verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
    tris = np.array([[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]])
    return TriMesh(verts, tris, quarter_arcs())


def quarter_arcs():
    """Boundary of four quarter-circle arcs through vertices 0..3."""
    h = math.pi / 2
    return Boundary(np.arange(4), np.full(4, h), [[0.0, 0.0, 1.0, j * h, (j + 1) * h] for j in range(4)])


def concave_arc_mesh(path):
    """The unit square with its top bent in along a clockwise arc of the
    circle of radius 1.3 about (0.5, 2.2), written to `path` in the text
    format and read back: the loop runs bottom, right, the arc from (1, 1)
    to (0, 1) with decreasing angle, left."""
    cx, cy, r = 0.5, 2.2, 1.3
    arc = [cx, cy, r, math.atan2(1.0 - cy, 1.0 - cx), math.atan2(1.0 - cy, 0.0 - cx)]
    path.write_text("5 4 4\n0 0\n1 0\n1 1\n0 1\n0.5 0.45\n0 1 4\n1 2 4\n2 3 4\n3 0 4\n0 1 S\n1 2 S\n"
                    f"2 3 A {' '.join(f'{x:.17g}' for x in arc)}\n3 0 S\n")
    return read_mesh_text(str(path))


def builder_normals(mesh, pts):
    """Outward normals at points of the unit square's or the unit disk's
    boundary from their coordinates alone, as they were found before the
    mesh boundary owned them: +-1 or 0 by thresholds on the square, x / r
    on the disk."""
    x, y = pts[..., 0], pts[..., 1]
    if mesh.boundary.curved.all():
        r = np.hypot(x, y)
        return np.stack([x / r, y / r], axis=-1)
    nx = np.where(np.abs(x - 1.0) < 1e-9, 1.0, np.where(np.abs(x) < 1e-9, -1.0, 0.0))
    ny = np.where(np.abs(y - 1.0) < 1e-9, 1.0, np.where(np.abs(y) < 1e-9, -1.0, 0.0))
    return np.stack([nx, ny], axis=-1)


class TestSquareMesh:
    def test_counts_k2(self):
        mesh = build_square_mesh(2)
        assert len(mesh.vertices) == 9
        assert len(mesh.triangles) == 8
        assert len(mesh.boundary) == 8
        assert mesh.boundary_length == pytest.approx(4.0, abs=1e-14)

    def test_counts_k10(self, square10):
        assert len(square10.vertices) == 121
        assert len(square10.triangles) == 200
        assert len(square10.boundary) == 40

    def test_area_partition(self):
        mesh = build_square_mesh(2)
        assert abs(mesh.areas.sum() - 1.0) <= 1e-14

    def test_k_too_small(self):
        with pytest.raises(MeshError):
            build_square_mesh(1)

    def test_mesh_size_is_diagonal(self, square10):
        assert square10.mesh_size_h == pytest.approx(math.sqrt(2) / 10, rel=1e-12)

    def test_aspect_is_one_plus_sqrt2(self, square10):
        # right isoceles triangles: diameter / inscribed diameter = 1 + sqrt(2)
        q = mesh_quality(square10)
        assert q.max_aspect == pytest.approx(1 + math.sqrt(2), rel=1e-12)
        assert q.diameter_ratio == pytest.approx(1.0, rel=1e-12)

    def test_boundary_loop_closes(self, square10):
        # consecutive loop vertices are neighbours on the square's boundary
        b, x = square10.boundary, square10.vertices
        np.testing.assert_allclose(np.linalg.norm(x[b.v1] - x[b.v0], axis=1), 0.1, rtol=1e-12)
        assert len(np.unique(b.v0)) == 40
        assert np.all((np.minimum(x[b.v0], 1.0 - x[b.v0]) == 0.0).any(axis=1))

    @pytest.mark.parametrize("k", [2, 3, 7, 40])
    def test_triangles_match_the_cell_loop(self, k):
        expected = []
        for j in range(k):
            for i in range(k):
                ll, ul = j * (k + 1) + i, (j + 1) * (k + 1) + i
                expected += [(ll, ll + 1, ul + 1), (ll, ul + 1, ul)]
        assert np.array_equal(build_square_mesh(k).triangles, expected)

    def test_boundary_starts_at_origin_ccw(self, square10):
        start = square10.vertices[square10.boundary.v0[0]]
        np.testing.assert_allclose(start, [0.0, 0.0], atol=1e-15)
        second = square10.vertices[square10.boundary.v1[0]]
        assert second[0] > 0 and second[1] == 0  # heads along the bottom edge


class TestDiskMesh:
    def test_outer_ring_on_circle(self):
        for m in (2, 10):
            mesh = build_disk_mesh(m)
            r = np.hypot(*mesh.vertices[mesh.boundary.v0].T)
            assert np.abs(r - 1.0).max() <= 1e-12

    def test_boundary_length_is_full_circle(self, disk10):
        # arcs, not chords: lengths must sum to 2*pi exactly
        assert abs(disk10.boundary_length - 2 * math.pi) <= 1e-12

    def test_quality_bounds(self, disk10):
        q = mesh_quality(disk10)
        assert q.max_aspect <= 10.0
        assert q.diameter_ratio <= 4.0

    def test_quality_frozen_values(self):
        # ring construction gives the same worst triangle at every m
        for m in (2, 10, 40):
            q = mesh_quality(build_disk_mesh(m))
            assert q.max_aspect == pytest.approx(3.2106228443383, abs=1e-9)
            assert q.diameter_ratio == pytest.approx(1.6515874221716, abs=1e-9)

    def test_area_close_to_disk(self):
        m = 10
        mesh = build_disk_mesh(m)
        area = mesh.areas.sum()
        assert area < math.pi
        assert area >= math.pi * (1 - (2 * math.pi / m) ** 2)

    def test_m_too_small(self):
        with pytest.raises(MeshError):
            build_disk_mesh(1)

    def test_all_boundary_arcs(self, disk10):
        assert disk10.boundary.curved.all()

    def test_stitching_matches_the_ring_walk(self):
        # consecutive rings of every disk up to m = 160, then rings that
        # share angles, where every step of the walk is a tie
        rings = [2 * math.pi * np.arange(c) / c for c in (round(2 * math.pi * i) for i in range(1, 161))]
        pairs = list(zip(rings, rings[1:])) + [(rings[5], rings[5]), (rings[3], rings[3][::2].copy())]
        for inner_ang, outer_ang in pairs:
            inner = np.arange(len(inner_ang))
            outer = np.arange(len(outer_ang)) + len(inner_ang)
            assert np.array_equal(_stitch_rings(inner, inner_ang, outer, outer_ang),
                                  walk_rings(inner, inner_ang, outer, outer_ang))

    def test_whole_disks_match_the_ring_walk(self):
        # every disk up to m = 160 is the hub's fan, then the walk of each
        # pair of consecutive rings: one merge of all the pairs at once
        sizes = [round(2 * math.pi * i) for i in range(1, 161)]
        first = np.cumsum([1] + sizes)
        ring1 = np.arange(1, first[0] + sizes[0])
        walks = [np.column_stack([np.zeros(sizes[0], dtype=np.int64), ring1, np.roll(ring1, -1)])]
        for i in range(159):
            inner, outer = np.arange(first[i], first[i + 1]), np.arange(first[i + 1], first[i + 2])
            walks.append(walk_rings(inner, 2 * math.pi * np.arange(sizes[i]) / sizes[i],
                                    outer, 2 * math.pi * np.arange(sizes[i + 1]) / sizes[i + 1]))
        for m in range(2, 161):
            assert np.array_equal(build_disk_mesh(m).triangles, np.concatenate(walks[:m])), m

    def test_ring_counts(self, disk10):
        # ring i holds round(2*pi*i) vertices; total includes the hub vertex
        expected = 1 + sum(round(2 * math.pi * i) for i in range(1, 11))
        assert len(disk10.vertices) == expected
        assert len(disk10.boundary) == round(2 * math.pi * 10)


class TestBoundaryPoint:
    def test_straight_segment_midpoint(self):
        mesh = build_square_mesh(2)
        pts = boundary_point(mesh, 0, 0.5)
        np.testing.assert_allclose(pts, [0.25, 0.0], atol=1e-15)
        assert mesh.boundary.length[0] == pytest.approx(0.5, abs=1e-15)

    def test_quarter_arc_midpoint(self):
        mesh = quarter_arc_mesh()
        pts = boundary_point(mesh, 0, 0.5)
        np.testing.assert_allclose(pts, [math.cos(math.pi / 4), math.sin(math.pi / 4)],
                                   atol=1e-14)
        assert mesh.boundary.length[0] == pytest.approx(math.pi / 2, abs=1e-14)

    def test_t0_is_v0(self, disk10):
        for e in (0, 7, len(disk10.boundary) - 1):
            pts = boundary_point(disk10, e, 0.0)
            np.testing.assert_allclose(pts, disk10.vertices[disk10.boundary.v0[e]],
                                       atol=1e-14)

    def test_speed_integrates_to_length(self, disk10, mixed_mesh):
        # constant-speed parametrization: |F_E'(t)| == h_E at every t,
        # checked by central differences on the arcs and on the chord
        t, d = np.array([0.1, 0.3, 0.9]), 1e-6
        for mesh, elements in ((disk10, (0, 31)), (mixed_mesh, (0, 1))):
            for e in elements:
                chord = boundary_point(mesh, e, t + d) - boundary_point(mesh, e, t - d)
                speed = np.linalg.norm(chord, axis=1) / (2 * d)
                np.testing.assert_allclose(speed, mesh.boundary.length[e], rtol=1e-8)

    def test_t_out_of_range(self, square10):
        with pytest.raises(ValueError):
            boundary_point(square10, 0, 1.5)

    def test_element_array_matches_scalar_calls(self, mixed_mesh, square10):
        # one straight chord among quarter arcs exercises both branches
        t = np.array([0.0, 0.3, 1.0])
        for mesh in (mixed_mesh, square10):
            nb = len(mesh.boundary)
            pts = boundary_point(mesh, np.arange(nb)[:, None], t)
            assert pts.shape == (nb, 3, 2)
            for e in range(nb):
                np.testing.assert_array_equal(pts[e], boundary_point(mesh, e, t))

    @pytest.mark.parametrize("mesh_name, e", [("disk10", [5, 5, 2, 5, 0]), ("mixed_mesh", [3, 3, 1, 3, 0])])
    def test_unsorted_repeated_elements_match_the_gather_formula(self, request, mesh_name, e):
        # the elements are grouped into runs of equal consecutive entries;
        # a run may recur, and the result keeps the order of e
        mesh = request.getfixturevalue(mesh_name)
        b = mesh.boundary
        e = np.array(e)
        t = np.linspace(0.05, 0.95, len(e))
        p0, p1 = mesh.vertices[b.v0[e]], mesh.vertices[b.v1[e]]
        expected = p0 + t[:, None] * (p1 - p0)
        cx, cy, r, th0, th1 = b.arc[e].T
        th = th0 + t * (th1 - th0)
        arc = b.curved[e]
        expected[arc] = np.column_stack([cx + r * np.cos(th), cy + r * np.sin(th)])[arc]
        assert arc.any() and (mesh_name == "disk10" or not arc.all())
        assert np.array_equal(boundary_point(mesh, e, t), expected)

    def test_empty_and_scalar_elements(self, disk10):
        assert boundary_point(disk10, np.zeros(0, dtype=int), 0.5).shape == (0, 2)
        assert boundary_point(disk10, np.zeros((0, 3), dtype=int), 0.5).shape == (0, 3, 2)
        pts = boundary_point(disk10, 4, 0.25)
        assert pts.shape == (2,)
        assert np.array_equal(pts, boundary_point(disk10, [4], [0.25])[0])

    def test_vectorized_t(self, disk10):
        t = np.linspace(0.1, 0.9, 5)
        pts = boundary_point(disk10, 3, t)
        assert pts.shape == (5, 2)
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-13)


@pytest.mark.parametrize("function", [boundary_point, boundary_normal])
@pytest.mark.parametrize("e, named", [(-1, "-1"), (8, "8"), (0.5, "0.5"), ([3, 9, -2], "9"), (np.array([1.0]), "1.0")])
def test_element_outside_the_loop_or_not_an_integer_is_named(function, e, named):
    # the 8-element loop of the square k=2: a negative e is refused, not
    # wrapped to the last element, and e = 8 or 0.5 is named, not left to numpy
    with pytest.raises(ValueError, match=rf"^boundary element {re.escape(named)} must be an integer in \[0, NB\), "
                                         rf"NB = 8$"):
        function(build_square_mesh(2), e, 0.5)


@pytest.mark.parametrize("function", [boundary_point, boundary_normal])
@pytest.mark.parametrize("t", [math.nan, [0.25, math.nan, 0.75]])
def test_nan_parameter_is_refused(function, t):
    # NaN fails both comparisons of the [0, 1] check, so it was let through
    with pytest.raises(ValueError, match=r"^parameter t must lie in \[0, 1\]$"):
        function(build_square_mesh(2), 0, t)


class TestEvaluate:
    """The one rule by which f, g0, u0 and grad_u0 are read at points."""

    def evaluate(self, fn, pair=False, shape=(2, 3)):
        x, y = np.arange(6.0).reshape(shape), -np.arange(6.0).reshape(shape)
        return obsfem.mesh._evaluate("fn", fn, x, y, lambda *index: f"point {index}", pair=pair)

    def test_arrays_pass_through_and_scalars_are_broadcast(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(self.evaluate(lambda x, y: x * 2), 2 * x)
        assert np.array_equal(self.evaluate(lambda x, y: 1), np.ones((2, 3)))
        gx, gy = self.evaluate(lambda x, y: (0.0, x), pair=True)
        assert np.array_equal(gx, np.zeros((2, 3))) and np.array_equal(gy, x)
        gx, gy = self.evaluate(lambda x, y: np.stack([x, y]), pair=True)  # an array of two rows is a pair too
        assert np.array_equal(gx, x) and np.array_equal(gy, -x)

    def test_one_call(self):
        calls = []
        self.evaluate(lambda x, y: calls.append(1) or (x, y), pair=True)
        assert calls == [1]

    @pytest.mark.parametrize("fn, pair", [
        (lambda x, y: x.ravel(), False), (lambda x, y: x[:1], False), (lambda x, y: [1.0], False),
        (lambda x, y: (x, y), False), (lambda x, y: 0.0, True), (lambda x, y: (x, y, x), True),
        (lambda x, y: (x,), True), (lambda x, y: (x, y[0]), True)])
    def test_another_shape_is_refused(self, fn, pair):
        with pytest.raises(ValueError, match=r"^fn must map coordinate arrays to a value array$"):
            self.evaluate(fn, pair=pair)

    @pytest.mark.parametrize("fn, pair", [
        (lambda x, y: np.where(x >= 4, np.nan, x), False),
        (lambda x, y: (x, np.where(x >= 4, -np.inf, y)), True),
        (lambda x, y: (np.where(x == 5, np.nan, x), np.where(x == 4, np.inf, y)), True)])
    def test_the_first_point_that_is_not_finite_is_named_in_plain_floats(self, fn, pair):
        # x = 4 is entry (1, 1), the first in row-major order where either component fails
        with pytest.raises(ValueError, match=r"^fn is not finite at point \(1, 1\) \(4\.0, -4\.0\)$"):
            self.evaluate(fn, pair=pair)


class TestBoundaryNormal:
    @pytest.mark.parametrize("domain, k", [("square", 2), ("square", 10), ("square", 33),
                                           ("disk", 2), ("disk", 10), ("disk", 80)])
    def test_unit_and_the_bits_of_the_builders_formulas(self, domain, k):
        mesh = build_mesh(domain, k)
        e = np.arange(len(mesh.boundary))[:, None]
        t = np.concatenate([obsfem.analysis._GAUSS_T, [1e-6, 0.25, 0.5, 1.0 - 1e-6]])  # inside the elements
        normal = boundary_normal(mesh, e, t)
        assert normal.shape == (len(mesh.boundary), 7, 2)
        assert np.array_equal(normal, builder_normals(mesh, boundary_point(mesh, e, t)))
        np.testing.assert_allclose(np.hypot(normal[..., 0], normal[..., 1]), 1.0, rtol=0.0, atol=4e-16)

    def test_chord_and_arcs(self, mixed_mesh):
        t = np.array([0.0, 0.3, 1.0])
        np.testing.assert_allclose(boundary_normal(mixed_mesh, 0, t), np.full((3, 2), math.sqrt(0.5)),
                                   rtol=0.0, atol=1e-15)
        for e in (1, 2, 3):  # quarter arcs of the unit circle: the normal is the point
            np.testing.assert_allclose(boundary_normal(mixed_mesh, e, t), boundary_point(mixed_mesh, e, t),
                                       rtol=0.0, atol=1e-15)

    def test_clockwise_arc_faces_its_centre(self, tmp_path):
        # a clockwise arc of the counterclockwise loop bends the domain in,
        # so its outward normal points to the centre, not away from it
        mesh = concave_arc_mesh(tmp_path / "concave.txt")
        arc = mesh.boundary.arc
        assert np.isnan(arc[[0, 1, 3]]).all() and arc[2, 4] < arc[2, 3]
        t = np.array([0.1, 0.5, 0.9])
        to_centre = arc[2, :2] - boundary_point(mesh, 2, t)
        np.testing.assert_allclose(boundary_normal(mesh, 2, t), to_centre / 1.3, rtol=0.0, atol=1e-15)
        for e, side in ((0, [0.0, -1.0]), (1, [1.0, 0.0]), (3, [-1.0, 0.0])):
            np.testing.assert_array_equal(boundary_normal(mesh, e, t), np.tile(side, (3, 1)))

    def test_shapes_follow_boundary_point(self, disk10):
        assert boundary_normal(disk10, np.zeros(0, dtype=int), 0.5).shape == (0, 2)
        assert boundary_normal(disk10, np.zeros((0, 3), dtype=int), 0.5).shape == (0, 3, 2)
        e, t = np.array([5, 5, 2, 5, 0]), np.linspace(0.05, 0.95, 5)  # unsorted, repeated
        normal = boundary_normal(disk10, e, t)
        assert normal.shape == (5, 2)
        for j in range(5):
            assert np.array_equal(normal[j], boundary_normal(disk10, e[j], t[j]))
        with pytest.raises(ValueError):
            boundary_normal(disk10, 0, 1.5)


class TestValidation:
    def test_degenerate_triangle_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 1, 3]])  # first one has zero area
        boundary = Boundary([0, 1, 3], [1.0, math.sqrt(2), 1.0])
        with pytest.raises(MeshError):
            TriMesh(verts, tris, boundary)

    def test_no_triangles_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match=r"^mesh has no triangles$"):
            TriMesh(verts, np.zeros((0, 3), dtype=int), Boundary([0, 1, 2], [1.0, math.sqrt(2), 1.0]))

    def test_open_loop_rejected(self, tmp_path):
        # a Boundary closes by construction; an open loop can only come
        # from a file, whose element 0 -> 1 is followed by one from 2
        path = tmp_path / "open.txt"
        path.write_text("3 1 2\n0 0\n1 0\n0 1\n0 1 2\n0 1 S\n2 0 S\n")
        with pytest.raises(MeshError, match=r"^line 6: boundary element ends at vertex 1, "
                                            r"but the next element starts at vertex 2"):
            read_mesh_text(str(path))

    @pytest.mark.parametrize("v0, length, element", [
        ([0, 1, -1], [1.0, math.sqrt(2), 1.0], 2),  # would wrap to the last vertex
        ([0, 1, 7], [1.0, math.sqrt(2), 1.0], 2),  # past the 3 vertices
        ([0, 1, 2], [5.0, math.sqrt(2), 1.0], 0),  # unit chord declared 5 long
        ([0, 1, 2], [1.0, math.sqrt(2) * (1 + 1e-9), 1.0], 1),
    ])
    def test_bad_boundary_names_element(self, v0, length, element):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match=rf"^boundary element {element}\b"):
            TriMesh(verts, np.array([[0, 1, 2]]), Boundary(v0, length))

    @pytest.mark.parametrize("length, arc", [
        (math.inf, (0.0, 0.0, 1.0, 0.0, math.inf)),  # infinite length and angle
        (math.nan, None),
        (None, (0.0, 0.0, math.inf, 0.0, 0.0)),  # infinite radius, no angle
        (None, (0.0, 0.0, 1.0, math.nan, 1.0)),  # neither straight nor an arc
    ])
    def test_non_finite_boundary_named_without_warnings(self, length, arc):
        mesh = quarter_arc_mesh()
        b = mesh.boundary
        lengths, arcs = b.length.copy(), b.arc.copy()
        if length is not None:
            lengths[2] = length
        if arc is not None:
            arcs[2] = arc
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match=r"^boundary element 2 is not finite"):
                TriMesh(mesh.vertices, mesh.triangles, Boundary(b.v0, lengths, arcs))

    def test_infinite_lengths_of_both_signs_named_without_warnings(self):
        # the element starts sum them to inf - inf
        b = quarter_arc_mesh().boundary
        lengths = b.length.copy()
        lengths[1:3] = math.inf, -math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match=r"^boundary element 1 is not finite"):
                TriMesh(quarter_arc_mesh().vertices, quarter_arc_mesh().triangles, Boundary(b.v0, lengths, b.arc))

    @pytest.mark.parametrize("line, text", [
        (2, "inf 0"),
        (2, "1 1e400"),
        (11, "0 1 A 0 0 inf 0 1.5707963267948966"),  # the quarter arcs' boundary starts on line 11
        (12, "1 2 A 0 0 1 1e400 1e400"),
    ])
    def test_non_finite_number_in_file_names_line_without_warnings(self, tmp_path, line, text):
        path = tmp_path / "bad.txt"
        write_mesh_text(quarter_arc_mesh(), str(path))
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match=rf"^line {line}: "):
                read_mesh_text(str(path))

    def test_arc_length_must_match_its_angle(self):
        mesh = quarter_arc_mesh()
        b = mesh.boundary
        with pytest.raises(MeshError, match=r"^boundary element 0 has length"):
            TriMesh(mesh.vertices, mesh.triangles, Boundary(b.v0, b.length * [1.5, 1, 1, 1], b.arc))

    def test_arc_endpoint_off_circle_rejected(self):
        verts = np.array([[1.0, 0.0], [0.0, 1.1], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
        tris = np.array([[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 0]])
        with pytest.raises(MeshError, match=r"^boundary element 0: arc misses"):
            TriMesh(verts, tris, quarter_arcs())

    def test_quarter_arc_mesh_valid(self):
        mesh = quarter_arc_mesh()
        assert abs(mesh.boundary_length - 2 * math.pi) <= 1e-12


class TestTextFormat:
    def test_square_header(self, tmp_path):
        path = tmp_path / "sq.txt"
        write_mesh_text(build_square_mesh(2), str(path))
        first = path.read_text().splitlines()[0]
        assert first == "9 8 8"

    def test_round_trip_square(self, tmp_path):
        mesh = build_square_mesh(3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_mesh_text(mesh, str(p1))
        back = read_mesh_text(str(p1))
        write_mesh_text(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_disk_arcs(self, tmp_path):
        mesh = build_disk_mesh(3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_mesh_text(mesh, str(p1))
        back = read_mesh_text(str(p1))
        write_mesh_text(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert back.boundary.curved.all()

    def test_round_trip_preserves_geometry(self, tmp_path):
        mesh = build_disk_mesh(4)
        path = tmp_path / "d.txt"
        write_mesh_text(mesh, str(path))
        back = read_mesh_text(str(path))
        np.testing.assert_array_equal(mesh.vertices, back.vertices)
        np.testing.assert_array_equal(mesh.triangles, back.triangles)
        np.testing.assert_array_equal(mesh.boundary.v0, back.boundary.v0)
        np.testing.assert_array_equal(mesh.boundary.length, back.boundary.length)
        np.testing.assert_array_equal(mesh.boundary.arc, back.boundary.arc)

    def test_short_file_names_line(self, tmp_path):
        # 25 vertices: a file cut to 20 lines ends inside the vertex block
        path = tmp_path / "cut.txt"
        write_mesh_text(build_square_mesh(4), str(path))
        path.write_text("\n".join(path.read_text().splitlines()[:20]) + "\n")
        with pytest.raises(MeshError, match=r"^line 21: file ends where a vertex"):
            read_mesh_text(str(path))

    @pytest.mark.parametrize("line, text", [
        (1, "9 8"),
        (1, "9 eight 8"),
        (1, "9 0 8"),
    ])
    def test_bad_header_names_line(self, tmp_path, line, text):
        self.check_corrupted(tmp_path, line, text)

    # square k=2: header, vertices on lines 2-10, triangles on 11-18,
    # boundary elements on 19-26
    @pytest.mark.parametrize("line, text", [
        (3, "0 0 0"),
        (4, "0.5 abc"),
        (12, "0 1"),
        (12, "0 1 x"),
        (19, "0 1 S 0.5"),
        (20, "1 2 A 0 0 1 0"),
        (20, "1 2 Q"),
        (19, "0 99 S"),
    ])
    def test_bad_row_names_line(self, tmp_path, line, text):
        self.check_corrupted(tmp_path, line, text)

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_corrupted_file_raises_mesh_error_or_reads_a_valid_mesh(self, tmp_path, data):
        path = tmp_path / "corrupt.txt"
        write_mesh_text(data.draw(st.sampled_from([build_square_mesh(2), build_disk_mesh(2)])), str(path))
        lines = path.read_text().splitlines()
        nv, nt, nb = map(int, lines[0].split())
        how = data.draw(st.sampled_from(["drop a line", "replace a token", "break the loop"]))
        if how == "drop a line":
            del lines[data.draw(st.integers(0, len(lines) - 1))]
        elif how == "replace a token":
            row = data.draw(st.integers(0, len(lines) - 1))
            tokens = lines[row].split()
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.one_of(
                st.sampled_from(["abc", "1.2.3", "0x1f", "--1", "nan", "inf", "1e400"]),
                st.integers(-(10 ** 20), -1).map(str),
                st.integers(nv, 10 ** 20).map(str),
                st.sampled_from(["Q", "s", "AA", "S", "A"]),
            ))
            lines[row] = " ".join(tokens)
        else:
            row = data.draw(st.integers(1 + nv + nt, nv + nt + nb))
            tokens = lines[row].split()
            tokens[1] = str(data.draw(st.integers(0, nv - 1).filter(lambda v: v != int(tokens[1]))))
            lines[row] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        if how == "break the loop":
            with pytest.raises(MeshError, match=rf"^line {row + 1}: boundary element ends at vertex"):
                read_mesh_text(str(path))
            return
        try:
            mesh = read_mesh_text(str(path))
        except MeshError:
            return
        # what was read is a valid mesh: it survives its own round trip
        write_mesh_text(mesh, str(path))
        back = read_mesh_text(str(path))
        np.testing.assert_array_equal(back.boundary.v0, mesh.boundary.v0)

    @staticmethod
    def check_corrupted(tmp_path, line, text):
        path = tmp_path / "bad.txt"
        write_mesh_text(build_square_mesh(2), str(path))
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match=rf"^line {line}: "):
            read_mesh_text(str(path))


def test_diameters_positive(square4, disk10):
    for mesh in (square4, disk10):
        d = triangle_diameters(mesh)
        assert (d > 0).all()
        assert d.max() == pytest.approx(mesh.mesh_size_h)


def gathered_geometry(mesh):
    """(areas, diameters, perimeters, opposite-edge vectors), each computed
    from the gathered corners vertices[triangles] by its own formula."""
    p = mesh.vertices[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    e0 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    e1 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    e2 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    edges = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    return areas, np.maximum(e0, np.maximum(e1, e2)), e0 + e1 + e2, edges


GEOMETRY_MESHES = [("square", 10), ("square", 33), ("disk", 10), ("disk", 40), ("disk", 80)]


class TestCachedGeometry:
    def test_arrays_are_read_only_copies(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        mesh = TriMesh(verts, tris, Boundary([0, 1, 2], [1.0, math.sqrt(2.0), 1.0]))
        verts[1, 0] = 5.0
        tris[0, 0] = 2
        assert mesh.vertices[1, 0] == 1.0 and mesh.triangles[0, 0] == 0
        for name in ("vertices", "triangles", "edges", "areas", "edge_lengths"):
            array = getattr(mesh, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 0

    def test_element_starts_are_read_only_sums_of_the_lengths(self, disk10):
        b = disk10.boundary
        assert np.array_equal(b.starts, np.concatenate([[0.0], np.cumsum(b.length)]))
        assert len(b.starts) == len(b) + 1 and not b.starts.flags.writeable

    @pytest.mark.parametrize("domain, k", GEOMETRY_MESHES)
    def test_consumers_match_gathered_formulas(self, domain, k):
        mesh, case = build_mesh(domain, k), sine_case()
        areas, diam, perimeters, edges = gathered_geometry(mesh)
        assert np.array_equal(mesh.areas, areas)
        assert np.array_equal(triangle_diameters(mesh), diam)
        assert mesh.mesh_size_h == float(diam.max())
        inscribed = 4.0 * areas / perimeters
        q = mesh_quality(mesh)
        assert (q.max_diameter, q.min_diameter, q.diameter_ratio, q.max_aspect) == (
            float(diam.max()), float(diam.min()), float(diam.max() / diam.min()),
            float((diam / inscribed).max()))

        nv = len(mesh.vertices)
        local = np.einsum("tad,tbd->tab", edges, edges) / (4.0 * areas)[:, None, None]
        rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
        cols = np.tile(mesh.triangles, (1, 3)).ravel()
        expected = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
        A = assemble_stiffness(mesh)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, attr), getattr(expected, attr)), attr

        tf = case.f(*mesh.vertices.T)[mesh.triangles]
        F = np.zeros(nv)
        np.add.at(F, mesh.triangles.ravel(), ((areas[:, None] / 12.0) * (tf + tf.sum(axis=1, keepdims=True))).ravel())
        assert np.array_equal(assemble_load(mesh, case.f), F)

        quad = ErrorQuadrature(mesh, case)
        assert np.array_equal(quad.weights, areas / 3.0)
        hat_grads = np.stack([-edges[..., 1], edges[..., 0]], axis=-1) / (2.0 * areas)[:, None, None]
        assert np.array_equal(quad.hat_grads, hat_grads.transpose(2, 1, 0))  # (xy, corner, triangle)

    def test_level_build_computes_the_geometry_once(self, monkeypatch):
        calls = []
        compute = obsfem.mesh._triangle_geometry

        def counted(vertices, triangles):
            calls.append(len(triangles))
            return compute(vertices, triangles)

        monkeypatch.setattr(obsfem.mesh, "_triangle_geometry", counted)
        level = Level("disk", 20, i=1)
        level.trials(NoiseModel.gaussian(1.0), [0])
        assert calls == [len(level.mesh.triangles)]


@pytest.mark.parametrize("build, name", [(build_square_mesh, "k"), (build_disk_mesh, "m")])
def test_a_size_too_long_to_print_is_named_by_its_digits(build, name):
    # Python turns no integer of more than 4,300 digits into text
    with pytest.raises(MeshError, match=f"^need {name} >= 2, got a negative number of 5001 digits$"):
        build(-10 ** 5000)
