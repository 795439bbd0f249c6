import collections
import dataclasses
import keyword
import logging
import math
import mmap
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import obsfem
from obsfem import (
    ErrorQuadrature,
    ErrorReport,
    Level,
    NoiseModel,
    SaddleSolution,
    build_mesh,
    assemble_data_vector,
    compute_errors,
    estimate_rates,
    boundary_point,
    observe,
    run_case,
    run_study,
    sample_noise,
    sine_case,
    solve_saddle,
    tail_study,
)
from obsfem import analysis, observations
from obsfem.analysis import ManufacturedCase, points_for
from obsfem.mesh import Boundary, TriMesh, boundary_normal
from obsfem.assembly import sweep
from obsfem.mesh import MeshError, build_disk_mesh, build_square_mesh
from norms import residual_norm
from test_mesh import builder_normals, concave_arc_mesh
from test_observations import buffer_of, whole_array_placement

# Degree-5 rule on the reference triangle (barycentric points, weights
# summing to 1); used as an independent check of the error quadrature.
_D5_A = 0.0597158717897700
_D5_B = 0.4701420641051151
_D5_C = 0.7974269853530873
_D5_D = 0.1012865073234563
_D5_POINTS = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [_D5_A, _D5_B, _D5_B], [_D5_B, _D5_A, _D5_B], [_D5_B, _D5_B, _D5_A],
     [_D5_C, _D5_D, _D5_D], [_D5_D, _D5_C, _D5_D], [_D5_D, _D5_D, _D5_C]]
)
_D5_WEIGHTS = np.array(
    [0.225,
     0.1323941527885062, 0.1323941527885062, 0.1323941527885062,
     0.1259391805448271, 0.1259391805448271, 0.1259391805448271]
)


def l2_error_degree5(mesh, case, u):
    """||u0 - u_h||_{L2} with a 7-point degree-5 triangle rule."""
    p = mesh.vertices[mesh.triangles]
    areas = mesh.areas
    total = 0.0
    for lam, w in zip(_D5_POINTS, _D5_WEIGHTS):
        pts = np.einsum("i,tid->td", lam, p)
        uh = np.einsum("i,ti->t", lam, u[mesh.triangles])
        diff = case.u0(pts[:, 0], pts[:, 1]) - uh
        total += w * float(np.sum(areas * diff**2))
    return math.sqrt(total)


class TestManufacturedCase:
    def test_laplacian_consistency(self, rng):
        # -Lap u0 = f checked by central differences at interior points
        case = sine_case()
        d = 1e-4
        for _ in range(10):
            x, y = rng.uniform(0.05, 0.95, size=2)
            lap = (case.u0(x + d, y) + case.u0(x - d, y)
                   + case.u0(x, y + d) + case.u0(x, y - d)
                   - 4 * case.u0(x, y)) / d**2
            assert -lap == pytest.approx(case.f(x, y), abs=1e-4)

    def test_gradient_consistency(self, rng):
        case = sine_case()
        d = 1e-6
        x, y = 0.3, -0.4
        gx, gy = case.grad_u0(x, y)
        assert gx == pytest.approx((case.u0(x + d, y) - case.u0(x - d, y)) / (2 * d),
                                   abs=1e-6)
        assert gy == pytest.approx((case.u0(x, y + d) - case.u0(x, y - d)) / (2 * d),
                                   abs=1e-6)

    def test_boundary_data_is_trace(self):
        # a level observes g0 = u0 at its sites
        level = Level("square", 4, i=2)
        g0 = assemble_data_vector(observe(level.placement, sine_case().u0, None, 0))
        assert np.array_equal(level.clean.G, g0)

    def test_fields_are_the_solution_alone(self):
        # the geometry (domain, normals) belongs to the mesh
        assert [f.name for f in dataclasses.fields(ManufacturedCase)] == ["u0", "grad_u0", "f"]

    def test_square_normals(self, square4):
        # the normals come from the mesh boundary: one element per side
        for e, side in ((1, (0.0, -1.0)), (5, (1.0, 0.0)), (9, (0.0, 1.0)), (13, (-1.0, 0.0))):
            assert tuple(boundary_normal(square4, e, 0.5)) == side

    def test_disk_normal_is_radial(self, disk10):
        th = 0.7
        th0, th1 = disk10.boundary.arc[7, 3:]  # 63 elements: the eighth holds th
        nx, ny = boundary_normal(disk10, 7, (th - th0) / (th1 - th0))
        assert nx == pytest.approx(math.cos(th), abs=1e-14)
        assert ny == pytest.approx(math.sin(th), abs=1e-14)

    def test_multiplier_is_minus_normal_derivative(self, disk10):
        # at (1, 0) on the disk: lambda = -d u0/dx = -5 cos(6) sin(1)
        gx, gy = sine_case().grad_u0(1.0, 0.0)
        nx, ny = boundary_normal(disk10, 0, 0.0)
        assert -(gx * nx + gy * ny) == pytest.approx(-5.0 * math.cos(6.0) * math.sin(1.0), abs=1e-14)

    @pytest.mark.parametrize("geometry", ["square [0, 2]^2", "disk centred at (3, 0)", "clockwise arc"])
    def test_exact_multiplier_uses_the_mesh_geometry(self, tmp_path, geometry):
        # normals guessed from coordinates fit only the unit square and the
        # disk at the origin: on [0, 2]^2 they read 0 on 8 of 16 elements
        mesh, normals = meshes_off_the_unit_domains(tmp_path)[geometry]
        pts = boundary_point(mesh, np.arange(len(mesh.boundary))[:, None], analysis._GAUSS_T)
        gx, gy = sine_case().grad_u0(pts[..., 0], pts[..., 1])
        nx, ny = normals(pts)
        lam = ErrorQuadrature(mesh, sine_case()).lambda_exact
        np.testing.assert_allclose(lam, -(gx * nx + gy * ny), rtol=1e-12, atol=1e-12)
        assert (np.abs(lam) > 1e-2).any(axis=1).all()

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            build_mesh("annulus", 4)


def meshes_off_the_unit_domains(tmp_path):
    """Meshes whose normals no guess from the unit domains' coordinates
    gives, each with its outward normals (nx, ny) at points (..., 2) of
    its elements, known from how it was built."""
    square, disk = build_square_mesh(4), build_disk_mesh(4)
    sides = np.repeat([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], 4, axis=0)  # loop from the origin
    arc = disk.boundary.arc.copy()
    arc[:, 0] += 3.0
    concave = concave_arc_mesh(tmp_path / "concave.txt")
    centre = concave.boundary.arc[2, :2]

    def radial(pts, c, sign=1.0):
        d = sign * (pts - c)
        r = np.hypot(d[..., 0], d[..., 1])
        return d[..., 0] / r, d[..., 1] / r

    def concave_normals(pts):
        nx, ny = np.repeat(sides[::4, None], 3, axis=1).transpose(2, 0, 1)  # bottom, right, top, left
        nx[2], ny[2] = radial(pts[2], centre, -1.0)  # the arc faces its centre
        return nx, ny

    return {
        "square [0, 2]^2": (TriMesh(2.0 * square.vertices, square.triangles,
                                    Boundary(square.boundary.v0, 2.0 * square.boundary.length)),
                            lambda pts: tuple(np.repeat(sides[:, None], 3, axis=1).transpose(2, 0, 1))),
        "disk centred at (3, 0)": (TriMesh(disk.vertices + [3.0, 0.0], disk.triangles,
                                           Boundary(disk.boundary.v0, disk.boundary.length, arc)),
                                   lambda pts: radial(pts, [3.0, 0.0])),
        "clockwise arc": (concave, concave_normals),
    }


class TestComputeErrors:
    @staticmethod
    def fake_solution(u, lam):
        return SaddleSolution(u, lam, 0.0, 0.0)

    def test_exact_constant(self, square8):
        c = 1.75
        case = ManufacturedCase(
            lambda x, y: np.full_like(np.asarray(x, dtype=float), c),
            lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2,
            lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        )
        nq = len(square8.boundary)
        u = np.full(len(square8.vertices), c)
        rep = compute_errors(ErrorQuadrature(square8, case), self.fake_solution(u, np.zeros(nq)),
                             0.125, 64, 0)
        assert rep.l2 <= 1e-12
        assert rep.h1 <= 1e-12
        assert rep.semi_h1 <= 1e-12
        assert rep.lam_l2 <= 1e-12
        assert rep.lam_half <= 1e-12

    def test_exact_linear_field(self, square8):
        # P1 reproduces a + 2x - y, so the field errors vanish identically
        case = ManufacturedCase(
            lambda x, y: 1.0 + 2.0 * x - y,
            lambda x, y: (np.full_like(np.asarray(x, dtype=float), 2.0),
                          np.full_like(np.asarray(x, dtype=float), -1.0)),
            lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        )
        u = 1.0 + 2.0 * square8.vertices[:, 0] - square8.vertices[:, 1]
        nq = len(square8.boundary)
        rep = compute_errors(ErrorQuadrature(square8, case), self.fake_solution(u, np.zeros(nq)),
                             0.125, 64, 0)
        assert rep.l2 <= 1e-13
        assert rep.semi_h1 <= 1e-12

    def test_h1_combines_l2_and_seminorm(self, square8):
        case = sine_case()
        u = np.zeros(len(square8.vertices))
        lam = np.zeros(len(square8.boundary))
        rep = compute_errors(ErrorQuadrature(square8, case), self.fake_solution(u, lam),
                             0.125, 64, 0)
        assert rep.h1**2 == pytest.approx(rep.l2**2 + rep.semi_h1**2, rel=1e-12)
        assert rep.l2 > 0 and rep.lam_l2 > 0

    def test_metadata_passthrough(self, square8):
        case = sine_case()
        sol = SaddleSolution(np.zeros(len(square8.vertices)),
                             np.zeros(len(square8.boundary)),
                             3e-14, 4e-15)
        rep = compute_errors(ErrorQuadrature(square8, case), sol, 0.125, 999, 5)
        assert (rep.h, rep.n, rep.seed) == (0.125, 999, 5)
        assert rep.residual_primal == 3e-14
        assert rep.residual_constraint == 4e-15

    @pytest.mark.parametrize("u_shape, lam_shape, bad", [
        ((32,), (16,), "u has shape (32,), the mesh needs (25,)"),
        ((25, 2), (16,), "u has shape (25, 2), the mesh needs (25,)"),
        ((25,), (17,), "lam has shape (17,), the mesh needs (16,)"),
    ])
    def test_solution_of_the_wrong_shape_is_rejected(self, square4, u_shape, lam_shape, bad):
        sol = self.fake_solution(np.zeros(u_shape), np.zeros(lam_shape))
        with pytest.raises(ValueError, match=re.escape(bad)):
            compute_errors(ErrorQuadrature(square4, sine_case()), sol, 0.25, 16, 0)


class TestPointsFor:
    def test_explicit_n_wins(self):
        assert points_for(10, 4, 123) == 123
        assert type(points_for(10, 4, np.int64(123))) is int

    def test_power_law(self):
        assert points_for(10, 2, None) == 100
        assert points_for(3, 3, None) == 27
        assert points_for(80, 4, None) == 40960000

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            points_for(10, None, None)
        with pytest.raises(ValueError):
            points_for(10, 5, None)
        with pytest.raises(ValueError):
            points_for(10, 2, 0)
        with pytest.raises(ValueError, match="^n must be an integer, got 10.5$"):  # not truncated to 10
            points_for(10, None, 10.5)

    def test_site_counts_above_2_to_the_52_refused(self):
        # a site's parameter derives from i + 1/2, exact in floats only for i < 2^52
        assert points_for(4, None, 2 ** 52) == 2 ** 52 and points_for(8192, 4, None) == 2 ** 52
        for i, n, got in ((None, 2 ** 52 + 1, 2 ** 52 + 1), (None, 10 ** 20, 10 ** 20), (4, None, 8193 ** 4)):
            with pytest.raises(ValueError, match=f"^n must be at most 2\\^52, got {got}$"):
                points_for(8193, i, n)


class TestEstimateRates:
    def test_published_table_pairs(self):
        # i=1 and i=4 L2 columns, endpoints over the 8x mesh refinement
        r = estimate_rates([0.1, 0.0125], [0.3978, 0.1394])
        assert r.endpoint == pytest.approx(-0.5043, abs=1e-3)
        r = estimate_rates([0.1, 0.0125], [0.0380, 6.3816e-4])
        assert r.endpoint == pytest.approx(-1.9653, abs=1e-3)

    def test_exact_power_law(self):
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        r = estimate_rates(hs, 3.0 * hs**2)
        assert r.endpoint == pytest.approx(-2.0, abs=1e-12)
        assert r.slope == pytest.approx(-2.0, abs=1e-12)

    def test_divergence_is_positive(self):
        r = estimate_rates([0.1, 0.05], [1.0, 2.0])
        assert r.endpoint == pytest.approx(1.0, abs=1e-12)

    def test_zero_error_sentinel(self):
        r = estimate_rates([0.1, 0.05], [1e-3, 0.0])
        assert math.isnan(r.endpoint) and math.isnan(r.slope)
        assert "zero error" in r.note

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            estimate_rates([0.1], [1.0])
        with pytest.raises(ValueError):
            estimate_rates([0.1, 0.05], [1.0])

    def test_equal_first_and_last_h(self):
        # run_study accepts repeated sizes, so the endpoint rate can have no refinement
        with pytest.raises(ValueError, match=r"first and last h are equal \(h=0\.1\)"):
            estimate_rates([0.1, 0.05, 0.1], [1.0, 0.5, 0.3])

    @pytest.mark.parametrize("hs, errors, message", [
        ([0.1, 0.0], [1.0, 0.5], "h must be positive and finite, got 0"),
        ([-0.1, 0.05], [1.0, 0.5], "h must be positive and finite, got -0.1"),
        ([0.1, math.inf], [1.0, 0.5], "h must be positive and finite, got inf"),
        ([math.nan, 0.05], [1.0, 0.5], "h must be positive and finite, got nan"),
        ([0.1, 0.05], [1.0, math.nan], "errors must be finite, got nan"),
        ([0.1, 0.05], [-math.inf, 0.5], "errors must be finite, got -inf"),
    ])
    def test_bad_value_named_before_any_fit(self, capfd, hs, errors, message):
        # h=0 used to print LAPACK lines to stderr, a NaN error to pass as a rate
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_rates(hs, errors)
        assert capfd.readouterr().err == ""


class TestRunCase:
    def test_report_fields(self):
        rep = run_case("square", 10, i=2)
        assert rep.h == pytest.approx(0.1)
        assert rep.n == 100
        assert rep.residual_primal <= 1e-10
        assert rep.residual_constraint <= 1e-10

    def test_zero_noise_l2_quadratic(self):
        e10 = run_case("square", 10, i=2).l2
        e20 = run_case("square", 20, i=2).l2
        assert 0.2 <= e20 / e10 <= 0.35

    def test_error_quadrature_agrees_with_degree5(self):
        # the midpoint-rule L2 error must match an independent
        # higher-order recomputation of the same discrete solution
        level = Level("square", 10, n=100)
        sol = solve_saddle(level.clean)
        rep = compute_errors(level.quadrature, sol, 0.1, 100, 0)
        independent = l2_error_degree5(level.mesh, level.case, sol.u)
        assert rep.l2 / independent == pytest.approx(1.0, abs=0.25)

    def test_mean_l2_window_fine_sampling(self):
        # (h=0.1, n=h^-4): ten-seed mean lands inside the published window
        model = NoiseModel.gaussian(math.sqrt(2.0))
        vals = [run_case("square", 10, i=4, model=model, seed=s).l2
                for s in range(7, 17)]
        assert 0.019 <= np.mean(vals) <= 0.076

    def test_mean_h1_window_sparse_sampling(self):
        model = NoiseModel.gaussian(math.sqrt(2.0))
        vals = [run_case("square", 10, i=1, model=model, seed=s).h1
                for s in range(7, 17)]
        assert 4.4 <= np.mean(vals) <= 17.8

    def test_nudge_logged_once(self, caplog):
        # square k=10, n=100 nudges 20 sites; the study driver warns, not place_points
        with caplog.at_level(logging.WARNING):
            run_case("square", 10, n=100)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("obsfem.analysis", "nudged 20 observation sites off element endpoints")]

    def test_deterministic(self):
        model = NoiseModel.mixture(1.0, 10.0, 0.5)
        a = run_case("disk", 10, i=2, model=model, seed=3)
        b = run_case("disk", 10, i=2, model=model, seed=3)
        assert a.l2 == b.l2 and a.h1 == b.h1 and a.lam_l2 == b.lam_l2

    def test_solver_failure_names_configuration(self, monkeypatch):
        import obsfem.analysis as analysis
        from obsfem import SingularSystemError

        def stall(system, **kwargs):
            raise SingularSystemError("iterative solve stalled", estimate=1e-16)

        monkeypatch.setattr(analysis, "solve_saddle", stall)
        with pytest.raises(SingularSystemError, match=r"h=0\.25 n=16"):
            run_case("square", 4, i=2)


class TestLevel:
    @pytest.mark.parametrize("model", [NoiseModel.gaussian(1.5), NoiseModel.mixture(1.0, 10.0, 0.3)])
    @pytest.mark.parametrize("domain, k, n", [("disk", 10, 10), ("square", 4, 2**20 + 5000)])
    def test_streamed_data_vector_matches_site_wise(self, domain, k, n, model):
        # disk k=10 with n=10 leaves most elements without a site; n > 2^20
        # makes elements straddle a noise-block boundary
        level = Level(domain, k, n=n)
        counts = np.diff(level.placement.offsets)
        if n < len(counts):
            assert (counts == 0).any()
        obs = observe(level.placement, level.case.u0, model, 17)
        expected = assemble_data_vector(obs)
        noisy = level.clean.G + assemble_data_vector(observe(level.placement, None, model, 17))
        np.testing.assert_allclose(noisy, expected, rtol=1e-13,
                                   atol=1e-13 * np.abs(expected).max())

    def test_gaussian_trial_allocates_no_block_sized_array(self):
        # the noise is drawn into, and reduced from, the placement's work
        # array, so a trial's traced peak stays far below one 8 MB block
        level = Level("square", 4, n=2**20 + 5000)
        model = NoiseModel.gaussian(1.0)
        level.trials(model, [0])  # the first solve factorizes
        tracemalloc.start()
        try:
            level.trials(model, [1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_run_case_equals_study_report(self):
        model = NoiseModel.mixture(1.0, 10.0, 0.5)
        tab = run_study("disk", [6, 8], i=2, model=model, trials=3, seed=4)
        for row in tab.rows:
            for t, rep in enumerate(row.reports):
                assert run_case("disk", row.k, i=2, model=model, seed=4 + t) == rep

    def test_trials_do_not_evaluate_the_case(self):
        # the error quadrature is built with the level: more trials, same calls
        calls = collections.Counter()
        sine = sine_case()

        def counted(name, fn):
            def wrapper(x, y):
                calls[name] += 1
                return fn(x, y)
            return wrapper

        case = ManufacturedCase(counted("u0", sine.u0), counted("grad_u0", sine.grad_u0), sine.f)
        model = NoiseModel.gaussian(1.0)
        counts = []
        for trials in (1, 3):
            calls.clear()
            level = Level("square", 6, i=2, case=case)
            reports = sum((level.trials(model, [s]) for s in range(trials)), [])  # a sweep and solve each
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["grad_u0"] == 2  # at the edge midpoints and at the boundary Gauss points
        assert reports[0] == run_case("square", 6, i=2, model=model, seed=0)

    @pytest.mark.parametrize("i, n, match", [(None, 0, "n must be positive"), (5, None, "got 5"),
                                             (None, 10.5, "n must be an integer, got 10.5")])
    def test_bad_i_or_n_fails_before_the_mesh(self, monkeypatch, i, n, match):
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        with pytest.raises(ValueError, match=match):
            Level("square", 4, i=i, n=n)

    def test_seed_that_is_not_an_integer_fails(self):
        # int(1.5) would report seed 1.5 with seed 1's noise
        level = Level("square", 4, i=2)
        with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
            level.trials(NoiseModel.gaussian(1.0), [1.5])

    def test_non_finite_g0_fails_at_level_build(self):
        case = sine_case()
        bad = ManufacturedCase(lambda x, y: np.where(x < 0.5, np.nan, x), case.grad_u0, case.f)
        with pytest.raises(ValueError, match="g0 is not finite at site 0 "):
            Level("square", 4, i=2, case=bad)

    def test_a_constant_case_runs(self):
        # scalars are broadcast at every point set, the quadrature's too
        case = ManufacturedCase(lambda x, y: 1.0, lambda x, y: (0.0, 0.0), lambda x, y: 0.0)
        reports = Level("square", 6, i=2, case=case).trials(NoiseModel.gaussian(1.0), [0, 1])
        assert all(math.isfinite(value) for r in reports for value in dataclasses.astuple(r))
        array_case = ManufacturedCase(lambda x, y: np.ones_like(x), lambda x, y: (0 * x, 0 * y), lambda x, y: 0 * x)
        assert reports == Level("square", 6, i=2, case=array_case).trials(NoiseModel.gaussian(1.0), [0, 1])

    def test_case_values_that_are_not_finite_name_the_function_and_the_point(self):
        sine, mesh = sine_case(), build_square_mesh(6)
        p = mesh.vertices[mesh.triangles]
        mids = (p + np.roll(p, -1, axis=1)) / 2  # (triangle, edge a from corner a to a + 1, xy)

        def first_edge(bad):
            """The message's tail for the first bad midpoint in (edge, triangle) order."""
            a, t = min((a, int(np.flatnonzero(bad[:, a])[0])) for a in range(3) if bad[:, a].any())
            return rf"at edge {a} of triangle {t} {re.escape(str(tuple(mids[t, a].tolist())))}$"

        # a NaN gradient where x > 0.9: first met at the edge midpoints
        nan_grad = ManufacturedCase(sine.u0, lambda x, y: (np.where(x > 0.9, np.nan, x), y), sine.f)
        with pytest.raises(ValueError, match=r"^grad_u0 is not finite " + first_edge(mids[..., 0] > 0.9)):
            Level("square", 6, i=2, case=nan_grad)
        # a u0 that is finite at the sites but not inside
        inner = lambda x, y: (abs(x - 0.5) < 0.1) & (abs(y - 0.5) < 0.1)  # noqa: E731
        hole = ManufacturedCase(lambda x, y: np.where(inner(x, y), np.inf, x), sine.grad_u0, sine.f)
        with pytest.raises(ValueError, match=r"^u0 is not finite " + first_edge(inner(mids[..., 0], mids[..., 1]))):
            Level("square", 6, i=2, case=hole)
        # a gradient that fails only at the first Gauss point of boundary element 0
        corner = ManufacturedCase(sine.u0, lambda x, y: (x, np.where((y == 0.0) & (x < 0.05), np.nan, y)), sine.f)
        point = tuple(boundary_point(mesh, 0, analysis._GAUSS_T[0]).tolist())
        with pytest.raises(ValueError, match=r"^grad_u0 is not finite at Gauss point 0 of boundary element 0 "
                                             + re.escape(str(point)) + "$"):
            Level("square", 6, i=2, case=corner)

    def test_a_gradient_that_is_not_a_pair_is_refused(self):
        sine = sine_case()
        for grad in (lambda x, y: x, lambda x, y: 0.0, lambda x, y: (x, y, x)):
            with pytest.raises(ValueError, match=r"^grad_u0 must map coordinate arrays to a value array$"):
                Level("square", 4, i=2, case=ManufacturedCase(sine.u0, grad, sine.f))


class TestRunStudy:
    def test_row_contents(self):
        tab = run_study("square", [4, 8], i=2,
                        model=NoiseModel.gaussian(1.0), trials=3, seed=1)
        assert tab.domain == "square" and tab.i == 2
        ks = [row.k for row in tab.rows]
        assert ks == [4, 8]
        for row in tab.rows:
            assert row.n == row.k**2
            assert row.trials == 3
            assert row.l2_std > 0
            assert row.max_residual <= 1e-10
            assert len(row.reports) == 3
        np.testing.assert_allclose(tab.hs, [0.25, 0.125])

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_study("square", [4], i=2, trials=0)

    def test_site_count_above_2_to_the_52_fails_before_any_level(self, monkeypatch):
        # 8193^4 > 2^52: refused before the k = 4 level is built
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        with pytest.raises(ValueError, match=f"^n must be at most 2\\^52, got {8193 ** 4}$"):
            run_study("square", [4, 8193], i=4, model=NoiseModel.gaussian(1.0))

    @pytest.mark.parametrize("call, n", [
        (lambda: run_study("square", [10 ** 80], i=4), 10 ** 320),
        (lambda: Level("square", 10 ** 80, i=4), 10 ** 320),
        (lambda: run_study("square", [10 ** 400], i=1), 10 ** 400),
    ], ids=["run_study-i4", "level-i4", "run_study-i1"])
    def test_a_huge_k_gets_the_2_to_the_52_message_before_any_level(self, monkeypatch, call, n):
        # k^i is computed in integers, so it neither overflows a float nor rounds
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        with pytest.raises(ValueError, match=f"^n must be at most 2\\^52, got {n}$"):
            call()

    @pytest.mark.parametrize("call, digits", [
        (lambda: run_study("square", [10 ** 1100], i=4), 4401),
        (lambda: run_study("square", [4], n=10 ** 5000), 5001),
    ], ids=["k", "n"])
    def test_a_count_too_long_to_print_is_named_by_its_digits(self, monkeypatch, call, digits):
        # Python turns no integer of more than 4,300 digits into text
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        with pytest.raises(ValueError, match=f"^n must be at most 2\\^52, got a number of {digits} digits$"):
            call()

    def test_a_seed_too_long_to_print_is_named_by_its_digits(self, monkeypatch):
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        with pytest.raises(ValueError, match=r"^seeds \[a number of 5001 digits, a number of 5001 digits\) "):
            run_study("square", [4], i=2, seed=10 ** 5000)

    def test_seeds_beyond_64_bits_fail_before_any_level(self, monkeypatch):
        # seed 2^64 would alias seed 0
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        model = NoiseModel.gaussian(1.0)
        with pytest.raises(ValueError, match=r"seeds \[18446744073709551615, 18446744073709551617\)"):
            run_study("square", [4], i=2, model=model, trials=2, seed=2**64 - 1)
        with pytest.raises(ValueError, match=r"seeds \[-1, 99\)"):
            tail_study("square", 4, i=2, model=model, trials=100, seed=-1)

    @pytest.mark.filterwarnings("error")  # numpy integers warned of an overflow in seed + trials
    def test_numpy_integer_seeds_run_as_their_python_ints(self, monkeypatch):
        model = NoiseModel.gaussian(1.0)
        study = run_study("square", [4], i=2, model=model, trials=2, seed=np.int64(2**63 - 1))
        assert study.rows[0].reports == run_study("square", [4], i=2, model=model, trials=2,
                                                  seed=2**63 - 1).rows[0].reports
        last = run_case("square", 4, i=2, model=model, seed=np.uint64(2**64 - 1))
        assert last == run_case("square", 4, i=2, model=model, seed=2**64 - 1)
        study = run_study("square", [4], i=2, trials=np.int32(2), seed=np.uint8(5), workers=np.int64(1))
        assert study.rows[0].reports == run_study("square", [4], i=2, trials=2, seed=5).rows[0].reports
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        with pytest.raises(ValueError, match=r"^seeds \[18446744073709551615, 18446744073709551617\) "):
            run_study("square", [4], i=2, model=model, trials=2, seed=np.uint64(2**64 - 1))

    @pytest.mark.parametrize("call, error, name, value", [
        (lambda: run_case("square", 4, i=2, model=NoiseModel.gaussian(1.0), seed=1.5), ValueError, "seed", 1.5),
        (lambda: run_study("square", [4], i=2, trials=2.5), ValueError, "trials", 2.5),
        (lambda: tail_study("square", 4, i=2, trials=150.0), ValueError, "trials", 150.0),
        (lambda: run_study("square", [4], i=2, trials=None), ValueError, "trials", None),
        (lambda: run_study("square", [4], i=2, trials="3"), ValueError, "trials", 3),
        (lambda: tail_study("square", 4, i=2, trials=None), ValueError, "trials", None),
        (lambda: tail_study("square", 4, i=2, trials="300"), ValueError, "trials", 300),
        (lambda: run_study("square", [4], i=2, workers=2.5), ValueError, "workers", 2.5),
        (lambda: run_study("square", [4.5], i=2), MeshError, "k", 4.5),
        (lambda: run_study("disk", [4.5], i=1), MeshError, "k", 4.5),
        (lambda: Level("disk", 4.5, i=1), MeshError, "k", 4.5),
        (lambda: build_square_mesh(4.5), MeshError, "k", 4.5),
        (lambda: build_disk_mesh(4.5), MeshError, "m", 4.5),
    ], ids=["run_case-seed", "run_study-trials", "tail_study-trials", "run_study-trials-none", "run_study-trials-text",
            "tail_study-trials-none", "tail_study-trials-text", "run_study-workers", "run_study-k",
            "run_study-disk-k", "level-disk-k", "square-k", "disk-m"])
    def test_non_integral_sizes_fail_naming_the_parameter(self, call, error, name, value):
        with pytest.raises(error, match=f"^{name} must be an integer, got {value}$"):
            call()

    def test_a_non_integral_size_fails_before_any_level(self, monkeypatch):
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        with pytest.raises(MeshError, match="^k must be an integer, got 8.5$"):
            run_study("square", [4, 8.5], i=2)

    def test_numpy_integer_sizes_pass(self):
        assert run_study("disk", [np.int64(4)], i=1) == run_study("disk", [4], i=1)

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("study", [
        lambda workers: run_study("square", [4], i=2, workers=workers),
        lambda workers: tail_study("square", 4, i=2, workers=workers),
    ], ids=["run_study", "tail_study"])
    def test_workers_below_1_fail_before_any_level(self, monkeypatch, study, workers):
        monkeypatch.setattr(analysis, "build_mesh", lambda *a: pytest.fail("built a mesh"))
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            study(workers)

    def test_back_to_back_studies_are_equal(self):
        # the check the benchmark applies to every call of its disk workload
        kwargs = dict(i=1, model=NoiseModel.mixture(1.0, 10.0, 0.5), trials=5, seed=7)
        assert run_study("disk", [10, 20, 40, 80], **kwargs) == run_study("disk", [10, 20, 40, 80], **kwargs)

    def test_zero_noise_stds_are_zero(self):
        tab = run_study("square", [4], i=2, trials=2)
        assert tab.rows[0].l2_std == 0.0

    def test_worker_pool_matches_serial(self):
        kwargs = dict(i=2, model=NoiseModel.gaussian(1.0), trials=2, seed=5)
        serial = run_study("square", [4, 6], workers=1, **kwargs)
        pooled = run_study("square", [4, 6], workers=2, **kwargs)
        for a, b in zip(serial.rows, pooled.rows):
            assert a.reports == b.reports
            assert a.l2_mean == b.l2_mean
            assert a.l2_std == b.l2_std
            assert a.h1_mean == b.h1_mean
            assert a.lam_l2_mean == b.lam_l2_mean

    @pytest.mark.parametrize("workers", [1, 2])
    def test_level_build_logged_once(self, caplog, workers):
        # square k=10, n=100 nudges 20 sites; each chunk of seeds rebuilds
        # the level, but its warning is logged once per level
        with caplog.at_level(logging.WARNING):
            run_study("square", [10, 20], i=2, model=NoiseModel.gaussian(1.0), trials=4,
                      workers=workers)
        assert [r.getMessage() for r in caplog.records] == [
            "nudged 20 observation sites off element endpoints"]

    def test_noise_floor_rate(self):
        # n = h^-2 leaves a stagnating L2 error: rate near -1, far from -2
        tab = run_study("square", [10, 20, 40], i=2,
                        model=NoiseModel.gaussian(math.sqrt(2.0)),
                        trials=5, seed=7)
        rate = estimate_rates(tab.hs, [r.l2_mean for r in tab.rows])
        assert -1.3 <= rate.endpoint <= -0.65

    def test_h1_blow_up_under_sparse_sampling(self):
        # n = h^-1 is below the theoretical threshold: H1 error grows
        tab = run_study("square", [10, 20, 40], i=1,
                        model=NoiseModel.gaussian(math.sqrt(2.0)),
                        trials=5, seed=7)
        rate = estimate_rates(tab.hs, [r.h1_mean for r in tab.rows])
        assert rate.endpoint >= 0.2


class TestTailStudy:
    def test_frozen_tail_fit(self):
        rep = tail_study("square", 20, i=2,
                         model=NoiseModel.gaussian(math.sqrt(2.0)),
                         trials=200, seed=0)
        assert not rep.degenerate
        assert rep.median == pytest.approx(0.24568, rel=1e-3)
        assert rep.p99 / rep.median == pytest.approx(1.2343, rel=1e-2)
        assert rep.fit_b == pytest.approx(7.284, rel=1e-2)
        assert rep.r2 >= 0.98
        assert len(rep.z) == 25
        assert rep.z[0] == pytest.approx(1.0, rel=1e-12)
        assert (np.diff(rep.survival) <= 0).all()

    def test_degenerate_without_noise(self):
        rep = tail_study("square", 10, i=2, model=None, trials=100, seed=0)
        assert rep.degenerate
        assert math.isnan(rep.fit_b) and math.isnan(rep.r2)
        assert rep.z.size == 0
        assert rep.median > 0

    def test_median_grows_with_sigma(self):
        m1 = tail_study("square", 10, i=2, model=NoiseModel.gaussian(1.0),
                        trials=100, seed=2).median
        m2 = tail_study("square", 10, i=2, model=NoiseModel.gaussian(2.0),
                        trials=100, seed=2).median
        assert m2 > m1

    def test_minimum_trial_count(self):
        with pytest.raises(ValueError, match="at least 100"):
            tail_study("square", 10, i=2, trials=99)


def held_arrays(level):
    """The arrays and sparse matrices that a level, its placement, mesh,
    quadrature and clean system hold, by owner and field name."""
    owners = [level, level.placement, level.quadrature, level.clean, level.mesh, level.mesh.boundary]
    return {f"{type(obj).__name__}.{name}": value for obj in owners for name, value in vars(obj).items()
            if isinstance(value, np.ndarray) or sp.issparse(value)}


def held_array_sizes(level):
    return {name: value.size for name, value in held_arrays(level).items() if isinstance(value, np.ndarray)}


def oracle_reports(level, model, seeds):
    """Reports of one trial per seed, each reduced from whole-array t and
    alpha (:func:`test_observations.whole_array_placement`) and a whole
    noise stream, one reduceat of fresh arrays per 2^16-site window; B is
    checked against the same reduction."""
    mesh, n = level.mesh, level.placement.n
    t, offsets, _, alpha = whole_array_placement(mesh, n)
    nb = len(mesh.boundary)

    def moments(v):
        left, right = np.zeros(nb), np.zeros(nb)
        for lo in range(0, n, 2 ** 16):
            hi = min(n, lo + 2 ** 16)
            off = np.clip(offsets, lo, hi) - lo
            owners = np.flatnonzero(off[1:] > off[:-1])
            w = v[lo:hi] * alpha[lo:hi]
            total = np.add.reduceat(w, off[owners])
            moment = np.add.reduceat(w * t[lo:hi], off[owners])
            left[owners] += total - moment
            right[owners] += moment
        return left, right

    b00, b01 = moments(1.0 - t)
    b11 = moments(t)[1]
    e = np.flatnonzero(np.diff(offsets))
    q1 = (e + 1) % nb
    v0, v1 = mesh.boundary.v0[e], mesh.boundary.v0[q1]
    B = sp.coo_matrix((np.concatenate([b00[e], b01[e], b01[e], b11[e]]),
                       (np.concatenate([e, e, q1, q1]), np.concatenate([v0, v1, v0, v1]))),
                      shape=level.clean.B.shape).tocsr()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(level.clean.B, name), getattr(B, name))
    pts = boundary_point(mesh, np.repeat(np.arange(nb), np.diff(offsets)), t)
    left, right = moments(0.0 + level.case.u0(pts[:, 0], pts[:, 1]))
    G0 = left + np.roll(right, 1)
    reports = []
    for seed in seeds:
        left, right = moments(sample_noise(model, n, seed))
        system = dataclasses.replace(level.clean, B=B, G=G0 + (left + np.roll(right, 1)))
        reports.append(compute_errors(level.quadrature, solve_saddle(system), level.h, n, seed))
    return reports


def measured_by_plain_formulas(level, system, solution, seed):
    """The report of one solution from the formulas the measure path
    replaces: einsum hat gradients, np.roll edge midpoints, the element
    hats at the Gauss points by index arithmetic, the normals from the
    coordinates of the unit domains, and B^T built per call; the residual
    norms are those of the solver's contract."""
    mesh, case, u, lam = level.mesh, level.case, solution.u, solution.lam
    p = mesh.vertices[mesh.triangles]
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    weights = mesh.areas[:, None] / 3.0
    uv = u[mesh.triangles]
    uh_mid = 0.5 * (uv + np.roll(uv, -1, axis=1))
    l2_sq = float(np.sum(weights * (case.u0(mids[..., 0], mids[..., 1]) - uh_mid) ** 2))
    e = mesh.edges
    hat_grads = np.stack([-e[..., 1], e[..., 0]], axis=-1) / (2.0 * mesh.areas)[:, None, None]
    uh_grad = np.einsum("ti,tid->td", uv, hat_grads)
    gx, gy = case.grad_u0(mids[..., 0], mids[..., 1])
    semi_sq = float(np.sum(weights * ((gx - uh_grad[:, None, 0]) ** 2 + (gy - uh_grad[:, None, 1]) ** 2)))
    nb, t = len(mesh.boundary), analysis._GAUSS_T
    el = np.arange(nb)[:, None]
    pts = boundary_point(mesh, el, t)
    approx = (1.0 - t) * lam[el] + t * lam[(el + 1) % nb]
    gx, gy = case.grad_u0(pts[..., 0], pts[..., 1])
    normal = builder_normals(mesh, pts)
    lam_exact = -(gx * normal[..., 0] + gy * normal[..., 1])
    lam_l2_e = mesh.boundary.length * (((lam_exact - approx) ** 2) @ analysis._GAUSS_W)
    rp = residual_norm(system.A @ u + system.B.T @ lam - system.F) / max(1.0, residual_norm(system.F))
    rc = residual_norm(system.B @ u - system.G) / max(1.0, residual_norm(system.G))
    return ErrorReport(level.h, level.placement.n, seed, math.sqrt(l2_sq), math.sqrt(l2_sq + semi_sq),
                       math.sqrt(semi_sq), math.sqrt(float(lam_l2_e.sum())),
                       math.sqrt(float(mesh.boundary.length @ lam_l2_e)), rp, rc)


class TestMeasurePath:
    @pytest.mark.parametrize("domain, k, i, model, seeds", [
        ("square", 10, 2, NoiseModel.gaussian(2.0), range(5)),
        ("square", 40, 3, NoiseModel.gaussian(2.0), range(3)),  # the tail study's level
        ("disk", 10, 1, NoiseModel.mixture(1.0, 10.0, 0.5), range(7, 10)),  # rank-deficient
        ("disk", 20, 1, NoiseModel.mixture(1.0, 10.0, 0.5), range(7, 10)),  # rank-deficient
        ("disk", 10, 2, NoiseModel.gaussian(2.0), range(3)),
        ("disk", 40, 1, NoiseModel.gaussian(2.0), range(2)),  # 10,053 triangles: blocks of scratch and a short one
    ])
    def test_reports_keep_the_bits_of_the_plain_formulas(self, domain, k, i, model, seeds):
        level = Level(domain, k, i=i)
        left, right = sweep(level.placement, [observe(level.placement, None, model, s).values for s in seeds])
        noise = left + np.roll(right, 1, axis=1)
        expected = []
        for g, seed in zip(noise, seeds):
            system = dataclasses.replace(level.clean, G=level.clean.G + g)
            expected.append(measured_by_plain_formulas(level, system, solve_saddle(system), seed))
        assert level.trials(model, seeds) == expected


def poisoned(empty):
    """`empty` (or `empty_like`) handing out arrays full of NaN, or of the
    largest value of an integer or boolean type."""
    def make(*args, **kwargs):
        array = empty(*args, **kwargs)
        array.fill(np.nan if array.dtype.kind in "fc" else True if array.dtype.kind == "b"
                   else np.iinfo(array.dtype).max)
        return array
    return make


def test_kernels_write_their_scratch_before_reading_it(monkeypatch):
    level = Level("disk", 40, i=1)  # 10,053 triangles: blocks of scratch and a short one
    mesh, case, solution = level.mesh, level.case, solve_saddle(level.clean)
    kernels = {
        "compute_errors": lambda: dataclasses.astuple(compute_errors(level.quadrature, solution, level.h, 40, 7)),
        "_triangle_geometry": lambda: obsfem.mesh._triangle_geometry(mesh.vertices, mesh.triangles),
        "assemble_stiffness": lambda: (lambda A: (A.indptr, A.indices, A.data))(obsfem.assemble_stiffness(mesh)),
        "ErrorQuadrature": lambda: (lambda q: (q.weights, q.u0_mid, *q.grad_u0_mid, q.hat_grads, q.lambda_exact))(
            ErrorQuadrature(mesh, case)),
    }
    for name, kernel in kernels.items():
        clean = [np.asarray(a).tobytes() for a in kernel()]
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", poisoned(np.empty))
            patch.setattr(np, "empty_like", poisoned(np.empty_like))
            dirty = [np.asarray(a).tobytes() for a in kernel()]
        assert dirty == clean, name


class TestLevelTrials:
    @pytest.mark.parametrize("model", [NoiseModel.gaussian(1.5), NoiseModel.mixture(1.0, 10.0, 0.3)],
                             ids=["gaussian", "mixture"])
    @pytest.mark.parametrize("domain, k, n", [
        ("square", 4, 2 ** 20 + 5000),  # an element straddles the two noise blocks
        ("square", 10, 100),  # 20 sites nudged off element endpoints
        ("disk", 10, 17),  # empty elements, rank-deficient coupling
        ("square", 2, 4 * 131073),  # runs longer than a window, a nudged site at 2^16
        ("square", 40, 40 ** 3),  # the tail study's level, one window
    ])
    def test_trials_match_a_whole_array_oracle(self, domain, k, n, model):
        level = Level(domain, k, n=n)
        seeds = range(3, 8)
        reports = level.trials(model, seeds)
        assert reports == oracle_reports(level, model, seeds)
        assert level.trials(model, seeds[:3]) + level.trials(model, seeds[3:]) == reports
        assert sum((level.trials(model, [s]) for s in seeds), []) == reports

    def test_sweeps_of_fewer_seeds_keep_the_bits(self, monkeypatch):
        # room for 2.5 mixture seeds (2 NB sums and two generators each)
        # caps a sweep at 2 seeds: 5 seeds take 3 sweeps
        level = Level("disk", 10, n=3 * 2 ** 20 + 5)
        model = NoiseModel.mixture(1.0, 10.0, 0.3)
        whole = level.trials(model, range(5))
        sweeps = []
        monkeypatch.setattr(analysis, "sweep", lambda pl, readers: sweeps.append(len(readers)) or sweep(pl, readers))
        per_seed = 16 * len(level.mesh.boundary) + 2 * analysis._GENERATOR_BYTES
        monkeypatch.setattr(analysis, "_SWEEP_BYTES", 5 * per_seed // 2)
        assert level.trials(model, range(5)) == whole
        assert sweeps == [2, 2, 1]

    @pytest.mark.parametrize("model, seeds", [(NoiseModel.gaussian(1.0), 5041),
                                              (NoiseModel.mixture(1.0, 10.0, 0.3), 3120)])
    def test_a_sweep_counts_the_generators_of_its_seeds(self, monkeypatch, model, seeds):
        # square k=10: 40 elements, 640 B of sums per seed, 1 KiB per generator
        level = Level("square", 10, n=50)
        sweeps = []
        monkeypatch.setattr(analysis, "sweep",
                            lambda pl, readers: sweeps.append(len(readers)) or np.zeros((2, len(readers), 1)))
        monkeypatch.setattr(level, "_solve", lambda G, seed: None)
        level.trials(model, range(seeds + 1))
        assert sweeps == [seeds, 1]

    def test_a_sweep_opens_one_stream_per_block_and_seed(self, stream_opens):
        level = Level("square", 4, n=3 * 2 ** 20 + 5)  # four noise blocks
        stream_opens.clear()
        level.trials(NoiseModel.mixture(1.0, 10.0, 0.3), range(2))
        assert stream_opens == [(seed, block) for block in range(4) for seed in range(2)]

    def test_no_array_holds_more_than_a_piece(self, monkeypatch):
        # elements of 196608 sites, each split over windows of 2^16
        passes = []
        monkeypatch.setattr(observations, "_site_array",
                            lambda n, make=observations._site_array: passes.append(n) or make(n))
        level = Level("square", 4, n=3 * 2 ** 20 + 5)
        level.trials(NoiseModel.gaussian(1.0), range(2))
        sizes = held_array_sizes(level)
        assert np.diff(level.placement.offsets).max() >= 3 * 2 ** 16
        assert passes == [2 ** 16 + 2, 2 ** 16, 2 ** 16] * 2  # the build's pass and the trials'
        assert max(sizes.values()) <= 2 ** 16 + 2, sizes

    def test_pieces_of_short_runs_hold_2_to_the_16_sites_at_most(self, monkeypatch):
        passes = []
        monkeypatch.setattr(observations, "_site_array",
                            lambda n, make=observations._site_array: passes.append(n) or make(n))
        level = Level("square", 20, i=4)  # 160000 sites in 80 runs of 2000
        level.trials(NoiseModel.mixture(1.0, 10.0, 0.3), range(2))
        assert max(passes) == 2 ** 16 + 2
        assert max(held_array_sizes(level).values()) <= 2 ** 16 + 2

    def test_a_level_holds_no_mapped_array(self):
        # a pass's buffers go back to the system when it ends
        level = Level("square", 4, n=3 * 2 ** 16 + 5)
        level.trials(NoiseModel.gaussian(1.0), range(2))
        arrays = [getattr(a, name) for a in held_arrays(level).values() if sp.issparse(a)
                  for name in ("data", "indices", "indptr")]
        arrays += [a for a in held_arrays(level).values() if isinstance(a, np.ndarray)]
        assert len(arrays) > 20 and not any(isinstance(buffer_of(a), mmap.mmap) for a in arrays)

    def test_a_level_of_6_noise_blocks_peaks_within_40_MB(self):
        # t and alpha of 6.3 M sites alone would take 100 MB
        program = ("import resource\nimport obsfem\n"
                   "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                   "level = obsfem.Level('square', 10, n=6 * 2 ** 20)\n"
                   "level.trials(obsfem.NoiseModel.gaussian(1.0), range(2))\n"
                   "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n")
        src = os.path.dirname(os.path.dirname(obsfem.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", program], capture_output=True, check=True,
                             env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        assert int(run.stdout) < 40 * 1024  # ru_maxrss is in kB


def test_readme_lower_level_pieces_are_live_exports():
    # every name that README's paragraph on the lower-level pieces shows
    # bare or called, as `place_points` or `observe(placement, ...)`
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    [paragraph] = re.findall(r"^Lower-level pieces .*?(?=\n\n)", readme, re.M | re.S)
    names = {name for name in re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", paragraph)
             if not keyword.iskeyword(name)}  # not the model `None`
    assert len(names) >= 10
    assert sorted(name for name in names if not hasattr(obsfem, name)) == []
