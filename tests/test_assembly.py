import math

import numpy as np
import pytest
import scipy.io
import scipy.linalg

from obsfem import (
    FieldSpace,
    MultiplierSpace,
    assemble_coupling,
    assemble_coupling_matrix,
    assemble_data_vector,
    assemble_load,
    assemble_stiffness,
    boundary_mass,
    build_observation_set,
    build_saddle_system,
    build_square_mesh,
    empirical_norm,
    export_matrix_market,
    mesh_dependent_norms,
    multiplier_at_sites,
    place_points,
    trace_evaluate,
    trace_matrix,
)
from obsfem.assembly import trace_like, vh_gram
from obsfem.mesh import Boundary, TriMesh


def dense_coupling(space_v, space_q, placement):
    """Brute-force B[k, j] = sum_i alpha_i psi_k(x_i) phi_j(x_i)."""
    B = np.zeros((space_q.ndof, space_v.ndof))
    for e in range(space_q.ndof):
        sl = placement.element_slice(e)
        q0, q1 = space_q.element_dofs(e)
        v0, v1 = placement.mesh.boundary.v0[e], placement.mesh.boundary.v1[e]
        for i in range(sl.start, sl.stop):
            t = placement.t[i]
            a = placement.alpha[i]
            for qd, psi in ((q0, 1.0 - t), (q1, t)):
                B[qd, v0] += a * psi * (1.0 - t)
                B[qd, v1] += a * psi * t
    return B


def unit_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return TriMesh(verts, tris, Boundary([0, 1, 2], [1.0, math.sqrt(2.0), 1.0]))


class TestStiffness:
    def test_unit_right_triangle(self):
        A = assemble_stiffness(FieldSpace(unit_triangle_mesh())).toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(A, expected, atol=1e-15)

    def test_constants_in_kernel(self, square8, disk10):
        for mesh in (square8, disk10):
            A = assemble_stiffness(FieldSpace(mesh))
            rowsums = np.abs(A @ np.ones(A.shape[0]))
            assert rowsums.max() <= 1e-12

    def test_linear_energy_exact(self):
        # grad(x) has unit norm, so v^T A v = |Omega| = 1 for v = I_h x
        mesh = build_square_mesh(4)
        A = assemble_stiffness(FieldSpace(mesh))
        v = mesh.vertices[:, 0].copy()
        assert v @ (A @ v) == pytest.approx(1.0, abs=1e-13)

    def test_symmetric(self, square8):
        A = assemble_stiffness(FieldSpace(square8))
        assert abs(A - A.T).max() == 0.0


class TestLoad:
    def test_constant_source_total(self, square8):
        F = assemble_load(FieldSpace(square8), lambda x, y: np.ones_like(x))
        assert F.sum() == pytest.approx(1.0, abs=1e-14)
        assert (F > 0).all()

    def test_scalar_return_broadcast(self, square8):
        F = assemble_load(FieldSpace(square8), lambda x, y: 2.0)
        assert F.sum() == pytest.approx(2.0, abs=1e-14)

    def test_zero_source(self, disk10):
        F = assemble_load(FieldSpace(disk10), lambda x, y: np.zeros_like(x))
        assert not F.any()

    def test_linear_source_total(self):
        # I_h x = x, and sum_i F_i = int x over the unit square
        mesh = build_square_mesh(2)
        F = assemble_load(FieldSpace(mesh), lambda x, y: x)
        assert F.sum() == pytest.approx(0.5, abs=1e-14)

    def test_non_finite_names_vertex(self, square8):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="vertex"):
                assemble_load(FieldSpace(square8), lambda x, y: 1.0 / (x + y))


class TestTrace:
    def test_constant_field(self, square4):
        sq = MultiplierSpace(square4)
        u = np.full(len(square4.vertices), 2.5)
        np.testing.assert_allclose(
            trace_evaluate(sq, u, 3, np.linspace(0, 1, 7)), 2.5)

    def test_endpoints(self, square4):
        sq = MultiplierSpace(square4)
        u = np.arange(len(square4.vertices), dtype=float)
        assert trace_evaluate(sq, u, 5, 0.0) == u[square4.boundary.v0[5]]
        assert trace_evaluate(sq, u, 5, 1.0) == u[square4.boundary.v1[5]]

    def test_linear_on_bottom_edge(self, square4):
        # element 0 runs from (0,0) to (0.25,0); the trace of I_h x is 0.25 t
        sq = MultiplierSpace(square4)
        u = square4.vertices[:, 0].copy()
        t = np.array([0.0, 0.3, 1.0])
        np.testing.assert_allclose(trace_evaluate(sq, u, 0, t), 0.25 * t, atol=1e-15)

    def test_trace_matrix_selects_boundary(self, disk10):
        sv, sq = FieldSpace(disk10), MultiplierSpace(disk10)
        T = trace_matrix(sv, sq)
        u = np.arange(sv.ndof, dtype=float)
        np.testing.assert_array_equal(T @ u, u[disk10.boundary_vertices])


class TestCoupling:
    def test_total_mass_is_boundary_length(self, square10, disk10):
        for mesh, total in ((square10, 4.0), (disk10, 2 * math.pi)):
            sv, sq = FieldSpace(mesh), MultiplierSpace(mesh)
            B = assemble_coupling_matrix(sv, sq, place_points(mesh, 500))
            assert B.sum() == pytest.approx(total, abs=1e-10)

    def test_row_sums_are_empirical_psi_integrals(self, square4):
        sv, sq = FieldSpace(square4), MultiplierSpace(square4)
        pl = place_points(square4, 64)
        B = assemble_coupling_matrix(sv, sq, pl)
        psi = np.stack([multiplier_at_sites(sq, np.eye(sq.ndof)[k], pl)
                        for k in range(sq.ndof)])
        np.testing.assert_allclose(np.asarray(B.sum(axis=1)).ravel(),
                                   psi @ pl.alpha, atol=1e-14)

    def test_matches_dense_brute_force(self, square4):
        sv, sq = FieldSpace(square4), MultiplierSpace(square4)
        pl = place_points(square4, 64)
        B = assemble_coupling_matrix(sv, sq, pl)
        np.testing.assert_allclose(B.toarray(), dense_coupling(sv, sq, pl),
                                   atol=1e-13)

    def test_row_support_is_adjacent_vertices(self, disk10):
        sv, sq = FieldSpace(disk10), MultiplierSpace(disk10)
        B = assemble_coupling_matrix(sv, sq, place_points(disk10, 300)).tocsr()
        bv = disk10.boundary_vertices
        nq = sq.ndof
        for k in (0, 7, nq - 1):
            cols = set(B.indices[B.indptr[k]:B.indptr[k + 1]])
            allowed = {bv[(k - 1) % nq], bv[k], bv[(k + 1) % nq]}
            assert cols <= allowed

    def test_interior_columns_vanish(self, square4):
        sv, sq = FieldSpace(square4), MultiplierSpace(square4)
        B = assemble_coupling_matrix(sv, sq, place_points(square4, 80)).tocsc()
        interior = np.setdiff1d(np.arange(sv.ndof), square4.boundary_vertices)
        assert B[:, interior].nnz == 0

    def test_constant_data_vector(self, square4):
        sv, sq = FieldSpace(square4), MultiplierSpace(square4)
        obs = build_observation_set(square4, 48, lambda x, y: 3.0, None)
        B, G = assemble_coupling(sv, sq, obs)
        np.testing.assert_allclose(G, 3.0 * (B @ np.ones(sv.ndof)), atol=1e-14)

    def test_data_vector_brute_force(self, disk10, rng):
        sq = MultiplierSpace(disk10)
        obs = build_observation_set(disk10, 200, lambda x, y: x * y - y,
                                    None, seed=0)
        G = assemble_data_vector(sq, obs)
        expected = np.zeros(sq.ndof)
        for e in range(sq.ndof):
            sl = obs.placement.element_slice(e)
            q0, q1 = sq.element_dofs(e)
            for i in range(sl.start, sl.stop):
                expected[q0] += obs.alpha[i] * (1 - obs.t[i]) * obs.g[i]
                expected[q1] += obs.alpha[i] * obs.t[i] * obs.g[i]
        np.testing.assert_allclose(G, expected, atol=1e-14)


class TestBoundaryNorms:
    def test_l2_mass_uniform_square(self):
        mesh = build_square_mesh(4)
        M = boundary_mass(MultiplierSpace(mesh), power=1).toarray()
        h = 0.25
        nq = 16
        expected = np.zeros((nq, nq))
        for e in range(nq):
            a, b = e, (e + 1) % nq
            expected[a, a] += h / 3
            expected[b, b] += h / 3
            expected[a, b] += h / 6
            expected[b, a] += h / 6
        np.testing.assert_allclose(M, expected, atol=1e-15)

    def test_constant_on_disk(self, disk10):
        sq = MultiplierSpace(disk10)
        up, down = mesh_dependent_norms(sq, np.ones(sq.ndof))
        lengths = disk10.boundary_lengths
        assert up == pytest.approx(math.sqrt(sq.ndof), rel=1e-12)
        assert down == pytest.approx(math.sqrt(np.sum(lengths ** 2)), rel=1e-12)

    def test_zero_vector(self, disk10):
        sq = MultiplierSpace(disk10)
        assert mesh_dependent_norms(sq, np.zeros(sq.ndof)) == (0.0, 0.0)

    def test_hat_function_closed_form(self):
        # uniform square boundary, h=0.25: the hat spans two elements with
        # ||psi||^2_{L2} = 2h/3, scaled by h^{-1} and h for the two norms
        mesh = build_square_mesh(4)
        sq = MultiplierSpace(mesh)
        hat = np.eye(sq.ndof)[3]
        h = 0.25
        up, down = mesh_dependent_norms(sq, hat)
        l2_sq = hat @ boundary_mass(sq, 1) @ hat
        assert l2_sq == pytest.approx(2 * h / 3, rel=1e-12)
        assert up == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
        assert down == pytest.approx(math.sqrt(2 * h * h / 3), rel=1e-12)

    def test_norms_match_gram_quadratic_forms(self, disk10, rng):
        sq = MultiplierSpace(disk10)
        M_up = boundary_mass(sq, power=0)
        M_down = boundary_mass(sq, power=2)
        for _ in range(5):
            mu = rng.standard_normal(sq.ndof)
            up, down = mesh_dependent_norms(sq, mu)
            assert up == pytest.approx(math.sqrt(mu @ (M_up @ mu)), rel=1e-12)
            assert down == pytest.approx(math.sqrt(mu @ (M_down @ mu)), rel=1e-12)

    def test_callable_values(self, disk10):
        sq = MultiplierSpace(disk10)
        by_dofs = mesh_dependent_norms(sq, np.ones(sq.ndof))
        by_call = mesh_dependent_norms(sq, lambda t: np.ones_like(t))
        assert by_call == pytest.approx(by_dofs, rel=1e-13)

    def test_trace_like_is_linear_interp(self, square4):
        sq = MultiplierSpace(square4)
        mu = np.arange(sq.ndof, dtype=float)
        q0, q1 = sq.element_dofs(5)
        assert trace_like(sq, mu, 5, 0.25) == pytest.approx(
            0.75 * mu[q0] + 0.25 * mu[q1])


class TestFieldGram:
    def test_matches_dense_formula(self, square4):
        sv, sq = FieldSpace(square4), MultiplierSpace(square4)
        A = assemble_stiffness(sv)
        T = trace_matrix(sv, sq).toarray()
        M0 = boundary_mass(sq, power=0).toarray()
        W = vh_gram(sv, sq)
        np.testing.assert_allclose(W.toarray(), A.toarray() + T.T @ M0 @ T,
                                   atol=1e-14)

    def test_positive_definite(self, square4):
        sv, sq = FieldSpace(square4), MultiplierSpace(square4)
        evals = np.linalg.eigvalsh(vh_gram(sv, sq).toarray())
        assert evals.min() > 0


class TestMultiplierAtSites:
    def test_matches_per_element_eval(self, disk10, rng):
        sq = MultiplierSpace(disk10)
        pl = place_points(disk10, 150)
        mu = rng.standard_normal(sq.ndof)
        vals = multiplier_at_sites(sq, mu, pl)
        for e in (0, 17, 40):
            sl = pl.element_slice(e)
            np.testing.assert_allclose(vals[sl], trace_like(sq, mu, e, pl.t[sl]))

    def test_partition_of_unity(self, square10):
        sq = MultiplierSpace(square10)
        pl = place_points(square10, 333)
        total = sum(multiplier_at_sites(sq, np.eye(sq.ndof)[k], pl)
                    for k in range(sq.ndof))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


def scaled_min_singular_value(k):
    """Smallest singular value of D_Q^{-1/2} B D_V^{-1/2} at n = k^2 sites."""
    mesh = build_square_mesh(k)
    sv, sq = FieldSpace(mesh), MultiplierSpace(mesh)
    B = assemble_coupling_matrix(sv, sq, place_points(mesh, k * k)).toarray()
    dq = boundary_mass(sq, power=2).diagonal()
    dv = vh_gram(sv, sq).diagonal()
    S = B / np.sqrt(dq)[:, None] / np.sqrt(dv)[None, :]
    return float(np.linalg.svd(S, compute_uv=False).min())


class TestInfSupScaling:
    def test_coarsest_mesh_degenerate(self):
        # k=4 with one site per element midpoint: the alternating
        # multiplier vanishes at every site, so B drops rank exactly
        assert scaled_min_singular_value(4) <= 1e-10

    def test_frozen_values(self):
        assert scaled_min_singular_value(8) == pytest.approx(0.1915305, abs=2e-3)
        assert scaled_min_singular_value(16) == pytest.approx(0.2363181, abs=2e-3)

    def test_no_decay_under_refinement(self):
        s8 = scaled_min_singular_value(8)
        s16 = scaled_min_singular_value(16)
        assert s16 >= 0.8 * s8


class TestKernelCoercivity:
    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_energy_controls_field_norm_on_kernel(self, k):
        # on ker(B) the gradient seminorm alone must control the full
        # field norm: min Rayleigh quotient of (A, W) restricted there
        mesh = build_square_mesh(k)
        sv, sq = FieldSpace(mesh), MultiplierSpace(mesh)
        B = assemble_coupling_matrix(sv, sq, place_points(mesh, k * k)).toarray()
        A = assemble_stiffness(sv).toarray()
        W = vh_gram(sv, sq).toarray()
        _, sing, vt = np.linalg.svd(B)
        null_dim = sv.ndof - np.sum(sing > 1e-10 * sing[0])
        Z = vt[sv.ndof - null_dim:].T
        evals = scipy.linalg.eigh(Z.T @ A @ Z, Z.T @ W @ Z, eigvals_only=True)
        assert evals[0] >= 0.85


class TestEmpiricalNormEquivalence:
    @pytest.mark.parametrize("k", [4, 8])
    def test_ratio_near_one(self, k, rng):
        mesh = build_square_mesh(k)
        sq = MultiplierSpace(mesh)
        pl = place_points(mesh, k * k)
        M1 = boundary_mass(sq, power=1)
        for _ in range(20):
            mu = rng.standard_normal(sq.ndof)
            num = empirical_norm(pl.alpha, multiplier_at_sites(sq, mu, pl))
            den = math.sqrt(mu @ (M1 @ mu))
            assert 0.5 <= num / den <= 2.0


class TestSaddleSystem:
    def test_blocks_and_shapes(self, square4):
        sv, sq = FieldSpace(square4), MultiplierSpace(square4)
        obs = build_observation_set(square4, 32, lambda x, y: x, None)
        sys = build_saddle_system(sv, sq, lambda x, y: np.ones_like(x), obs)
        assert sys.n_field == sv.ndof
        assert sys.n_multiplier == sq.ndof
        assert sys.A.shape == (sv.ndof, sv.ndof)
        assert sys.B.shape == (sq.ndof, sv.ndof)
        assert sys.F.shape == (sv.ndof,)
        assert sys.G.shape == (sq.ndof,)
        assert sys.space_v is sv and sys.space_q is sq

    def test_matrix_market_round_trip(self, tmp_path, square4):
        A = assemble_stiffness(FieldSpace(square4))
        path = tmp_path / "stiffness.mtx"
        export_matrix_market(A, str(path), comment="stiffness block")
        assert path.read_text().startswith("%%MatrixMarket")
        back = scipy.io.mmread(str(path))
        assert abs(back - A).max() == 0.0
