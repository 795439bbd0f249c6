import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from obsfem import (
    Level,
    NoiseModel,
    ObservationSet,
    assemble_coupling_matrix,
    assemble_data_vector,
    assemble_load,
    assemble_stiffness,
    build_disk_mesh,
    build_square_mesh,
    Placement,
    observe,
    place_points,
)
from obsfem.assembly import TRACE_HATS, sweep
from obsfem.mesh import Boundary, TriMesh

from norms import boundary_mass, empirical_norm, multiplier_at_sites, trace_matrix, vh_gram


def dense_coupling(placement):
    """Brute-force B[k, j] = sum_i alpha_i psi_k(x_i) phi_j(x_i)."""
    mesh = placement.mesh
    nq = len(mesh.boundary)
    B = np.zeros((nq, len(mesh.vertices)))
    ts, alphas = placement.window(0, placement.n)[4:]
    for e in range(nq):
        q0, q1 = e, (e + 1) % nq
        v0, v1 = mesh.boundary.v0[e], mesh.boundary.v1[e]
        for i in range(placement.offsets[e], placement.offsets[e + 1]):
            t = ts[i]
            a = alphas[i]
            for qd, psi in ((q0, 1.0 - t), (q1, t)):
                B[qd, v0] += a * psi * (1.0 - t)
                B[qd, v1] += a * psi * t
    return B


def per_block_noise(model, seed, n, lo, hi):
    """Entries [lo, hi) of the noise of an n-entry stream, sliced out of
    their 2^20-entry block drawn whole into fresh arrays."""
    base = lo - lo % 2 ** 20
    count = min(n, base + 2 ** 20) - base
    rng = np.random.Generator(np.random.Philox(key=(seed & 0xFFFFFFFFFFFFFFFF) | (base >> 20 << 64)))
    if model.kind == "gaussian":
        block = model.sigma * rng.standard_normal(count)
    else:
        pick = rng.random(count) < model.p
        block = np.where(pick, model.sigma1, model.sigma2) * rng.standard_normal(count)
    return block[lo - base : hi - base]


def per_window_hat_moments(placement, values):
    """Per-element sums of (1 - t) alpha v and t alpha v, one reduceat of
    fresh arrays per 2^16-site window; `values(lo, hi)` returns v."""
    nb = len(placement.offsets) - 1
    left, right = np.zeros(nb), np.zeros(nb)
    for lo in range(0, placement.n, 2 ** 16):
        hi = min(placement.n, lo + 2 ** 16)
        off = np.clip(placement.offsets, lo, hi) - lo
        owners = np.flatnonzero(off[1:] > off[:-1])
        window = placement.window(lo, hi)
        w = window.alpha * values(lo, hi)
        total = np.add.reduceat(w, off[owners])
        moment = np.add.reduceat(w * window.t, off[owners])
        left[owners] += total - moment
        right[owners] += moment
    return left, right


def unit_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return TriMesh(verts, tris, Boundary([0, 1, 2], [1.0, math.sqrt(2.0), 1.0]))


class TestStiffness:
    def test_unit_right_triangle(self):
        A = assemble_stiffness(unit_triangle_mesh()).toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(A, expected, atol=1e-15)

    def test_constants_in_kernel(self, square8, disk10):
        for mesh in (square8, disk10):
            A = assemble_stiffness(mesh)
            rowsums = np.abs(A @ np.ones(A.shape[0]))
            assert rowsums.max() <= 1e-12

    def test_linear_energy_exact(self):
        # grad(x) has unit norm, so v^T A v = |Omega| = 1 for v = I_h x
        mesh = build_square_mesh(4)
        A = assemble_stiffness(mesh)
        v = mesh.vertices[:, 0].copy()
        assert v @ (A @ v) == pytest.approx(1.0, abs=1e-13)

    def test_symmetric(self, square8):
        A = assemble_stiffness(square8)
        assert abs(A - A.T).max() == 0.0


class TestLoad:
    def test_constant_source_total(self, square8):
        F = assemble_load(square8, lambda x, y: np.ones_like(x))
        assert F.sum() == pytest.approx(1.0, abs=1e-14)
        assert (F > 0).all()

    def test_scalar_return_broadcast(self, square8):
        F = assemble_load(square8, lambda x, y: 2.0)
        assert F.sum() == pytest.approx(2.0, abs=1e-14)

    def test_zero_source(self, disk10):
        F = assemble_load(disk10, lambda x, y: np.zeros_like(x))
        assert not F.any()

    def test_linear_source_total(self):
        # I_h x = x, and sum_i F_i = int x over the unit square
        mesh = build_square_mesh(2)
        F = assemble_load(mesh, lambda x, y: x)
        assert F.sum() == pytest.approx(0.5, abs=1e-14)

    def test_non_finite_names_vertex(self, square8):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="vertex"):
                assemble_load(square8, lambda x, y: 1.0 / (x + y))


def at_params(mesh, mu, e, t):
    """A multiplier dof vector on boundary element e at parameters t,
    through sites placed there by hand: every site is a nudged one, moved
    to its given parameter."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    offsets = np.zeros(len(mesh.boundary) + 1, dtype=np.int64)
    offsets[e + 1:] = len(t)
    return multiplier_at_sites(mu, Placement(mesh, len(t), offsets, 1.0, np.arange(len(t)), t))


def trace_at(mesh, u, e, t):
    """Trace of a field vector u on boundary element e at parameters t."""
    return at_params(mesh, trace_matrix(mesh) @ u, e, t)


class TestTrace:
    def test_constant_field(self, square4):
        u = np.full(len(square4.vertices), 2.5)
        np.testing.assert_allclose(trace_at(square4, u, 3, np.linspace(0, 1, 7)), 2.5)

    def test_endpoints(self, square4):
        u = np.arange(len(square4.vertices), dtype=float)
        assert trace_at(square4, u, 5, 0.0) == u[square4.boundary.v0[5]]
        assert trace_at(square4, u, 5, 1.0) == u[square4.boundary.v1[5]]

    def test_linear_on_bottom_edge(self, square4):
        # element 0 runs from (0,0) to (0.25,0); the trace of I_h x is 0.25 t
        u = square4.vertices[:, 0].copy()
        t = np.array([0.0, 0.3, 1.0])
        np.testing.assert_allclose(trace_at(square4, u, 0, t), 0.25 * t, atol=1e-15)

    def test_trace_matrix_selects_boundary(self, disk10):
        T = trace_matrix(disk10)
        u = np.arange(len(disk10.vertices), dtype=float)
        np.testing.assert_array_equal(T @ u, u[disk10.boundary.v0])


class TestCoupling:
    def test_total_mass_is_boundary_length(self, square10, disk10):
        for mesh, total in ((square10, 4.0), (disk10, 2 * math.pi)):
            B = assemble_coupling_matrix(place_points(mesh, 500))
            assert B.sum() == pytest.approx(total, abs=1e-10)

    def test_row_sums_are_empirical_psi_integrals(self, square4):
        pl = place_points(square4, 64)
        B = assemble_coupling_matrix(pl)
        nq = len(square4.boundary)
        psi = np.stack([multiplier_at_sites(np.eye(nq)[k], pl) for k in range(nq)])
        np.testing.assert_allclose(np.asarray(B.sum(axis=1)).ravel(),
                                   psi @ pl.window(0, 64).alpha, atol=1e-14)

    def test_matches_dense_brute_force(self, square4):
        pl = place_points(square4, 64)
        B = assemble_coupling_matrix(pl)
        np.testing.assert_allclose(B.toarray(), dense_coupling(pl), atol=1e-13)

    def test_row_support_is_adjacent_vertices(self, disk10):
        B = assemble_coupling_matrix(place_points(disk10, 300)).tocsr()
        bv = disk10.boundary.v0
        nq = len(bv)
        for k in (0, 7, nq - 1):
            cols = set(B.indices[B.indptr[k]:B.indptr[k + 1]])
            allowed = {bv[(k - 1) % nq], bv[k], bv[(k + 1) % nq]}
            assert cols <= allowed

    def test_a_sweep_reads_one_window_at_a_time(self, monkeypatch):
        # square k=2: runs of 65536 and 65537 sites, longer than a window
        pl = place_points(build_square_mesh(2), 4 * 131073)
        sets = [observe(pl, None, NoiseModel.gaussian(1.0), s) for s in range(2)]
        reads, windows, values = [], Placement.windows, ObservationSet.values
        monkeypatch.setattr(Placement, "windows",
                            lambda self: (reads.append(w.hi - w.lo) or (w, out) for w, out in windows(self)))
        monkeypatch.setattr(ObservationSet, "values", lambda self, w, *a: reads.append(self.seed) or values(self, w, *a))
        sweep(pl, [*TRACE_HATS, *(obs.values for obs in sets)])
        windows = -(-pl.n // 2 ** 16)
        assert np.diff(pl.offsets).max() > 2 ** 16 and windows == 9
        assert reads[0::3] == [2 ** 16] * 8 + [4] and reads[1::3] == [0] * windows and reads[2::3] == [1] * windows

    def test_interior_columns_vanish(self, square4):
        B = assemble_coupling_matrix(place_points(square4, 80)).tocsc()
        interior = np.setdiff1d(np.arange(len(square4.vertices)), square4.boundary.v0)
        assert B[:, interior].nnz == 0

    def test_constant_data_vector(self, square4):
        obs = observe(place_points(square4, 48), lambda x, y: 3.0, None, 0)
        B, G = assemble_coupling_matrix(obs.placement), assemble_data_vector(obs)
        np.testing.assert_allclose(G, 3.0 * (B @ np.ones(len(square4.vertices))), atol=1e-14)

    def test_data_vector_brute_force(self, disk10, rng):
        obs = observe(place_points(disk10, 200), lambda x, y: x * y - y, None, 0)
        G = assemble_data_vector(obs)
        pl = obs.placement
        g = obs.values(pl.window(0, pl.n))
        nq = len(disk10.boundary)
        expected = np.zeros(nq)
        t, alpha = pl.window(0, pl.n)[4:]
        for e in range(nq):
            q0, q1 = e, (e + 1) % nq
            for i in range(pl.offsets[e], pl.offsets[e + 1]):
                expected[q0] += alpha[i] * (1 - t[i]) * g[i]
                expected[q1] += alpha[i] * t[i] * g[i]
        np.testing.assert_allclose(G, expected, atol=1e-14)


    @pytest.mark.parametrize("domain, k", [("square", 4), ("disk", 3)])
    def test_bits_of_the_per_block_reduction(self, domain, k):
        # 2^20 + 5000 sites: one element straddles the two noise blocks
        mesh = build_square_mesh(k) if domain == "square" else build_disk_mesh(k)
        pl = place_points(mesh, 2 ** 20 + 5000)
        t = pl.window(0, pl.n).t
        b00, b01 = per_window_hat_moments(pl, lambda lo, hi: 1.0 - t[lo:hi])
        _, b11 = per_window_hat_moments(pl, lambda lo, hi: t[lo:hi])
        e = np.flatnonzero(np.diff(pl.offsets))
        q1 = (e + 1) % len(mesh.boundary)
        v0, v1 = mesh.boundary.v0[e], mesh.boundary.v0[q1]
        B = assemble_coupling_matrix(pl)
        expected = sp.coo_matrix((np.concatenate([b00[e], b01[e], b01[e], b11[e]]),
                                  (np.concatenate([e, e, q1, q1]), np.concatenate([v0, v1, v0, v1]))),
                                 shape=B.shape).tocsr()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(B, name), getattr(expected, name))

        def g0(x, y):
            return np.sin(5.0 * x + 1.0) * np.sin(5.0 * y + 1.0)

        def clean(lo, hi):
            return 0.0 + pl.evaluate(g0, pl.window(lo, hi))

        for model in (NoiseModel.gaussian(1.5), NoiseModel.mixture(1.0, 10.0, 0.3)):
            for obs, values in (
                (observe(pl, None, model, 9), lambda lo, hi: per_block_noise(model, 9, pl.n, lo, hi)),
                (ObservationSet(pl, g0, None, 0), clean),
                (observe(pl, g0, model, 9),
                 lambda lo, hi: per_block_noise(model, 9, pl.n, lo, hi) + pl.evaluate(g0, pl.window(lo, hi))),
            ):
                left, right = per_window_hat_moments(pl, values)
                assert np.array_equal(assemble_data_vector(obs), left + np.roll(right, 1))


class TestBoundaryNorms:
    def test_l2_mass_uniform_square(self):
        mesh = build_square_mesh(4)
        M = boundary_mass(mesh, power=1).toarray()
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
        # a constant has int_0^1 psi psi dt summing to 1 per element
        one = np.ones(len(disk10.boundary))
        lengths = disk10.boundary.length
        assert one @ (boundary_mass(disk10, power=0) @ one) == pytest.approx(len(one), rel=1e-12)
        assert one @ (boundary_mass(disk10, power=2) @ one) == pytest.approx(np.sum(lengths ** 2), rel=1e-12)

    def test_hat_function_closed_form(self):
        # uniform square boundary, h=0.25: the hat spans two elements with
        # ||psi||^2_{L2} = 2h/3, scaled by h^{-1} and h for the Gram
        # matrices of the two mesh-dependent norms
        mesh = build_square_mesh(4)
        hat = np.eye(len(mesh.boundary))[3]
        h = 0.25
        l2_sq = hat @ boundary_mass(mesh, 1) @ hat
        assert l2_sq == pytest.approx(2 * h / 3, rel=1e-12)
        assert hat @ boundary_mass(mesh, 0) @ hat == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert hat @ boundary_mass(mesh, 2) @ hat == pytest.approx(2 * h * h / 3, rel=1e-12)

    def test_norms_match_gram_quadratic_forms(self, disk10, rng):
        # mu linear on element E from a = mu[v0] to b = mu[v1] has
        # int_0^1 mu^2 dt = (a^2 + a b + b^2) / 3
        h = disk10.boundary.length
        for power in (0, 2):
            M = boundary_mass(disk10, power=power)
            for _ in range(5):
                mu = rng.standard_normal(len(h))
                a, b = mu, np.roll(mu, -1)
                closed = np.sum(h ** power * (a * a + a * b + b * b) / 3.0)
                assert mu @ (M @ mu) == pytest.approx(closed, rel=1e-12)

    def test_multiplier_is_linear_interp(self, square4):
        mu = np.arange(len(square4.boundary), dtype=float)
        assert at_params(square4, mu, 5, 0.25) == pytest.approx(0.75 * mu[5] + 0.25 * mu[6])

    def test_vector_of_another_mesh_rejected(self, square4, disk10):
        # a multiplier must have one value per boundary vertex of the mesh it is read on
        mu = np.ones(len(disk10.boundary))
        with pytest.raises(ValueError, match=r"shape \(63,\), the boundary has 16 dofs"):
            multiplier_at_sites(mu, place_points(square4, 32))


class TestFieldGram:
    def test_matches_dense_formula(self, square4):
        A = assemble_stiffness(square4)
        T = trace_matrix(square4).toarray()
        M0 = boundary_mass(square4, power=0).toarray()
        W = vh_gram(square4)
        np.testing.assert_allclose(W.toarray(), A.toarray() + T.T @ M0 @ T,
                                   atol=1e-14)

    def test_positive_definite(self, square4):
        evals = np.linalg.eigvalsh(vh_gram(square4).toarray())
        assert evals.min() > 0


class TestMultiplierAtSites:
    def test_matches_per_element_eval(self, disk10, rng):
        pl = place_points(disk10, 150)
        nq = len(disk10.boundary)
        mu = rng.standard_normal(nq)
        vals, t = multiplier_at_sites(mu, pl), pl.window(0, pl.n).t
        for e in (0, 17, 40, nq - 1):
            sl = slice(pl.offsets[e], pl.offsets[e + 1])
            np.testing.assert_allclose(vals[sl], (1 - t[sl]) * mu[e] + t[sl] * mu[(e + 1) % nq])

    def test_partition_of_unity(self, square10):
        pl = place_points(square10, 333)
        nq = len(square10.boundary)
        total = sum(multiplier_at_sites(np.eye(nq)[k], pl) for k in range(nq))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


def scaled_min_singular_value(k):
    """Smallest singular value of D_Q^{-1/2} B D_V^{-1/2} at n = k^2 sites."""
    mesh = build_square_mesh(k)
    B = assemble_coupling_matrix(place_points(mesh, k * k)).toarray()
    dq = boundary_mass(mesh, power=2).diagonal()
    dv = vh_gram(mesh).diagonal()
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
        nv = len(mesh.vertices)
        B = assemble_coupling_matrix(place_points(mesh, k * k)).toarray()
        A = assemble_stiffness(mesh).toarray()
        W = vh_gram(mesh).toarray()
        _, sing, vt = np.linalg.svd(B)
        null_dim = nv - np.sum(sing > 1e-10 * sing[0])
        Z = vt[nv - null_dim:].T
        evals = scipy.linalg.eigh(Z.T @ A @ Z, Z.T @ W @ Z, eigvals_only=True)
        assert evals[0] >= 0.85


class TestEmpiricalNormEquivalence:
    @pytest.mark.parametrize("k", [4, 8])
    def test_ratio_near_one(self, k, rng):
        mesh = build_square_mesh(k)
        pl = place_points(mesh, k * k)
        M1 = boundary_mass(mesh, power=1)
        for _ in range(20):
            mu = rng.standard_normal(len(mesh.boundary))
            num = empirical_norm(pl.window(0, pl.n).alpha, multiplier_at_sites(mu, pl))
            den = math.sqrt(mu @ (M1 @ mu))
            assert 0.5 <= num / den <= 2.0


class TestSaddleSystem:
    def test_blocks_and_shapes(self, square4):
        # a level reads B and G0 in one sweep: they keep the bits of the
        # blocks assembled one by one
        nv, nq = len(square4.vertices), len(square4.boundary)
        level = Level("square", 4, n=32)
        sys, pl = level.clean, level.placement
        assert sys.n_field == nv
        assert sys.n_multiplier == nq
        assert sys.A.shape == (nv, nv)
        assert sys.B.shape == (nq, nv)
        assert sys.F.shape == (nv,)
        assert sys.G.shape == (nq,)
        B = assemble_coupling_matrix(pl)
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(sys.B, name), getattr(B, name))
        np.testing.assert_array_equal(sys.G, assemble_data_vector(observe(pl, level.case.u0, None, 0)))
