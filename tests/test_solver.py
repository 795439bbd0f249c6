import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from obsfem import (
    Level,
    NoiseModel,
    SaddleSystem,
    SingularSystemError,
    assemble_coupling_matrix,
    assemble_data_vector,
    assemble_load,
    assemble_stiffness,
    build_disk_mesh,
    build_mesh,
    build_square_mesh,
    observe,
    place_points,
    read_mesh_text,
    solve_saddle,
    write_mesh_text,
)
from obsfem.solver import dissection_order
from norms import residual_norm


def make_system(mesh, n, f, g0, model=None, seed=0):
    obs = observe(place_points(mesh, n), g0, model, seed)
    return SaddleSystem(assemble_stiffness(mesh), assemble_coupling_matrix(obs.placement),
                        assemble_load(mesh, f), assemble_data_vector(obs), mesh.vertices)


def noisy_data_vector(level, model, seed):
    """G = G0 + G_noise of the level for one noise draw."""
    return level.clean.G + assemble_data_vector(observe(level.placement, None, model, seed))


def dense_blocks(system):
    nv, nq = system.n_field, system.n_multiplier
    K = np.zeros((nv + nq, nv + nq))
    K[:nv, :nv] = system.A.toarray()
    K[nv:, :nv] = system.B.toarray()
    K[:nv, nv:] = system.B.toarray().T
    rhs = np.concatenate([system.F, system.G])
    return K, rhs


@pytest.fixture(scope="module")
def regular_system():
    # k=8 with n=64 sites: one per element, comfortably full rank
    return make_system(build_square_mesh(8), 64,
                       lambda x, y: np.ones_like(x), lambda x, y: x,
                       NoiseModel.gaussian(0.5), seed=3)


@pytest.fixture(scope="module")
def rank_deficient_system():
    # k=4 with one midpoint site per element: the alternating multiplier
    # vanishes at every site, so B B^T has an exact kernel
    return make_system(build_square_mesh(4), 16,
                       lambda x, y: np.zeros_like(x), lambda x, y: x)


class TestBasicSolves:
    def test_zero_rhs_gives_zero(self, regular_system, rank_deficient_system):
        for base in (regular_system, rank_deficient_system):
            system = type(base)(base.A, base.B, np.zeros_like(base.F),
                                np.zeros_like(base.G), base.points)
            sol = solve_saddle(system)
            assert np.abs(sol.u).max() <= 1e-12
            assert np.abs(sol.lam).max() <= 1e-12

    def test_constant_data_reproduced(self):
        system = make_system(build_square_mesh(8), 64,
                             lambda x, y: np.zeros_like(x), lambda x, y: 3.7)
        sol = solve_saddle(system)
        np.testing.assert_allclose(sol.u, 3.7, atol=1e-9)
        np.testing.assert_allclose(sol.lam, 0.0, atol=1e-9)

    def test_solution_metadata(self, regular_system):
        sol = solve_saddle(regular_system)
        assert sol.residual_primal <= 1e-10
        assert sol.residual_constraint <= 1e-10

    def test_linearity(self, regular_system):
        base = solve_saddle(regular_system)
        scaled = type(regular_system)(
            regular_system.A, regular_system.B,
            2.0 * regular_system.F, 2.0 * regular_system.G, regular_system.points)
        sol = solve_saddle(scaled)
        np.testing.assert_allclose(sol.u, 2.0 * base.u, rtol=1e-12, atol=1e-13)


class TestDenseOracle:
    def test_regular_system_matches_dense_solve(self, regular_system):
        K, rhs = dense_blocks(regular_system)
        x = np.linalg.solve(K, rhs)
        sol = solve_saddle(regular_system)
        nv = regular_system.n_field
        np.testing.assert_allclose(sol.u, x[:nv], atol=1e-12)
        np.testing.assert_allclose(sol.lam, x[nv:], atol=1e-12)

    def test_singular_system_matches_min_norm_solve(self, rank_deficient_system):
        # lstsq picks the minimum-norm multiplier; u is unique anyway and
        # the solver's kernel projection reproduces the same lambda
        K, rhs = dense_blocks(rank_deficient_system)
        x, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        sol = solve_saddle(rank_deficient_system)
        nv = rank_deficient_system.n_field
        np.testing.assert_allclose(sol.u, x[:nv], atol=1e-8)
        np.testing.assert_allclose(sol.lam, x[nv:], atol=1e-8)


class TestSingularHandling:
    def test_consistent_singular_system_solves(self, rank_deficient_system):
        # B drops rank but G stays in range(B): still solvable, and the
        # returned multiplier must be the canonical representative
        sol = solve_saddle(rank_deficient_system)
        assert sol.residual_primal <= 1e-10
        assert sol.residual_constraint <= 1e-10

    def test_inconsistent_data_raises_with_guidance(self, rank_deficient_system):
        # push G out of range(B): no field can satisfy the constraint
        gram = (rank_deficient_system.B @ rank_deficient_system.B.T).toarray()
        evals, evecs = np.linalg.eigh(gram)
        assert evals[0] <= 1e-12 * evals[-1]
        bad_G = rank_deficient_system.G + evecs[:, 0]
        system = type(rank_deficient_system)(
            rank_deficient_system.A, rank_deficient_system.B,
            rank_deficient_system.F, bad_G, rank_deficient_system.points)
        with pytest.raises(SingularSystemError) as err:
            solve_saddle(system)
        assert "observation sites" in str(err.value)
        assert err.value.estimate == pytest.approx(0.0, abs=1e-8)
        # the cause: a one-dimensional kernel holding a unit part of G
        assert "ker(B^T) has dimension 1" in str(err.value)
        assert "norm 1.00e+00" in str(err.value)

    def test_multiplier_orthogonal_to_kernel(self, rank_deficient_system):
        gram = (rank_deficient_system.B @ rank_deficient_system.B.T).toarray()
        evals, evecs = np.linalg.eigh(gram)
        kernel = evecs[:, evals <= 1e-12 * evals[-1]]
        sol = solve_saddle(rank_deficient_system)
        assert np.abs(kernel.T @ sol.lam).max() <= 1e-10


class TestScaleRobustness:
    def test_large_conditioned_rhs(self):
        # amplitudes around 1e4 must not break the residual contract
        system = make_system(build_square_mesh(8), 64,
                             lambda x, y: 1e4 * np.ones_like(x),
                             lambda x, y: 1e4 * x)
        sol = solve_saddle(system)
        assert sol.residual_primal <= 1e-10
        assert sol.residual_constraint <= 1e-10

    def test_sparse_inputs_untouched(self, regular_system):
        A0 = regular_system.A.copy()
        G0 = regular_system.G.copy()
        solve_saddle(regular_system)
        assert abs(regular_system.A - A0).max() == 0.0
        np.testing.assert_array_equal(regular_system.G, G0)
        assert sp.issparse(regular_system.A)


@pytest.fixture
def saddle_splu_calls(monkeypatch):
    """Shapes of the matrices passed to splu while the test runs."""
    calls = []
    real = spla.splu

    def counting(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


class TestFactorizationReuse:
    def test_trial_data_share_one_factorization(self, regular_system, saddle_splu_calls):
        base = dataclasses.replace(regular_system)  # a copy holds no factorization yet
        for scale in (1.0, -2.0, 0.5):
            K, rhs = dense_blocks(dataclasses.replace(base, G=scale * base.G))
            sol = solve_saddle(base, G=scale * base.G)
            np.testing.assert_allclose(sol.u, np.linalg.solve(K, rhs)[:base.n_field], atol=1e-12)
        assert len(saddle_splu_calls) == 1

    @pytest.mark.parametrize("case", ["full rank", "rank-deficient level"])
    def test_given_data_solve_as_a_system_holding_them(self, regular_system, case):
        if case == "full rank":
            clean, data = regular_system, [scale * regular_system.G for scale in (1.0, -2.0, 0.5)]
        else:  # disk k=20, i=1: empty rows of B and a kernel, so the range-restricted path
            level = Level("disk", 20, i=1)
            clean = level.clean
            data = [noisy_data_vector(level, NoiseModel.mixture(1.0, 10.0, 0.5), seed) for seed in range(3)]
        for G in data:
            held = solve_saddle(dataclasses.replace(clean, G=G))
            for sol in (solve_saddle(clean, G=G), solve_saddle(clean, G=list(G))):
                for name in ("u", "lam", "residual_primal", "residual_constraint"):
                    assert np.array_equal(getattr(sol, name), getattr(held, name)), name

    def test_changed_blocks_are_factored_anew(self, regular_system, saddle_splu_calls):
        base = dataclasses.replace(regular_system)
        solve_saddle(base)
        stiffer = dataclasses.replace(base, A=2.0 * base.A)
        K, rhs = dense_blocks(stiffer)
        sol = solve_saddle(stiffer)
        np.testing.assert_allclose(sol.u, np.linalg.solve(K, rhs)[:stiffer.n_field], atol=1e-12)
        assert len(saddle_splu_calls) == 2
        assert base.factorization.lu is not stiffer.factorization.lu

    def test_other_coupling_solves_with_its_own_transpose(self, regular_system):
        base = dataclasses.replace(regular_system)
        solve_saddle(base)
        other = dataclasses.replace(base, B=2.0 * base.B)
        sol = solve_saddle(other)
        rp = residual_norm(other.A @ sol.u + other.B.T @ sol.lam - other.F)
        assert sol.residual_primal == rp / max(1.0, residual_norm(other.F))

    def test_blocks_and_data_cannot_be_assigned(self, regular_system):
        for name in ("A", "B", "F", "G", "points"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(regular_system, name, getattr(regular_system, name))


class TestRankDeficientLevel:
    # disk k=20 with i=1 observes 20 sites against 126 multiplier dofs,
    # so ker(B^T) is large and every trial takes the range-restricted LU
    MODEL = NoiseModel.mixture(1.0, 10.0, 0.5)

    def test_trials_match_min_norm_oracle(self):
        level = Level("disk", 20, i=1)
        clean, nv = level.clean, level.clean.n_field
        K, _ = dense_blocks(clean)
        gram = (clean.B @ clean.B.T).toarray()
        evals, evecs = np.linalg.eigh(gram)
        kernel = evecs[:, evals <= 1e-12 * evals[-1]]
        assert kernel.shape[1] > 0
        systems = [dataclasses.replace(clean, G=noisy_data_vector(level, self.MODEL, s)) for s in range(3)]
        rhs = np.column_stack([np.concatenate([s.F, s.G]) for s in systems])
        x, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        for j, system in enumerate(systems):
            sol = solve_saddle(system)
            np.testing.assert_allclose(sol.u, x[:nv, j], atol=1e-8)
            np.testing.assert_allclose(sol.lam, x[nv:, j], atol=1e-8)
            assert np.abs(kernel.T @ sol.lam).max() <= 1e-10

    def test_one_factorization_per_level(self, saddle_splu_calls):
        level = Level("disk", 20, i=1)
        rank = np.linalg.matrix_rank(level.clean.B.toarray())
        assert rank < level.clean.n_multiplier
        for seed in range(3):
            level.trials(self.MODEL, [seed])
        size = level.clean.n_field + rank
        assert saddle_splu_calls == [(size, size)]


class TestNonFiniteData:
    @pytest.mark.parametrize("name", ["F", "G"])
    def test_rejected_before_factoring(self, regular_system, name, saddle_splu_calls):
        bad = getattr(regular_system, name).copy()
        bad[3] = np.nan
        held, fresh = dataclasses.replace(regular_system, **{name: bad}), dataclasses.replace(regular_system)
        with pytest.raises(ValueError, match=rf"{name} is not finite at entry 3"):
            solve_saddle(held)
        if name == "G":  # or given to the solve
            with pytest.raises(ValueError, match=r"G is not finite at entry 3"):
                solve_saddle(fresh, G=bad)
        assert not saddle_splu_calls and "factorization" not in vars(held) | vars(fresh)


class TestMisshapenData:
    @pytest.mark.parametrize("name", ["F", "G"])
    @pytest.mark.parametrize("shape", [lambda size: (3,), lambda size: (size, 1)], ids=["short", "column"])
    def test_rejected_naming_the_block_and_both_shapes(self, name, shape, saddle_splu_calls):
        clean = Level("square", 4, i=2).clean
        size = {"F": clean.n_field, "G": clean.n_multiplier}[name]
        bad = np.zeros(shape(size))
        message = rf"^saddle system data {name} has shape {re.escape(str(bad.shape))}, the system needs \({size},\)$"
        with pytest.raises(ValueError, match=message):
            solve_saddle(dataclasses.replace(clean, **{name: bad}))
        if name == "G":
            with pytest.raises(ValueError, match=message):
                solve_saddle(clean, G=bad)
        assert not saddle_splu_calls and "factorization" not in vars(clean)


class TestPoints:
    def test_misshapen_or_non_finite_points_rejected_before_factoring(self, regular_system, saddle_splu_calls):
        nv, points = regular_system.n_field, regular_system.points
        short = dataclasses.replace(regular_system, points=points[:-1])
        with pytest.raises(ValueError, match=rf"^saddle system data points has shape \({nv - 1}, 2\), "
                                             rf"the system needs \({nv}, 2\)$"):
            solve_saddle(short)
        bad = points.copy()
        bad[3, 1] = np.nan
        system = dataclasses.replace(regular_system, points=bad)
        with pytest.raises(ValueError, match=r"^saddle system data points is not finite at entry 7$"):
            solve_saddle(system)
        assert not saddle_splu_calls


def dense_kernel_solve(system):
    """(N, u, lam): a basis of ker(B^T) from a dense eigh of the whole
    B B^T, and the saddle solve with the multiplier restricted to its
    complement, by the same LU as the solver, in the solver's order."""
    w, v = np.linalg.eigh((system.B @ system.B.T).toarray())
    kept = w > max(w[-1], 1.0) * 1e-12
    Q = None if kept.all() else v[:, kept]
    order = dissection_order(system.points, system.A)
    B = (system.B if Q is None else sp.csr_matrix(Q.T) @ system.B)[:, order]
    lu = spla.splu(sp.bmat([[system.A[order][:, order], B.T], [B, None]], format="csc"), permc_spec="NATURAL")
    x = lu.solve(np.concatenate([system.F[order], system.G if Q is None else Q.T @ system.G]))
    nv = system.n_field
    u = np.empty(nv)
    u[order] = x[:nv]
    return v[:, ~kept], u, x[nv:] if Q is None else Q @ x[nv:]


def noisy_level_system(domain, k, i=None, n=None):
    level = Level(domain, k, i=i, n=n)
    return dataclasses.replace(level.clean, G=noisy_data_vector(level, NoiseModel.mixture(1.0, 10.0, 0.5), 4))


class TestCoupledRowKernel:
    # disk i=1 and square k=10 with 7 sites leave rows of B empty; the
    # rank-deficient square fixture couples every row but still has a kernel
    @pytest.mark.parametrize("case", ["disk-10", "disk-20", "disk-40", "square-10-n7", "fixture"])
    def test_matches_dense_eigensolve(self, case, rank_deficient_system):
        if case == "fixture":
            system = rank_deficient_system
        elif case.startswith("disk"):
            system = noisy_level_system("disk", int(case[5:]), i=1)
        else:
            system = noisy_level_system("square", 10, n=7)
        N, u, lam = dense_kernel_solve(system)
        assert N.shape[1] > 0
        sol = solve_saddle(dataclasses.replace(system))
        assert np.abs(sol.u - u).max() <= 1e-12 * np.abs(u).max()
        assert np.abs(sol.lam - lam).max() <= 1e-12 * np.abs(lam).max()
        assert np.abs(N.T @ sol.lam).max() <= 1e-12 * np.abs(sol.lam).max()
        # data pushed along a kernel vector are rejected, naming the same dimension
        with pytest.raises(SingularSystemError, match=rf"ker\(B\^T\) has dimension {N.shape[1]} and "
                                                      r"the data G have a component of norm 1\.00e\+00"):
            solve_saddle(system, G=system.G + N[:, 0])

    @pytest.mark.parametrize("domain, k, i", [("disk", 10, 2), ("square", 10, 2)])
    def test_full_rank_level_is_bit_identical(self, domain, k, i):
        system = noisy_level_system(domain, k, i=i)
        assert (np.diff(system.B.indptr) > 0).all()
        N, u, lam = dense_kernel_solve(system)
        assert N.shape[1] == 0
        sol = solve_saddle(system)
        assert np.array_equal(sol.u, u) and np.array_equal(sol.lam, lam)


class TestDissectionOrder:
    @pytest.mark.parametrize("domain, k", [("square", 2), ("disk", 2), ("disk", 10), ("disk", 20), ("disk", 40),
                                           ("disk", 80), ("square", 10), ("square", 20), ("square", 40)])
    def test_is_a_permutation(self, domain, k):
        # the smallest meshes and the benchmark's disk and square levels
        mesh = build_mesh(domain, k)
        order = dissection_order(mesh.vertices, assemble_stiffness(mesh))
        assert np.array_equal(np.sort(order), np.arange(len(mesh.vertices)))

    def test_is_a_permutation_of_a_mesh_read_back(self, tmp_path):
        path = str(tmp_path / "disk.txt")
        write_mesh_text(build_disk_mesh(12), path)
        mesh = read_mesh_text(path)
        order = dissection_order(mesh.vertices, assemble_stiffness(mesh))
        assert np.array_equal(np.sort(order), np.arange(len(mesh.vertices)))

    def test_is_the_same_on_a_rerun(self):
        first, again = build_disk_mesh(40), build_disk_mesh(40)
        order = dissection_order(first.vertices, assemble_stiffness(first))
        assert np.array_equal(order, dissection_order(again.vertices, assemble_stiffness(again)))
        assert not np.array_equal(order, np.arange(len(order)))

    def test_fills_less_than_a_default_splu(self):
        # disk k=40, i=1: counts of the nonzeros of L + U, not times
        clean = Level("disk", 40, i=1).clean
        solve_saddle(clean)
        lu, coupled, Q = clean.factorization.lu, clean.factorization.coupled, clean.factorization.Q
        B = sp.csr_matrix(Q.T) @ clean.B[coupled]
        default = spla.splu(sp.bmat([[clean.A, B.T], [B, None]], format="csc"))
        assert lu.shape == default.shape
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz

    @pytest.mark.parametrize("domain, k", [("square", 2), ("disk", 2), ("disk", 13), ("disk", 80), ("square", 40),
                                           ("square", 33)])
    def test_equals_the_order_of_shift_passes(self, domain, k):
        mesh = build_mesh(domain, k)
        A = assemble_stiffness(mesh)
        assert np.array_equal(dissection_order(mesh.vertices, A), shift_pass_order(mesh.vertices, A))


def shift_pass_order(points, A):
    """dissection_order as first written: the Morton code built one bit
    pair at a time, and each edge's highest differing bit counted by one
    shift pass per bit."""
    nv = len(points)
    half = -(-((nv - 1) // 64).bit_length() // 2)
    D = 2 * half
    lo, span = points.min(axis=0), np.ptp(points, axis=0)
    cells = (points - lo) / np.where(span > 0, span, 1.0) * (1 << half)
    cells = np.minimum(cells, (1 << half) - 1).astype(np.int64)
    code = np.zeros(nv, dtype=np.int64)
    for b in range(half - 1, -1, -1):
        code = code << 2 | (cells[:, 0] >> b & 1) << 1 | cells[:, 1] >> b & 1
    rows = np.repeat(np.arange(nv), np.diff(A.indptr))
    differ = code[rows] ^ code[A.indices]
    rows, differ = rows[differ > 0], differ[differ > 0]
    top = np.zeros(len(differ), dtype=np.int64)
    for b in range(1, D):
        top += differ >> b > 0
    cut = code[rows] >> top & 1 == 0
    depth = np.full(nv, D)
    np.minimum.at(depth, rows[cut], D - 1 - top[cut])
    key = np.zeros(nv, dtype=np.int64)
    for j in range(D + 1):
        key = 3 * key + np.where(j < depth, code >> max(D - 1 - j, 0) & 1, 2 * (j == depth))
    return np.argsort(key, kind="stable")


class TestSaddleMatrix:
    @pytest.mark.parametrize("domain, k, i, n", [("disk", 40, 1, None), ("disk", 10, None, 17),
                                                 ("square", 10, 2, None), ("square", 2, None, 600_000)])
    def test_is_the_matrix_bmat_builds(self, monkeypatch, domain, k, i, n):
        # the rank-deficient disks (B~ = Q^T B) and full-rank squares (B~ = B)
        clean = Level(domain, k, i, n).clean
        factor, matrices = spla.splu, []
        monkeypatch.setattr(spla, "splu", lambda K, **options: matrices.append(K) or factor(K, **options))
        solve_saddle(clean)
        coupled, _, Q, _, order, _, _ = clean.factorization
        B = (clean.B if Q is None else sp.csr_matrix(Q.T) @ clean.B[coupled])[:, order]
        expected = sp.bmat([[clean.A[order][:, order], B.T], [B, None]], format="csc")
        [K] = matrices
        assert K.format == "csc" and K.shape == expected.shape
        for attr in ("indptr", "indices", "data"):
            got, want = getattr(K, attr), getattr(expected, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want), attr
