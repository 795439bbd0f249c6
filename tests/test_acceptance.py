"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible without -s) and then
asserts, so a failing run still reports every criterion it reached.
The heavy convergence studies run once in module-scoped fixtures; the
full module takes about two minutes.
"""

import math
import time

import numpy as np
import pytest

from obsfem import (
    Level,
    NoiseModel,
    SaddleSystem,
    assemble_coupling_matrix,
    assemble_data_vector,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    estimate_rates,
    observe,
    place_points,
    quadrature_weights,
    run_study,
    solve_saddle,
    tail_study,
)

from norms import boundary_mass, empirical_norm, multiplier_at_sites, vh_gram

KS = [10, 20, 40, 80]
SEED = 7
TRIALS = 10
SQUARE_NOISE = NoiseModel.gaussian(math.sqrt(2.0))
DISK_NOISE = NoiseModel.mixture(1.0, 10.0, 0.5)

# Published endpoint rates: i -> (h1_rate, l2_rate); None = not cited.
SQUARE_RATES = {
    4: (-0.9721, -1.9656),
    3: (-0.5464, -1.6649),
    2: (-0.0170, -1.0037),
    1: (+0.4866, -0.5043),
}
DISK_RATES = {
    4: (-0.9950, -1.9790),
    2: (None, -0.9787),
    1: (None, -0.4804),
}
RATE_TOL = 0.25


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def endpoint_rates(table):
    hs = table.hs
    h1 = estimate_rates(hs, [r.h1_mean for r in table.rows]).endpoint
    l2 = estimate_rates(hs, [r.l2_mean for r in table.rows]).endpoint
    return h1, l2


@pytest.fixture(scope="module")
def square_suite():
    t0 = time.perf_counter()
    tables = {
        i: run_study("square", KS, i=i, model=SQUARE_NOISE,
                     trials=TRIALS, seed=SEED)
        for i in (1, 2, 3, 4)
    }
    return tables, time.perf_counter() - t0


@pytest.fixture(scope="module")
def disk_suite():
    return {
        i: run_study("disk", KS, i=i, model=DISK_NOISE,
                     trials=TRIALS, seed=SEED)
        for i in (1, 2, 4)
    }


@pytest.fixture(scope="module")
def zero_noise_table():
    return run_study("square", KS, i=2, model=None, trials=1, seed=0)


@pytest.fixture(scope="module")
def tail_report():
    return tail_study("square", 20, i=2, model=SQUARE_NOISE,
                      trials=200, seed=0)


def test_criterion_1_square_rates(square_suite, capsys):
    tables, elapsed = square_suite
    diffs = {}
    for i, (alpha, beta) in SQUARE_RATES.items():
        h1, l2 = endpoint_rates(tables[i])
        diffs[f"i={i} H1"] = h1 - alpha
        diffs[f"i={i} L2"] = l2 - beta
    worst = max(diffs, key=lambda k: abs(diffs[k]))
    ok = all(abs(d) <= RATE_TOL for d in diffs.values()) and elapsed < 900
    announce(capsys, 1, ok,
             f"8 square endpoint rates within {RATE_TOL} of published "
             f"(worst {worst} off by {diffs[worst]:+.3f}); "
             f"study took {elapsed:.0f}s (< 900s)")
    for name, d in diffs.items():
        assert abs(d) <= RATE_TOL, f"{name} off by {d:+.3f}"
    assert elapsed < 900


def test_criterion_2_square_magnitudes(square_suite, capsys):
    tables, _ = square_suite
    rows = tables[4].rows
    coarse, fine = rows[0].l2_mean, rows[-1].l2_mean
    r1, r2 = coarse / 0.0380, fine / 6.3816e-4
    ok = 0.5 <= r1 <= 2.0 and 0.5 <= r2 <= 2.0
    announce(capsys, 2, ok,
             f"dense-sampling L2 magnitudes within factor 2 of published: "
             f"h=0.1 gives {coarse:.4g} ({r1:.2f}x of 0.0380), "
             f"h=0.0125 gives {fine:.4g} ({r2:.2f}x of 6.3816e-4)")
    assert 0.5 <= r1 <= 2.0
    assert 0.5 <= r2 <= 2.0


def test_criterion_3_disk_rates(disk_suite, capsys):
    diffs = {}
    for i, (alpha, beta) in DISK_RATES.items():
        h1, l2 = endpoint_rates(disk_suite[i])
        if alpha is not None:
            diffs[f"i={i} H1"] = h1 - alpha
        diffs[f"i={i} L2"] = l2 - beta
    worst = max(diffs, key=lambda k: abs(diffs[k]))
    ok = all(abs(d) <= RATE_TOL for d in diffs.values())
    announce(capsys, 3, ok,
             f"disk endpoint rates within {RATE_TOL} of published "
             f"(worst {worst} off by {diffs[worst]:+.3f})")
    for name, d in diffs.items():
        assert abs(d) <= RATE_TOL, f"{name} off by {d:+.3f}"


def test_criterion_4_zero_noise_rates(zero_noise_table, capsys):
    h1, l2 = endpoint_rates(zero_noise_table)
    ok = l2 <= -1.8 and h1 <= -0.9
    announce(capsys, 4, ok,
             f"noise-free convergence: L2 endpoint {l2:.3f} (<= -1.8), "
             f"H1 endpoint {h1:.3f} (<= -0.9)")
    assert l2 <= -1.8
    assert h1 <= -0.9


def test_criterion_5_quadrature_properties(square10, disk10, capsys):
    rng = np.random.default_rng(20240817)
    worst_sum = worst_identity = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 40))
        t = np.unique(rng.uniform(1e-3, 1.0 - 1e-3, size=m))
        if np.any(np.diff(t) < 1e-9):
            continue
        w = quadrature_weights(t)
        worst_sum = max(worst_sum, abs(w.sum() - 1.0))
        # one-sided rule vs trapezoid on w(s) = s: the closures of the
        # two end intervals account exactly for the difference
        q = float(np.sum(w * t))
        nodes = np.concatenate([[0.0], t, [1.0]])
        trap = float(np.sum(np.diff(nodes) * (nodes[1:] + nodes[:-1]) / 2.0))  # numpy 1.x has no trapezoid
        corr = 0.5 * (t[0] - 0.0) * (t[0] - 0.0) + 0.5 * (1.0 - t[-1]) * (t[-1] - 1.0)
        worst_identity = max(worst_identity, abs((q - trap) - corr))
    alpha_errs = {}
    for mesh, total, label in ((square10, 4.0, "square"),
                               (disk10, 2 * math.pi, "disk")):
        pl = place_points(mesh, 777)
        alpha_errs[label] = abs(pl.window(0, pl.n).alpha.sum() - total)
    ok = (worst_sum <= 1e-14 and worst_identity <= 1e-14
          and all(v <= 1e-10 for v in alpha_errs.values()))
    announce(capsys, 5, ok,
             f"weights sum to 1 within {worst_sum:.1e} (1000 configs), "
             f"trapezoid identity within {worst_identity:.1e}, "
             f"site weights reproduce the boundary length within "
             f"{max(alpha_errs.values()):.1e} on both domains")
    assert worst_sum <= 1e-14
    assert worst_identity <= 1e-14
    assert all(v <= 1e-10 for v in alpha_errs.values())


def test_criterion_6_norm_equivalence(capsys):
    rng = np.random.default_rng(20240817)
    lo, hi = np.inf, -np.inf
    for domain in ("square", "disk"):
        for k in KS:
            mesh = build_mesh(domain, k)
            pl = place_points(mesh, k * k)
            M1 = boundary_mass(mesh, power=1)
            for _ in range(100):
                mu = rng.standard_normal(len(mesh.boundary))
                num = empirical_norm(pl.window(0, pl.n).alpha, multiplier_at_sites(mu, pl))
                den = math.sqrt(mu @ (M1 @ mu))
                ratio = num / den
                lo, hi = min(lo, ratio), max(hi, ratio)
    ok = 0.5 <= lo and hi <= 2.0
    announce(capsys, 6, ok,
             f"empirical/L2 multiplier norm ratio in [{lo:.4f}, {hi:.4f}] "
             f"over 100 random multipliers x 8 meshes (n = k^2), "
             f"inside [0.5, 2.0]")
    assert lo >= 0.5
    assert hi <= 2.0


def scaled_min_singular_value(k):
    mesh = build_mesh("square", k)
    B = assemble_coupling_matrix(place_points(mesh, k * k)).toarray()
    dq = boundary_mass(mesh, power=2).diagonal()
    dv = vh_gram(mesh).diagonal()
    S = B / np.sqrt(dq)[:, None] / np.sqrt(dv)[None, :]
    return float(np.linalg.svd(S, compute_uv=False).min())


def test_criterion_7_inf_sup_stability(capsys):
    s4 = scaled_min_singular_value(4)
    s8 = scaled_min_singular_value(8)
    s16 = scaled_min_singular_value(16)
    # k=4 with one midpoint site per element is exactly rank-deficient
    # (the alternating multiplier vanishes at every site), so the 4->16
    # comparison is vacuous; the 8->16 leg carries the actual content
    ok = s16 >= 0.8 * s4 and s16 >= 0.8 * s8
    announce(capsys, 7, ok,
             f"scaled smallest singular value of the coupling: "
             f"sigma(4)={s4:.2e} (degenerate placement, see ledger), "
             f"sigma(8)={s8:.4f}, sigma(16)={s16:.4f}; "
             f"refinement 8->16 changes it by "
             f"{100 * (s16 - s8) / s8:+.1f}% (>= -20% required)")
    assert s16 >= 0.8 * s4
    assert s16 >= 0.8 * s8


def test_criterion_8_exactness(square_suite, disk_suite, zero_noise_table,
                               capsys):
    c = 3.7
    worst_u = worst_lam = 0.0
    for domain in ("square", "disk"):
        mesh = build_mesh(domain, 8)
        obs = observe(place_points(mesh, 64), lambda x, y: c, None, 0)
        system = SaddleSystem(assemble_stiffness(mesh), assemble_coupling_matrix(obs.placement),
                              assemble_load(mesh, lambda x, y: 0.0), assemble_data_vector(obs), mesh.vertices)
        sol = solve_saddle(system)
        worst_u = max(worst_u, float(np.abs(sol.u - c).max()))
        worst_lam = max(worst_lam, float(np.abs(sol.lam).max()))
        zero = type(system)(system.A, system.B, np.zeros_like(system.F),
                            np.zeros_like(system.G), system.points)
        zsol = solve_saddle(zero)
        assert np.abs(zsol.u).max() <= 1e-12
        assert np.abs(zsol.lam).max() <= 1e-12

    tables, _ = square_suite
    residual = 0.0
    for table in (*tables.values(), *disk_suite.values(), zero_noise_table):
        residual = max(residual, max(r.max_residual for r in table.rows))
    ok = worst_u <= 1e-9 and worst_lam <= 1e-9 and residual <= 1e-10
    announce(capsys, 8, ok,
             f"constants reproduce within {worst_u:.1e} (field) and "
             f"{worst_lam:.1e} (multiplier); zero data gives zero; "
             f"max solver residual over all study runs {residual:.1e} "
             f"(<= 1e-10)")
    assert worst_u <= 1e-9
    assert worst_lam <= 1e-9
    assert residual <= 1e-10


def test_criterion_9_tail_concentration(tail_report, capsys):
    rep = tail_report
    spread = rep.p99 / rep.median
    ok = (not rep.degenerate and rep.fit_b > 0 and rep.r2 >= 0.9
          and spread <= 5.0)
    announce(capsys, 9, ok,
             f"error tail at (square, h=0.05, n=h^-2, 200 trials): "
             f"log-survival slope b={rep.fit_b:.2f} (> 0), "
             f"R^2={rep.r2:.3f} (>= 0.9), p99/median={spread:.2f} (<= 5)")
    assert not rep.degenerate
    assert rep.fit_b > 0
    assert rep.r2 >= 0.9
    assert spread <= 5.0


def test_criterion_10_oracle_equivalence(capsys):
    level = Level("square", 4, n=16)
    mesh, system = level.mesh, level.clean
    nv, nq = system.n_field, system.n_multiplier
    K = np.zeros((nv + nq, nv + nq))
    K[:nv, :nv] = system.A.toarray()
    K[nv:, :nv] = system.B.toarray()
    K[:nv, nv:] = system.B.toarray().T
    rhs = np.concatenate([system.F, system.G])
    # n = h^-2 places one site per boundary element and the coupling
    # drops rank, so the dense reference is the minimum-norm solve
    ref, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    sol = solve_saddle(system)
    solve_diff = float(np.abs(np.concatenate([sol.u, sol.lam]) - ref).max())

    pl = place_points(mesh, 64)
    B = assemble_coupling_matrix(pl).toarray()
    dense = np.zeros_like(B)
    nq = len(mesh.boundary)
    ts, alphas = pl.window(0, pl.n)[4:]
    for e in range(nq):
        q0, q1 = e, (e + 1) % nq
        v0, v1 = mesh.boundary.v0[e], mesh.boundary.v1[e]
        for j in range(pl.offsets[e], pl.offsets[e + 1]):
            t, a = ts[j], alphas[j]
            for qd, psi in ((q0, 1.0 - t), (q1, t)):
                dense[qd, v0] += a * psi * (1.0 - t)
                dense[qd, v1] += a * psi * t
    b_diff = float(np.abs(B - dense).max())

    ok = solve_diff <= 1e-8 and b_diff <= 1e-13
    announce(capsys, 10, ok,
             f"sparse saddle solve matches the dense reference within "
             f"{solve_diff:.1e} (<= 1e-8); streamed coupling assembly "
             f"matches the brute-force formula within {b_diff:.1e} "
             f"(<= 1e-13)")
    assert solve_diff <= 1e-8
    assert b_diff <= 1e-13
