import dataclasses
import functools
import math
import mmap
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsfem import (
    Boundary,
    NoiseModel,
    TriMesh,
    build_disk_mesh,
    assemble_coupling_matrix,
    boundary_point,
    build_square_mesh,
    observe,
    place_points,
    quadrature_weights,
    sample_noise,
)
from obsfem import observations
from obsfem.observations import _NoiseStream

from norms import empirical_norm


def whole_array_placement(mesh, n):
    """(t, offsets, nudged, alpha) of `place_points` in one pass over all n
    sites, each site located by its own search."""
    h = mesh.boundary.length
    starts = np.concatenate([[0.0], np.cumsum(h)])
    spacing = float(h.sum()) / n
    nb = len(h)

    def locate(s):
        e = np.minimum(np.searchsorted(starts, s, side="right") - 1, nb - 1)
        return e, (s - starts[e]) / h[e]

    s = (np.arange(n, dtype=float) + 0.5) * spacing
    e, t = locate(s)
    near = (t * h[e] < 1e-12) | ((1.0 - t) * h[e] < 1e-12)
    if near.any():
        e, t = locate(s + near * (1e-9 * spacing))
        t = np.clip(t, 1e-15, 1.0 - 1e-15)
    counts = np.bincount(e, minlength=nb)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # half of each gap to a neighbour; an element's ends close its gaps
    half = 0.5 * np.diff(t, prepend=0.0, append=1.0)
    left, right = half[:-1].copy(), half[1:].copy()
    first, last = offsets[:-1][counts > 0], offsets[1:][counts > 0] - 1
    left[first] = t[first]
    right[last] = 1.0 - t[last]
    omega = left + right
    omega[first[first == last]] = 1.0
    return t, offsets, near, omega * h[e]


def buffer_of(a):
    """The object at the end of an array's chain of bases: an array views
    another array, a frombuffer array a memoryview of its buffer."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.base if isinstance(a, np.ndarray) else a.obj
    return a


def arclengths(pl):
    """Global arclength coordinate of every site: its element's start plus t h."""
    counts = np.diff(pl.offsets)
    return np.repeat(pl.mesh.boundary.starts[:-1], counts) + pl.window(0, pl.n).t * np.repeat(pl.mesh.boundary.length, counts)


@functools.lru_cache(maxsize=None)
def mesh_of(domain, k):
    return build_square_mesh(k) if domain == "square" else build_disk_mesh(k)


def assert_matches_whole_array_placement(mesh, n):
    """`place_points` against :func:`whole_array_placement`, bit for bit,
    its record of the nudged sites included; returns the oracle's nudged
    flags."""
    pl = place_points(mesh, n)
    t, offsets, nudged, alpha = whole_array_placement(mesh, n)
    assert np.array_equal(pl.nudged, np.flatnonzero(nudged))
    assert np.array_equal(pl.offsets, offsets)
    assert np.array_equal(pl.window(0, n).t, t)
    assert np.array_equal(pl.window(0, n).alpha, alpha)
    # range reads, and the windows of a pass, keep the bits of the whole pass
    for lo, hi in ((n // 3, n // 3 + 1000), (2 ** 16 - 3, 2 ** 16 + 3), (n - 1, n), (n, n)):
        lo, hi = min(max(lo, 0), n), min(max(hi, 0), n)
        w = pl.window(lo, hi)
        assert np.array_equal(w.t, t[lo:hi]) and np.array_equal(w.alpha, alpha[lo:hi])
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    for w, _ in pl.windows():
        assert np.array_equal(np.repeat(w.owners, w.counts), owner[w.lo : w.hi])
        assert np.array_equal(w.t, t[w.lo : w.hi]) and np.array_equal(w.alpha, alpha[w.lo : w.hi])
    return nudged


@functools.lru_cache(maxsize=None)
def pass_of(domain, k, n):
    """(placement, clean set, per-site arrays) of one `windows()` pass,
    each window copied out before the next overwrites it: t, alpha, the
    owning element, the positions and the clean set's values."""
    pl = place_points(mesh_of(domain, k), n)
    obs = observe(pl, lambda x, y: np.sin(5.0 * x + 1.0) * np.sin(5.0 * y + 1.0), None, 0)
    parts = [(w.t.copy(), w.alpha.copy(), np.repeat(w.owners, w.counts), pl.positions(w), obs.values(w, work).copy())
             for w, work in pl.windows()]
    return pl, obs, [np.concatenate(a) for a in zip(*parts)]


def trapezoid_on_partition(t, w_at_t, w0, w1):
    """Composite trapezoid over the partition {0, t_1..t_m, 1}.

    Reference rule for the one-sided weight construction: the two rules
    differ only in how the end intervals [0,t_1] and [t_m,1] are closed.
    """
    nodes = np.concatenate([[0.0], t, [1.0]])
    vals = np.concatenate([[w0], w_at_t, [w1]])
    return float(np.sum(np.diff(nodes) * (vals[1:] + vals[:-1]) / 2.0))  # numpy 1.x has no trapezoid


class TestQuadratureWeights:
    def test_two_point_thirds(self):
        w = quadrature_weights(np.array([1 / 3, 2 / 3]))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_single_point(self):
        np.testing.assert_allclose(quadrature_weights(np.array([0.5])), [1.0])

    def test_empty(self):
        assert quadrature_weights(np.array([])).size == 0

    def test_four_point_example(self):
        w = quadrature_weights(np.array([0.1, 0.2, 0.4, 0.9]))
        np.testing.assert_allclose(w, [0.15, 0.15, 0.35, 0.35], atol=1e-15)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            quadrature_weights(np.array([0.3, 0.3]))
        with pytest.raises(ValueError):
            quadrature_weights(np.array([0.5, 0.2]))

    def test_endpoint_params_rejected(self):
        with pytest.raises(ValueError):
            quadrature_weights(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            quadrature_weights(np.array([0.5, 1.0]))

    def test_trapezoid_identity_on_example(self):
        # Q(w) - T(w) = dt_1/2 (w(t_1) - w(0)) + dt_last/2 (w(t_m) - w(1))
        t = np.array([0.1, 0.2, 0.4, 0.9])
        omega = quadrature_weights(t)
        for wfun in (lambda s: s, lambda s: s ** 2, np.cos):
            q = float(np.sum(omega * wfun(t)))
            trap = trapezoid_on_partition(t, wfun(t), wfun(0.0), wfun(1.0))
            correction = 0.5 * 0.1 * (wfun(t[0]) - wfun(0.0)) \
                + 0.5 * 0.1 * (wfun(t[-1]) - wfun(1.0))
            assert abs((q - trap) - correction) <= 1e-14

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=30, unique=True))
    @settings(max_examples=300, deadline=None)
    def test_weights_sum_to_one(self, params):
        t = np.sort(np.asarray(params))
        if np.any(np.diff(t) < 1e-12):
            return
        w = quadrature_weights(t)
        assert abs(w.sum() - 1.0) <= 1e-14

    @given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=20, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_trapezoid_identity_random(self, params):
        t = np.sort(np.asarray(params))
        if np.any(np.diff(t) < 1e-12):
            return
        omega = quadrature_weights(t)
        wfun = lambda s: s  # noqa: E731
        q = float(np.sum(omega * t))
        trap = trapezoid_on_partition(t, t, 0.0, 1.0)
        d1 = t[0] - 0.0
        dlast = 1.0 - t[-1]
        correction = 0.5 * d1 * (t[0] - 0.0) + 0.5 * dlast * (t[-1] - 1.0)
        assert abs((q - trap) - correction) <= 1e-14

    def test_error_decay_first_order(self):
        # smooth non-symmetric integrand: rule error must decay at least O(1/n)
        exact = 2.0 / math.pi  # integral of sin(pi t) over [0, 1]
        errs = []
        for n in (4, 8, 16, 32, 64):
            t = (np.arange(n) + 0.5) / n
            w = quadrature_weights(t)
            errs.append(abs(np.sum(w * np.sin(math.pi * t)) - exact))
        errs = np.array(errs)
        assert (np.diff(errs) < 0).all()
        slope = np.polyfit(np.log([4, 8, 16, 32, 64]), np.log(errs), 1)[0]
        assert slope <= -1.0
        assert (errs * np.array([4, 8, 16, 32, 64])).max() < 1.0

    def test_odd_symmetry_exact(self):
        # sin(2 pi t) is odd around 1/2, and so is the weight layout
        t = (np.arange(16) + 0.5) / 16
        w = quadrature_weights(t)
        assert abs(np.sum(w * np.sin(2 * math.pi * t))) <= 1e-15


class TestPlacement:
    def test_one_site_per_element_centered(self):
        mesh = build_square_mesh(2)
        pl = place_points(mesh, 8)
        assert pl.n == 8
        np.testing.assert_array_equal(pl.offsets, np.arange(9))
        np.testing.assert_allclose(pl.window(0, 8).t, 0.5, atol=1e-12)

    def test_equal_counts_k10_n1000(self, square10):
        pl = place_points(square10, 1000)
        counts = np.diff(pl.offsets)
        assert (counts == 25).all()

    def test_brute_force_binning(self, square10):
        # independent binning: walk the cumulative element lengths per site
        n = 397
        pl = place_points(square10, n)
        lengths = square10.boundary.length
        starts = np.concatenate([[0.0], np.cumsum(lengths)])
        s = arclengths(pl)
        for idx in range(0, n, 41):
            e_found = int(np.searchsorted(starts, s[idx], side="right")) - 1
            sl_lo, sl_hi = pl.offsets[e_found], pl.offsets[e_found + 1]
            assert sl_lo <= idx < sl_hi

    def test_arclengths_half_offset(self):
        mesh = build_square_mesh(4)
        pl = place_points(mesh, 4)
        np.testing.assert_allclose(arclengths(pl), [0.5, 1.5, 2.5, 3.5], atol=1e-12)

    def test_endpoint_collision_nudged(self):
        # k=2 elements have length 0.5, so n=4 sites land exactly on vertices
        mesh = build_square_mesh(2)
        pl = place_points(mesh, 4)
        assert len(pl.nudged) == 4
        np.testing.assert_allclose(arclengths(pl), [0.5, 1.5, 2.5, 3.5], atol=1e-8)
        assert (pl.window(0, 4).t > 0).all() and (pl.window(0, 4).t < 1).all()

    @pytest.mark.parametrize("n, text", [(10 ** 5000, "<= 2\\^52, got a number"),
                                         (-10 ** 5000, ">= 1, got a negative number")], ids=["huge", "negative"])
    def test_a_count_too_long_to_print_is_named_by_its_digits(self, square10, n, text):
        # Python turns no integer of more than 4,300 digits into text
        with pytest.raises(ValueError, match=f"^need n {text} of 5001 digits$"):
            place_points(square10, n)

    def test_a_seed_too_long_to_print_is_named_by_its_digits(self, square10):
        with pytest.raises(ValueError, match="^seed must lie in \\[0, 2\\^64\\), got a number of 5001 digits$"):
            observe(place_points(square10, 4), None, None, 10 ** 5000)

    def test_no_nudge_when_clean(self, square10):
        # midpoint offsets (2j+1)/500 are never multiples of 0.1
        assert len(place_points(square10, 1000).nudged) == 0

    @pytest.mark.parametrize("n, match", [(10.5, "n must be an integer, got 10.5"), (10.0, "n must be an integer"),
                                          (0, "need n >= 1, got 0")])
    def test_site_count_must_be_a_positive_integer(self, square10, n, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            place_points(square10, n)
        assert place_points(square10, np.int64(10)).n == 10

    @pytest.mark.parametrize("domain, k", [("square", 2), ("disk", 10)])
    def test_up_to_2_to_the_52_sites_keep_t_increasing_inside_each_element(self, domain, k):
        # a site's t derives from i + 1/2, exact in floats only for i < 2^52
        pl = place_points(mesh_of(domain, k), 2 ** 52)
        for lo, hi in zip(pl.offsets[:-1], pl.offsets[1:]):
            for a, b in ((lo, lo + 2000), (hi - 2000, hi)):
                t = pl.window(a, b).t
                assert 0.0 < t[0] and t[-1] < 1.0 and (np.diff(t) > 0.0).all()
        with pytest.raises(ValueError, match=f"^need n <= 2\\^52, got {2 ** 52 + 1}$"):
            place_points(pl.mesh, 2 ** 52 + 1)

    def test_params_strictly_increasing_per_element(self, disk10):
        pl = place_points(disk10, 500)
        t = pl.window(0, pl.n).t
        for e in range(len(disk10.boundary)):
            te = t[pl.offsets[e]:pl.offsets[e + 1]]
            assert (np.diff(te) > 0).all()

    def test_positions_on_true_boundary(self, disk10):
        pl = place_points(disk10, 100)
        pts = pl.positions(pl.window(0, pl.n))
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-12)

    @pytest.mark.parametrize("domain, k, n", [
        ("disk", 10, 17),  # 63 elements: empty and single-site elements
        ("square", 4, 24),  # one or two sites per element
        ("square", 4, 2 ** 20 + 5000),  # elements straddle the 2^16 and 2^20 blocks
    ])
    def test_flat_weights_match_per_element_rule(self, domain, k, n):
        mesh = build_square_mesh(k) if domain == "square" else build_disk_mesh(k)
        pl = place_points(mesh, n)
        counts = np.diff(pl.offsets)
        assert (counts == 0).any() or domain == "square"
        assert (counts == 1).any() or n > 24
        omega = np.concatenate([quadrature_weights(t) for t in np.split(pl.window(0, n).t, pl.offsets[1:-1])])
        h = np.repeat(mesh.boundary.length, counts)
        assert np.array_equal(pl.window(0, n).alpha, omega * h)
        m = n // 2  # a range that starts and ends inside elements
        assert np.array_equal(pl.window(m - 3, m + 3).alpha, (omega * h)[m - 3 : m + 3])

    @pytest.mark.parametrize("domain, k, n, edge", [
        # on square k=2, site i lands on a vertex when (2i + 1) 8 / n is an
        # integer: n = 4 * 131073 nudges site 2^16, the first of a sub-block,
        # n = 4 * 131071 nudges site 2^16 - 1, the last of one
        ("square", 2, 4 * 131073, 2 ** 16),
        ("square", 2, 4 * 131071, 2 ** 16 - 1),
        ("disk", 20, 2 ** 20 + 5000, None),
    ])
    def test_sub_blocks_keep_the_bits_of_a_whole_array_pass(self, domain, k, n, edge):
        mesh = build_square_mesh(k) if domain == "square" else build_disk_mesh(k)
        nudged = assert_matches_whole_array_placement(mesh, n)
        if edge is not None:
            assert nudged[edge] and nudged.sum() == 4

    @given(st.one_of(
        st.tuples(st.just("square"), st.integers(2, 12), st.integers(1, 300_000)),
        st.tuples(st.just("disk"), st.integers(2, 10), st.integers(1, 300_000)),
        # on square k=2 these n put sites on vertices
        st.tuples(st.just("square"), st.just(2), st.integers(0, 37_499).map(lambda j: 4 * (2 * j + 1))),
    ))
    # a nudge moves one site of square k=2, n=49 and eleven of disk k=8,
    # n=75 into the next element
    @example(("square", 2, 49))
    @example(("disk", 8, 75))
    @settings(max_examples=40, deadline=None)
    def test_matches_a_whole_array_pass(self, config):
        domain, k, n = config
        assert_matches_whole_array_placement(mesh_of(domain, k), n)

    # the last level nudges four sites, among them site 2^16, the first of a window
    @given(st.sampled_from([("square", 2, 600_000), ("disk", 10, 17), ("square", 2, 4 * 131073)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_window_keeps_the_bits_of_a_pass(self, level, data):
        pl, obs, (t, alpha, owner, points, values) = pass_of(*level)
        n = pl.n
        # ranges anywhere, and ranges that start or end near a 2^16 edge or a nudged site
        anchors = st.sampled_from([*range(0, n, 2 ** 16), *pl.nudged.tolist(), n])
        site = st.one_of(st.integers(0, n), st.builds(lambda a, d: min(max(a + d, 0), n), anchors, st.integers(-3, 3)))
        lo, hi = sorted(data.draw(st.one_of(st.tuples(site, site), site.map(lambda s: (s, s)))))
        w = pl.window(lo, hi)
        assert (w.lo, w.hi) == (lo, hi)
        assert np.array_equal(w.t, t[lo:hi]) and np.array_equal(w.alpha, alpha[lo:hi])
        assert np.array_equal(np.repeat(w.owners, w.counts), owner[lo:hi]) and (w.counts > 0).all()
        assert np.array_equal(pl.positions(w), points[lo:hi]) and np.array_equal(obs.values(w), values[lo:hi])

    def test_several_sites_within_the_endpoint_tolerance(self):
        # An equilateral triangle of side 1.6e-7, near the smallest that
        # the 1e-14 area floor of mesh validation admits, with sites 4e-13
        # apart: every element end has two or three sites within 1e-12.
        verts = 1.6e-7 * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(0.75)]])
        lengths = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        mesh = TriMesh(verts, np.array([[0, 1, 2]]), Boundary(np.arange(3), lengths))
        n = 1_200_000
        assert mesh.boundary_length / n < 2e-12
        nudged = assert_matches_whole_array_placement(mesh, n)
        assert nudged.sum() >= 2 * 2 * len(mesh.boundary)

    @pytest.mark.parametrize("domain, k, n, windows", [
        # windows that start and end inside elements, cross a 2^16 edge, or are empty
        ("square", 4, 2 ** 17 + 333, [(0, None), (100, 2 ** 16 + 100), (2 ** 16 - 7, 2 ** 16 + 7), (5, 5)]),
        ("disk", 10, 17, [(0, None), (3, 4), (2, 11)]),  # empty and single-site elements
        ("disk", 20, 2 ** 16 + 5000, [(0, None), (2 ** 16 - 1000, 2 ** 16 + 1000), (1234, 1235)]),
    ])
    def test_positions_match_boundary_point(self, domain, k, n, windows):
        mesh = mesh_of(domain, k)
        pl = place_points(mesh, n)
        elements = np.repeat(np.arange(len(mesh.boundary)), np.diff(pl.offsets))
        for lo, hi in [*windows, (0, 0), (n, n)]:
            hi = n if hi is None else hi
            w = pl.window(lo, hi)
            assert np.array_equal(pl.positions(w), boundary_point(mesh, elements[lo:hi], w.t))
            if lo == hi:
                assert w.alpha.shape == (0,)

    @pytest.mark.parametrize("reader", ["t", "alpha", "positions", "evaluate", "values"])
    def test_range_reads_outside_the_sites_rejected(self, square10, reader):
        # the range is checked where it enters: by `window`, through which
        # t, alpha, positions and evaluate read a range, and by `values`,
        # which refuses a window of a larger placement or one made by hand
        n = 100
        pl, larger = place_points(square10, n), place_points(square10, n + 5)
        obs = observe(pl, lambda x, y: x * y, NoiseModel.gaussian(1.0), 3)
        read = {"t": lambda w: w.t, "alpha": lambda w: w.alpha, "positions": pl.positions,
                "evaluate": functools.partial(pl.evaluate, lambda x, y: x * y), "values": obs.values}[reader]
        for lo, hi in ((0, n + 5), (-3, 5), (5, 3), (n, n + 2)):
            with pytest.raises(ValueError, match=rf"^site range \[{lo}, {hi}\) is not within \[0, {n}\]$"):
                read(pl.window(lo, hi))
            if reader == "values":
                w = larger.window(lo, hi) if 0 <= lo <= hi else observations.Window(lo, hi, *larger.window(0, 0)[2:])
                with pytest.raises(ValueError, match=rf"^site range \[{lo}, {hi}\) is not within \[0, {n}\]$"):
                    read(w)
        for lo in (0, n):
            assert read(pl.window(lo, lo)).shape[0] == 0

    def test_work_array_is_one_piece_of_2_to_the_16_sites_at_most(self, monkeypatch, square10):
        # square k=10 has 40 elements: runs of 25, about 26214 and about
        # 104858 sites; a pass's buffers hold a window whatever the runs
        sizes = []
        monkeypatch.setattr(observations, "_site_array",
                            lambda n, make=observations._site_array: sizes.append(n) or make(n))
        for n in (1000, 2 ** 16, 2 ** 20 + 1, 4 * 2 ** 20 + 1):
            m = min(n, 2 ** 16)
            sizes.clear()
            for w, work in place_points(square10, n).windows():
                assert sizes == [m + 2, m, m]
                assert len(w.t) == len(w.alpha) == len(work) <= m

    @pytest.mark.parametrize("domain, k, n", [
        ("disk", 10, 17),  # empty and single-site elements
        ("square", 4, 2 ** 20 + 5000),  # an element run straddles the two noise blocks
        ("square", 2, 4 * 131073),  # runs longer than 2^16
        ("square", 40, 40 ** 4),  # 160 runs of 16000 in three noise blocks
        ("disk", 10, 3 * 2 ** 20 + 5),
        ("square", 10, 1),
    ])
    def test_windows_tile_the_sites(self, monkeypatch, domain, k, n):
        pl = place_points(mesh_of(domain, k), n)
        reads = []
        monkeypatch.setattr(pl, "windows", lambda windows=pl.windows: (reads.append(w[0][:2]) or w for w in windows()))
        assemble_coupling_matrix(pl)
        assert reads == [(lo, min(n, lo + 2 ** 16)) for lo in range(0, n, 2 ** 16)]

    def test_site_arrays_have_maps_of_their_own(self, square10):
        # so that a pass that ends returns them to the system
        w, work = next(place_points(square10, 1000).windows())
        bases = [buffer_of(a) for a in (w.t, w.alpha, work)]
        assert all(isinstance(b, mmap.mmap) for b in bases) and len({id(b) for b in bases}) == 3

    def test_passes_in_lockstep_keep_the_bits_of_a_pass_alone(self, square10):
        # the work of one pass never lands in the buffers of another
        pl = place_points(square10, 3 * 2 ** 16 + 5)
        alone = [tuple(np.copy(a) for a in w) for w, _ in pl.windows()]
        for j, windows in enumerate(zip(pl.windows(), pl.windows())):
            for (_, work), junk in zip(windows, (np.nan, np.inf)):
                work[:] = junk
            for w, _ in windows:
                assert all(np.array_equal(a, b) for a, b in zip(w, alone[j]))
            (w0, work0), (w1, work1) = windows
            assert not any(np.shares_memory(a, b) for a in (w0.t, w0.alpha, work0) for b in (w1.t, w1.alpha, work1))
        assert j == len(alone) - 1 == 3

    def test_evaluate_matches_per_element_formula(self, mixed_mesh):
        # 70000 sites span two sub-blocks of the straight chord and the three arcs
        pl = place_points(mixed_mesh, 70000)
        b = mixed_mesh.boundary
        g0 = lambda x, y: np.sin(5.0 * x + 1.0) * np.sin(5.0 * y + 1.0)  # noqa: E731
        parts = []
        for e, t in enumerate(np.split(pl.window(0, pl.n).t, pl.offsets[1:-1])):
            if b.curved[e]:
                cx, cy, r, th0, th1 = b.arc[e]
                th = th0 + t * (th1 - th0)
                x, y = cx + r * np.cos(th), cy + r * np.sin(th)
            else:
                p0, p1 = mixed_mesh.vertices[b.v0[e]], mixed_mesh.vertices[b.v1[e]]
                x, y = p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1])
            parts.append(g0(x, y))
        assert np.array_equal(pl.evaluate(g0, pl.window(0, pl.n)), np.concatenate(parts))
        assert np.array_equal(pl.evaluate(g0, pl.window(65000, 66000)), np.concatenate(parts)[65000:66000])

    @pytest.mark.parametrize("mesh_name, n", [("disk10", 40), ("mixed_mesh", 9), ("square10", 2 ** 16 + 7)])
    def test_range_reads_match_the_per_element_formulas(self, request, mesh_name, n):
        mesh = request.getfixturevalue(mesh_name)
        pl = place_points(mesh, n)
        parts = np.split(pl.window(0, n).t, pl.offsets[1:-1])
        pts = np.concatenate([boundary_point(mesh, k, t) for k, t in enumerate(parts)])
        w = np.concatenate([quadrature_weights(t) for t in parts])
        assert np.array_equal(pl.positions(pl.window(0, n)), pts)
        assert np.array_equal(pl.evaluate(lambda x, y: x * y - y, pl.window(0, n)), pts[:, 0] * pts[:, 1] - pts[:, 1])
        assert np.array_equal(pl.window(0, n).alpha, w * np.repeat(mesh.boundary.length, np.diff(pl.offsets)))

    def test_alpha_ratio_bound(self, square10, disk10):
        # end-interval weights are at most 3x the interior ones
        for mesh, ns in ((square10, (40, 100, 397)), (disk10, (63, 200))):
            for n in ns:
                alpha = place_points(mesh, n).window(0, n).alpha
                assert alpha.max() / alpha.min() <= 3.0


class TestNoise:
    def test_none_is_zero(self):
        assert not sample_noise(None, 100, seed=1).any()

    def test_no_noise_is_none_not_a_kind(self):
        with pytest.raises(ValueError, match="^unknown noise kind 'none'$"):
            NoiseModel("none")

    def test_deterministic(self):
        a = sample_noise(NoiseModel.gaussian(2.0), 5000, seed=42)
        b = sample_noise(NoiseModel.gaussian(2.0), 5000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_noise(NoiseModel.gaussian(2.0), 5000, seed=43)
        assert (a != c).any()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the seed is the low 64 bits of the Philox key; -1 would alias 2^64 - 1
        with pytest.raises(ValueError, match=f"got {seed}$"):
            sample_noise(NoiseModel.gaussian(1.0), 10, seed)
        pl = place_points(mesh_of("square", 4), 10)
        for model in (NoiseModel.gaussian(1.0), None):  # the set's cursor refuses it, before any read
            with pytest.raises(ValueError, match=f"^seed must lie in \\[0, 2\\^64\\), got {seed}$"):
                observe(pl, None, model, seed)

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0)])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        # int(1.5) would draw seed 1's noise under seed 1.5
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed}$"):
            sample_noise(NoiseModel.gaussian(1.0), 5, seed)

    @pytest.mark.parametrize("count, match", [(-1, "nonnegative, got -1"), (2.5, "an integer, got 2.5")])
    def test_a_bad_count_is_named(self, count, match):
        with pytest.raises(ValueError, match=f"^count must be {match}$"):
            sample_noise(NoiseModel.gaussian(1.0), count, 0)
        for model in (NoiseModel.gaussian(1.0), NoiseModel.mixture(1.0, 10.0, 0.3), None):
            assert sample_noise(model, 0, 0).shape == (0,)

    def test_a_count_too_long_to_print_is_named_by_its_digits(self):
        with pytest.raises(ValueError, match="^count must be nonnegative, got a negative number of 5001 digits$"):
            sample_noise(NoiseModel.gaussian(1.0), -10 ** 5000, 0)

    def test_numpy_integer_seeds_draw_the_python_seed(self):
        model = NoiseModel.mixture(1.0, 10.0, 0.3)
        for seed in (np.int64(3), np.uint64(3), np.int32(3)):
            assert np.array_equal(sample_noise(model, 50, seed), sample_noise(model, 50, 3))

    def test_gaussian_moments(self):
        e = sample_noise(NoiseModel.gaussian(2.0), 10 ** 6, seed=7)
        assert abs(e.mean()) <= 4 * (2 / 10 ** 3)
        assert abs(e.std() - 2.0) <= 0.02

    def test_mixture_moments(self):
        model = NoiseModel.mixture(1.0, 10.0, 0.5)
        e = sample_noise(model, 10 ** 6, seed=11)
        assert abs(e.mean()) <= 0.05
        assert abs(e.std() - model.std) <= 0.02 * model.std

    def test_std_property(self):
        assert NoiseModel.gaussian(2.0).std == 2.0
        assert NoiseModel.mixture(1.0, 10.0, 0.5).std == pytest.approx(
            math.sqrt(0.5 * 1 + 0.5 * 100))

    def test_range_matches_full_draw(self):
        # counter-based stream: any sub-range of a set must equal the full-draw slice
        model = NoiseModel.gaussian(1.5)
        n = 2 ** 21 + 13
        full = sample_noise(model, n, seed=3)
        obs = observe(place_points(mesh_of("square", 4), n), None, model, 3)
        for start, stop in ((0, 100), (2 ** 20 - 5, 2 ** 20 + 5), (2 ** 21, 2 ** 21 + 13)):
            np.testing.assert_array_equal(obs.values(obs.placement.window(start, stop)), full[start:stop])

    @pytest.mark.parametrize("model", [NoiseModel.gaussian(1.5), NoiseModel.mixture(1.0, 10.0, 0.3)])
    def test_range_written_into_out(self, model):
        n = 2 ** 21 + 13
        full = sample_noise(model, n, seed=3)
        pl = place_points(mesh_of("square", 4), n)
        obs = observe(pl, None, model, 3)
        # a mixture block draws its uniforms up to its window's end before
        # its normals, so a range that ends inside a block still reads the
        # whole window's values
        for start, stop in ((0, 2 ** 20), (2 ** 20 - 5, 2 ** 21), (2 ** 21 + 3, 2 ** 21 + 13)):
            out = np.full(stop - start, np.nan)
            assert obs.values(pl.window(start, stop), out) is out
            np.testing.assert_array_equal(out, full[start:stop])
        out = np.full(7, np.nan)
        assert not observe(pl, None, None, 3).values(pl.window(5, 12), out).any()

    def test_set_read_in_order_opens_one_stream_per_block(self, stream_opens):
        # 3 2^20 + 5 sites: four noise blocks, the last of 5 entries
        model, n = NoiseModel.mixture(1.0, 10.0, 0.3), 3 * 2 ** 20 + 5
        obs = observe(place_points(mesh_of("square", 4), n), None, model, 8)
        pl = obs.placement
        got = np.concatenate([obs.values(pl.window(lo, min(lo + 2 ** 16, n))) for lo in range(0, n, 2 ** 16)])
        assert stream_opens == [(8, 0), (8, 1), (8, 2), (8, 3)]
        stream_opens.clear()
        assert np.array_equal(got, sample_noise(model, n, 8))
        assert stream_opens == [(8, 0), (8, 1), (8, 2), (8, 3)]

    def test_set_read_back_or_anew_draws_the_block_from_its_start(self, stream_opens):
        model, n = NoiseModel.gaussian(1.0), 2 ** 20 + 50
        full = sample_noise(model, n, 4)
        obs = observe(place_points(mesh_of("square", 4), n), None, model, 4)
        stream_opens.clear()
        for lo, hi, opened in ((10, 20, [0]), (20, 30, []), (15, 25, [0]), (2 ** 20 + 3, n, [1]),
                               (2 ** 20 - 2, 2 ** 20 + 2, [0, 1]), (2 ** 20 + 2, 2 ** 20 + 3, [])):
            assert np.array_equal(obs.values(obs.placement.window(lo, hi)), full[lo:hi])
            assert [block for _, block in stream_opens] == opened
            stream_opens.clear()
        # the cursor is not part of the set's value, and a copy gets a cursor of its own
        assert obs == observe(obs.placement, None, model, 4)
        assert "_noise" not in repr(obs)
        copy = dataclasses.replace(obs)
        assert copy._noise is not obs._noise and copy._noise.at == 0

    @staticmethod
    def whole_window(model, seed, block, m):
        """Noise block `block` drawn over its whole window of m entries at
        once, from one generator: a mixture's m uniforms, then its normals."""
        rng = np.random.Generator(np.random.Philox(key=seed | block << 64))
        out = np.empty(m)
        if model.kind == "gaussian":
            return rng.standard_normal(out=out) * model.sigma
        pick = rng.random(out=out) < model.p
        rng.standard_normal(out=out)
        return np.where(pick, out * model.sigma1, out * model.sigma2)

    @pytest.mark.parametrize("model", [NoiseModel.gaussian(1.5), NoiseModel.mixture(1.0, 10.0, 0.3)],
                             ids=["gaussian", "mixture"])
    @pytest.mark.parametrize("m", [2 ** 20, 65537, 65538, 1000003, 17])  # m mod 4 = 0, 1, 2, 3, 1
    def test_stream_drawn_in_pieces_keeps_the_whole_window(self, model, m):
        block = 2  # the window [2^21, 2^21 + m) of a stream of n entries
        n = 2 * 2 ** 20 + m
        whole = self.whole_window(model, 9, block, m)
        stream = _NoiseStream(model, 9, n)
        base, got = 2 * 2 ** 20, []
        at = base
        for size in (1, 3, 2 ** 16, 4099, m):
            size = min(size, n - at)
            got.append(stream.draw(at, np.empty(size)))
            at += size
        assert stream.at == n
        assert np.array_equal(np.concatenate(got), whole)
        # a draw that starts further on drops the entries in between
        later = _NoiseStream(model, 9, n).draw(base + m // 2, np.empty(m - m // 2))
        assert np.array_equal(later, whole[m // 2 :])
        assert np.array_equal(sample_noise(model, n, 9)[base:], whole)

    def test_stream_read_behind_its_cursor_redraws_the_block(self, stream_opens):
        model, n = NoiseModel.mixture(1.0, 10.0, 0.3), 2 ** 20 + 100
        full = sample_noise(model, n, 3)
        stream = _NoiseStream(model, 3, n)
        stream_opens.clear()
        for lo, size, opened in ((10, 5, [0]), (12, 2, [0]), (2 ** 20 - 3, 50, [1]), (0, n, [0, 1])):
            assert np.array_equal(stream.draw(lo, np.empty(size)), full[lo : lo + size])
            assert stream_opens == [(3, block) for block in opened]
            stream_opens.clear()

    def test_inverted_range_rejected_empty_range_allowed(self, square10):
        obs = observe(place_points(square10, 10), None, NoiseModel.gaussian(1.0), 3)
        assert obs.values(obs.placement.window(5, 5)).size == 0
        with pytest.raises(ValueError, match=r"^site range \[5, 4\) is not within \[0, 10\]$"):
            obs.values(obs.placement.window(5, 4))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel.gaussian(-1.0)

    @pytest.mark.parametrize("build, name", [
        (lambda: NoiseModel.gaussian(math.nan), "sigma"),
        (lambda: NoiseModel.gaussian(math.inf), "sigma"),
        (lambda: NoiseModel.mixture(-1.0, 10.0), "sigma1"),
        (lambda: NoiseModel.mixture(math.nan, 10.0), "sigma1"),
        (lambda: NoiseModel.mixture(1.0, math.inf), "sigma2"),
        (lambda: NoiseModel.mixture(1.0, -0.5), "sigma2"),
    ])
    def test_bad_parameters_name_the_parameter(self, build, name):
        with pytest.raises(ValueError, match=rf"^{name} must be finite and nonnegative"):
            build()

    def test_mixture_probability_names_p(self):
        with pytest.raises(ValueError, match=r"^p \(the mixture probability\) must lie in \[0, 1\], got 1.5$"):
            NoiseModel.mixture(1.0, 10.0, 1.5)

    def test_negative_zero_stored_as_zero(self):
        # so that no output writes "-0" for a noise parameter
        mixture = NoiseModel.mixture(-0.0, -0.0, -0.0)
        for value in (NoiseModel.gaussian(-0.0).sigma, mixture.sigma1, mixture.sigma2, mixture.p):
            assert math.copysign(1.0, value) == 1.0


class TestObservationSet:
    def test_alpha_sums_to_boundary_length(self, square10, disk10):
        for mesh, total in ((square10, 4.0), (disk10, 2 * math.pi)):
            assert abs(place_points(mesh, 500).window(0, 500).alpha.sum() - total) <= 1e-10

    def test_equispaced_alpha_uniform(self, square10):
        np.testing.assert_allclose(place_points(square10, 1000).window(0, 1000).alpha, 4.0 / 1000, atol=1e-12)

    def test_constant_data_no_noise(self, square10):
        obs = observe(place_points(square10, 100), lambda x, y: 3.25, None, 0)
        np.testing.assert_array_equal(obs.values(obs.placement.window(0, 100)), np.full(100, 3.25))

    def test_noise_decomposition(self, disk10):
        model = NoiseModel.gaussian(2.0)
        obs = observe(place_points(disk10, 300), lambda x, y: x * y, model, 5)
        clean = obs.placement.evaluate(obs.g0, obs.placement.window(0, obs.placement.n))
        noise = sample_noise(model, 300, seed=5)
        np.testing.assert_allclose(obs.values(obs.placement.window(0, 300)) - clean, noise, atol=1e-15)

    def test_bit_identical_rebuild(self, disk10):
        model = NoiseModel.mixture(1.0, 10.0, 0.5)
        a = observe(place_points(disk10, 777), lambda x, y: x, model, 9)
        b = observe(place_points(disk10, 777), lambda x, y: x, model, 9)
        np.testing.assert_array_equal(a.values(a.placement.window(0, 777)), b.values(b.placement.window(0, 777)))
        for x, y in zip(a.placement.window(0, 777), b.placement.window(0, 777)):
            np.testing.assert_array_equal(x, y)

    def test_non_finite_g0_names_first_bad_site(self, square10):
        placement = place_points(square10, 100)
        pts = placement.positions(placement.window(0, placement.n))
        first = int(np.flatnonzero(pts[:, 1] > 0.5)[0])
        point = (float(pts[first, 0]), float(pts[first, 1]))
        obs = observe(placement, lambda x, y: np.where(y > 0.5, np.inf, y), None, 0)
        with pytest.raises(ValueError, match=rf"^g0 is not finite at site {first} {re.escape(str(point))}$"):
            obs.values(placement.window(0, placement.n))

    def test_non_finite_g0_in_a_later_sub_block(self, square10):
        # the top edge's left half starts past site 2^16
        placement = place_points(square10, 2 ** 17)
        pts = placement.positions(placement.window(0, placement.n))
        first = int(np.flatnonzero((pts[:, 0] < 0.5) & (pts[:, 1] == 1.0))[0])
        assert first > 2 ** 16
        point = (float(pts[first, 0]), float(pts[first, 1]))
        with pytest.raises(ValueError, match=rf"^g0 is not finite at site {first} {re.escape(str(point))}$"):
            placement.evaluate(lambda x, y: np.where((x < 0.5) & (y == 1.0), np.nan, x), placement.window(0, placement.n))

    def test_noise_only_set_is_streamed(self, disk10):
        placement = place_points(disk10, 300)
        model = NoiseModel.mixture(1.0, 10.0, 0.3)
        noise = observe(placement, None, model, 5)
        # a read draws the set's whole noise window, [0, 300) here
        np.testing.assert_array_equal(noise.values(placement.window(17, 211)), sample_noise(model, 300, 5)[17:211])
        data = observe(placement, lambda x, y: x * y, model, 5)
        clean = observe(placement, lambda x, y: x * y, None, 0)
        w = placement.window(0, 300)
        np.testing.assert_array_equal(data.values(w), clean.values(w) + noise.values(w))

    def test_values_written_into_out(self, disk10):
        placement = place_points(disk10, 300)
        model = NoiseModel.gaussian(2.0)
        for obs in (observe(placement, lambda x, y: x * y, model, 5),  # g0 and noise
                    observe(placement, None, model, 5),  # noise alone
                    observe(placement, lambda x, y: x * y, None, 0)):  # g0 alone
            out = np.full(194, np.nan)
            assert obs.values(placement.window(17, 211), out) is out
            np.testing.assert_array_equal(out, obs.values(placement.window(17, 211)))

    @pytest.mark.parametrize("size", [193, 195])
    def test_out_of_another_length_rejected(self, disk10, size):
        obs = observe(place_points(disk10, 300), lambda x, y: x * y, NoiseModel.gaussian(2.0), 5)
        with pytest.raises(ValueError, match=rf"^out has length {size}, the site range \[17, 211\) needs 194$"):
            obs.values(obs.placement.window(17, 211), np.zeros(size))

    @pytest.mark.parametrize("g0", [None, lambda x, y: x * y])
    @pytest.mark.parametrize("lo, hi", [(0, 15), (-2, 4), (11, 11), (-1, -1)])
    def test_values_outside_the_set_rejected(self, disk10, g0, lo, hi):
        # a window of a larger placement, or one that no placement checked
        obs = observe(place_points(disk10, 10), g0, NoiseModel.mixture(1.0, 10.0, 0.3), 5)
        larger = place_points(disk10, 20)
        w = larger.window(lo, hi) if 0 <= lo <= hi else observations.Window(lo, hi, *larger.window(0, 0)[2:])
        with pytest.raises(ValueError, match=rf"^site range \[{lo}, {hi}\) is not within \[0, 10\]$"):
            obs.values(w)
        assert obs.values(obs.placement.window(10, 10)).size == 0

    def test_clean_values_on_true_boundary(self, disk10):
        # g0 must be sampled on the circle, not the chord polygon
        obs = observe(place_points(disk10, 200), lambda x, y: x ** 2 + y ** 2, None, 0)
        np.testing.assert_allclose(obs.values(obs.placement.window(0, 200)), 1.0, atol=1e-12)


class TestEmpiricalInnerProduct:
    # <u, v>_n = sum_j alpha_j u_j v_j, read through ||u||_n^2 = <u, u>_n
    def test_constant_gives_boundary_length(self, disk10):
        one = np.ones(123)
        assert empirical_norm(place_points(disk10, 123).window(0, 123).alpha, one) ** 2 == pytest.approx(
            2 * math.pi, abs=1e-10)

    def test_zero_factor(self, square10):
        assert empirical_norm(place_points(square10, 64).window(0, 64).alpha, np.zeros(64)) == 0.0

    def test_approximates_line_integral(self, square10):
        # integral of x^2 over the unit square boundary: 1/3 + 1 + 1/3 + 0
        obs = observe(place_points(square10, 10 ** 4), lambda x, y: x, None, 0)
        w = obs.placement.window(0, 10 ** 4)
        assert abs(empirical_norm(w.alpha, obs.values(w)) ** 2 - 5.0 / 3.0) <= 1e-4

    def test_norm_is_sqrt_self_product(self, rng):
        alpha = rng.random(40) + 0.1
        u = rng.standard_normal(40)
        assert empirical_norm(alpha, u) == pytest.approx(math.sqrt(np.sum(alpha * u * u)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            empirical_norm(np.ones(3), np.ones(4))
