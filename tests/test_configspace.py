import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpdsa.configspace import (
    Ball,
    DimensionError,
    LatticeGeometry,
    NotDecomposableError,
    canonical_config,
    canonical_decomposition,
    classify_ball,
    config_distance,
    config_neighbors,
    diam,
    edge_boundary,
    enumerate_ball,
    exterior_boundary,
    factorization_check,
    find_separability_witness,
    interior_boundary,
    maximal_separation_split,
    merge_configs,
    occupation_map,
    subconfig_distance,
    witness_is_valid,
)
from mpdsa.msa import ScalingParams
from mpdsa.operators import InteractionModel, _build_structure


def brute_min_over_perms(x, y, geometry):
    best = None
    for perm in itertools.permutations(y):
        m = max(geometry.site_distance(a, b) for a, b in zip(x, perm))
        best = m if best is None else min(best, m)
    return best


class TestConfigDistance:
    def test_coordinatewise_max(self, line):
        assert config_distance((5, 0), (4, 2), line) == 2

    def test_identity(self, line):
        assert config_distance((5, 0), (5, 0), line) == 0

    def test_permutation_symmetry(self, line):
        a = canonical_config((0, 5), line)
        b = canonical_config((5, 0), line)
        assert a == b == (5, 0)
        assert config_distance(a, b, line) == 0

    def test_mismatched_particle_numbers(self, line):
        with pytest.raises(DimensionError):
            config_distance((1, 0), (2, 1, 0), line)

    def test_metric_axioms_bulk(self, line):
        # 10^4 sampled triples: symmetry, nonnegativity, identity, triangle
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            pts = rng.integers(-12, 12, size=(3, 2))
            cfgs = []
            for row in pts:
                if row[0] == row[1]:
                    row[0] += 1
                cfgs.append(canonical_config(row, line))
            x, y, z = cfgs
            dxy = config_distance(x, y, line)
            assert dxy == config_distance(y, x, line)
            assert dxy >= 0
            assert (dxy == 0) == (x == y)
            assert dxy <= config_distance(x, z, line) + config_distance(z, y, line)

    def test_fast_path_matches_matching_minimum(self, line):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = canonical_config(rng.choice(30, size=3, replace=False), line)
            y = canonical_config(rng.choice(30, size=3, replace=False), line)
            assert config_distance(x, y, line) == brute_min_over_perms(x, y, line)

    def test_symmetrized_metric_axioms_2d(self, plane):
        rng = np.random.default_rng(9)
        for _ in range(400):
            cfgs = []
            for _ in range(3):
                sites = {tuple(rng.integers(-4, 4, size=2)) for _ in range(6)}
                cfgs.append(canonical_config(sorted(sites)[:2], plane))
            x, y, z = cfgs
            dxy = config_distance(x, y, plane)
            assert dxy == config_distance(y, x, plane)
            assert (dxy == 0) == (x == y)
            assert dxy <= config_distance(x, z, plane) + config_distance(z, y, plane)


class TestCanonicalForm:
    def test_strictly_decreasing(self, line):
        assert canonical_config((3, 7, 1), line) == (7, 3, 1)

    def test_rejects_collisions(self, line):
        with pytest.raises(ValueError):
            canonical_config((3, 3), line)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_canonical_is_idempotent(self, positions):
        geometry = LatticeGeometry(kind="lattice", d=1)
        cfg = canonical_config(positions, geometry)
        assert canonical_config(cfg, geometry) == cfg
        assert all(a > b for a, b in zip(cfg, cfg[1:]))


class TestBalls:
    def test_two_particle_ball_enumeration(self, line):
        ball = enumerate_ball((3, 1), 1, line)
        expected = {
            (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2),
        }
        assert set(ball.members) == expected
        assert len(ball) == 8
        # independent oracle: scan the full coordinate window
        brute = {
            (a, b)
            for a in range(-10, 20)
            for b in range(-10, 20)
            if a > b and max(abs(a - 3), abs(b - 1)) <= 1
        }
        assert set(ball.members) == brute
        assert list(ball.members) == sorted(ball.members)

    def test_zero_radius(self, line):
        ball = enumerate_ball((3, 1), 0, line)
        assert ball.members == ((3, 1),)

    def test_single_particle_ball(self, line):
        ball = enumerate_ball((0,), 2, line)
        assert ball.members == ((-2,), (-1,), (0,), (1,), (2,))

    def test_member_count_bound(self, line):
        for center, radius in [((3, 1), 2), ((9, 0), 3), ((1, 0), 4)]:
            ball = enumerate_ball(center, radius, line)
            assert len(ball) <= (2 * radius + 1) ** (2 * line.d)

    def test_full_lattice_count_without_sector_constraint(self, line):
        # a single particle sees the whole window
        ball = enumerate_ball((0,), 3, line)
        assert len(ball) == (2 * 3 + 1) ** line.d

    def test_graph_ball(self, path_graph):
        ball = enumerate_ball((4, 0), 2, path_graph)
        brute = {
            (max(a, b), min(a, b))
            for a in range(5)
            for b in range(5)
            if a != b and max(abs(a - 4), abs(b - 0)) <= 2
        }
        assert set(ball.members) == brute

    def test_growth_bound_on_graph(self, path_graph):
        assert path_graph.check_growth(2, [1, 2, 3])


class TestFactorization:
    def test_far_groups_factorize(self, line):
        assert factorization_check((10,), (0,), 2, line)

    def test_close_groups_fail(self, line):
        assert not factorization_check((3,), (0,), 2, line)

    def test_zero_radius_always_factorizes(self, line):
        assert factorization_check((3,), (0,), 0, line)

    def test_random_separated_groups(self, line):
        rng = np.random.default_rng(21)
        for _ in range(60):
            L = int(rng.integers(0, 3))
            base = rng.choice(8, size=2, replace=False)
            shift = int(rng.integers(2 * L + 1, 2 * L + 12))
            x1 = canonical_config(base + 20 + shift, line)
            x2 = canonical_config(base, line)
            assert subconfig_distance(x1, x2, line) > 2 * L
            assert factorization_check(x1, x2, L, line)
            # product equality, by direct enumeration
            joint = enumerate_ball(merge_configs(x1, x2, line), L, line)
            b1 = enumerate_ball(x1, L, line)
            b2 = enumerate_ball(x2, L, line)
            assert len(joint) == len(b1) * len(b2)


class TestDiamAndClassification:
    def test_diam_three_particles(self, line):
        assert diam((20, 10, 0), line) == 20

    def test_diam_single_particle(self, line):
        assert diam((5,), line) == 0

    def test_diam_pair(self, line):
        assert diam((1, 0), line) == 1

    def test_classify_short_range(self, line):
        params = ScalingParams.finite_range(3)
        ball = enumerate_ball((20, 10, 0), 1, line)
        assert params.a_n == 12
        assert classify_ball(ball, params) == "PI"
        params2 = ScalingParams.finite_range(2)
        ball2 = enumerate_ball((5, 0), 10, line)
        assert classify_ball(ball2, params2) == "FI"

    def test_classify_long_range_exact_threshold(self, line):
        # diameter 12 against 8^(21/20): exact integer comparison
        params = ScalingParams.infinite_range(2, delta="1/20")
        assert 12**20 > 8**21  # the oracle for the strict comparison
        ball = enumerate_ball((12, 0), 8, line)
        assert classify_ball(ball, params) == "PI"

    def test_decomposition_pair(self, line):
        params = ScalingParams.finite_range(2)
        ball = enumerate_ball((20, 0), 1, line)
        dec = canonical_decomposition(ball, params)
        assert dec.index_set == (1,)
        assert dec.part1 == (20,)
        assert dec.separation == 20
        assert dec.reassembles(ball.center, line)

    def test_decomposition_tie_break(self, line):
        params = ScalingParams.finite_range(3)
        ball = enumerate_ball((20, 10, 0), 1, line)
        dec = canonical_decomposition(ball, params)
        # all three splits separate by 10; lexicographically smallest
        # index set keeps particle 1 (site 20) alone
        assert dec.separation == 10
        assert dec.index_set == (1,)
        assert dec.part1 == (20,)
        assert set(dec.part2) == {10, 0}

    def test_fully_interactive_has_no_decomposition(self, line):
        params = ScalingParams.finite_range(2)
        ball = enumerate_ball((5, 0), 10, line)
        with pytest.raises(NotDecomposableError):
            canonical_decomposition(ball, params)

    def test_maximal_split_without_classification(self, line):
        split = maximal_separation_split((9, 4, 0), line)
        assert split.separation == 5
        assert split.part1 == (9,)


class TestSeparabilityWitness:
    def test_far_pair_has_witness(self, line):
        bx = enumerate_ball((1, 0), 1, line)
        by = enumerate_ball((51, 50), 1, line)
        w = find_separability_witness(bx, by)
        assert w is not None
        assert w.box == ((-1, 2),)
        assert w.captured_first == (1, 2)
        assert w.captured_second == ()
        assert witness_is_valid(w, bx, by)

    def test_identical_centers_have_no_witness(self, line):
        bx = enumerate_ball((1, 0), 1, line)
        assert find_separability_witness(bx, bx) is None

    def test_distant_pairs_are_weakly_separable(self, line, plane):
        # whenever the symmetrized distance exceeds 4NL a witness exists
        rng = np.random.default_rng(31)
        found = 0
        attempts = 0
        while found < 100 and attempts < 3000:
            attempts += 1
            geometry = line if rng.random() < 0.6 else plane
            n = int(rng.integers(2, 4))
            L = int(rng.integers(1, 4))
            if geometry.d == 1:
                sites = rng.choice(120, size=2 * n, replace=False) - 60
                x = canonical_config(sites[:n], geometry)
                y = canonical_config(sites[n:], geometry)
            else:
                pool = {
                    (int(a), int(b))
                    for a, b in rng.integers(-25, 25, size=(4 * n, 2))
                }
                pool = sorted(pool)
                if len(pool) < 2 * n:
                    continue
                x = canonical_config(pool[:n], geometry)
                y = canonical_config(pool[n : 2 * n], geometry)
            if config_distance(x, y, geometry) <= 4 * n * L:
                continue
            found += 1
            bx = enumerate_ball(x, L, geometry)
            by = enumerate_ball(y, L, geometry)
            w = find_separability_witness(bx, by)
            assert w is not None, (x, y, L)
            assert witness_is_valid(w, bx, by)
        assert found == 100

    def test_witness_requires_equal_radii(self, line):
        bx = enumerate_ball((1, 0), 1, line)
        by = enumerate_ball((51, 50), 2, line)
        with pytest.raises(DimensionError):
            find_separability_witness(bx, by)


class TestBoundaries:
    def test_single_particle_boundary(self, line):
        ball = enumerate_ball((0,), 0, line)
        ambient = enumerate_ball((0,), 2, line)
        pairs = edge_boundary(ball, ambient)
        assert set(pairs) == {((0,), (-1,)), ((0,), (1,))}

    def test_ball_equals_ambient(self, line):
        ball = enumerate_ball((0,), 2, line)
        assert edge_boundary(ball, ball) == []

    def test_two_particle_boundary_against_oracle(self, line):
        ball = enumerate_ball((3, 1), 1, line)
        ambient = enumerate_ball((3, 1), 3, line)
        pairs = edge_boundary(ball, ambient)
        # oracle: direct scan over member/outside adjacency
        inside = set(ball.members)
        outside = set(ambient.members) - inside
        brute = set()
        for x in inside:
            for y in outside:
                if sorted(abs(a - b) for a, b in zip(x, y)) == [0, 1]:
                    brute.add((x, y))
        assert set(pairs) == brute

    def test_boundary_size_bound(self, line):
        n, d = 2, 1
        for radius in (1, 2, 3):
            ball = enumerate_ball((9, 0), radius, line)
            pairs = edge_boundary(ball)
            assert len(pairs) <= 2 * n * d * (2 * radius + 1) ** (n * d - 1) * 2

    def test_interior_exterior_consistency(self, line):
        ball = enumerate_ball((3, 1), 1, line)
        ambient = enumerate_ball((3, 1), 4, line)
        inner = interior_boundary(ball, ambient)
        outer = exterior_boundary(ball, ambient)
        assert all(ball.contains(c) for c in inner)
        assert not any(ball.contains(c) for c in outer)
        # interior boundary sits exactly on the sphere of the ball radius
        assert {config_distance(ball.center, c, line) for c in inner} == {1}


class TestProjectionsAndOccupation:
    def test_occupation_counts(self):
        counts = occupation_map((5, 1, 1))
        assert counts == {5: 1, 1: 2}
        assert sum(counts.values()) == 3

    def test_sector_occupation_all_ones(self, line):
        cfg = canonical_config((8, 3, 0), line)
        assert set(occupation_map(cfg).values()) == {1}

    def test_fully_interactive_pair_projection_gap(self, line):
        # two FI balls far apart keep their one-particle projections
        # separated by at least twice the radius
        rng = np.random.default_rng(4)
        params = ScalingParams.finite_range(2)
        for _ in range(40):
            L = int(rng.integers(1, 4))
            spread1 = int(rng.integers(0, params.a_n * L + 1))
            spread2 = int(rng.integers(0, params.a_n * L + 1))
            base = int(rng.integers(-20, 20))
            far = base + params.c_n * L + spread1 + int(rng.integers(0, 10))
            x = canonical_config((base, base - spread1 - 1), line)
            y = canonical_config((far, far - spread2 - 1), line)
            bx = enumerate_ball(x, L, line)
            by = enumerate_ball(y, L, line)
            if classify_ball(bx, params) != "FI" or classify_ball(by, params) != "FI":
                continue
            if config_distance(x, y, line) < params.c_n * L:
                continue
            gap = min(
                abs(a - b) for a in bx.projection for b in by.projection
            )
            assert gap >= 2 * L

    def test_config_neighbors_respect_sector(self, line):
        nbs = config_neighbors((1, 0), line)
        assert (2, 0) in nbs and (1, -1) in nbs
        assert all(len(set(nb)) == 2 for nb in nbs)
        assert (1, 1) not in nbs and (0, 0) not in nbs


# 1D sector balls, their particles adjacent or apart, and a path graph of
# sites shifted by OFFSET: the graph takes the generic loops (neighbour
# lists, matching-minimized distances) and is the line wherever these
# balls reach
SECTOR_CENTERS = [(0,), (1, 0), (4, 0), (2, 1, 0), (6, 3, 0), (3, 2, 1, 0), (9, 6, 3, 0)]
OFFSET = 12


def _on_path(cfg):
    return tuple(c + OFFSET for c in cfg)


@pytest.fixture(scope="module")
def long_path():
    size = 2 * OFFSET + 6
    adj = tuple(tuple(w for w in (v - 1, v + 1) if 0 <= w < size) for v in range(size))
    return LatticeGeometry(kind="graph", adjacency=adj)


class TestPairwiseDistances:
    """``Ball.pairwise_distances`` comes in the narrowest signed integer
    dtype that holds the ball's diameter."""

    @pytest.mark.parametrize("center, radius, dtype", [
        ((0,), 63, np.int8),  # diameter 126
        ((0,), 64, np.int16),  # diameter 128
        ((1000,), 3, np.int8),  # coordinates far beyond int8 range
        ((151, 150), 6, np.int8),
    ])
    def test_dtype_holds_the_diameter(self, line, center, radius, dtype):
        ball = enumerate_ball(center, radius, line)
        dist = Ball(ball.geometry, ball.center, ball.radius, ball.members).pairwise_distances
        arr = ball.member_array
        assert dist.dtype == dtype
        assert np.array_equal(dist, np.max(np.abs(arr[:, None] - arr[None]), axis=2))

    def test_the_generic_loop_narrows_too(self, long_path):
        ball = enumerate_ball(_on_path((2, 0)), 3, long_path)
        dist = ball.pairwise_distances
        assert dist.dtype == np.int8 and dist.max() == 6
        assert dist.tolist() == [[config_distance(x, y, long_path) for y in ball.members]
                                 for x in ball.members]


class TestSectorFastPath:
    """The 1D sector's numpy geometry against the generic loops."""

    @pytest.mark.parametrize("radius", range(7))
    @pytest.mark.parametrize("center", SECTOR_CENTERS)
    def test_matches_the_generic_loops(self, line, long_path, center, radius):
        ball = enumerate_ball(center, radius, line)
        loop = enumerate_ball(_on_path(center), radius, long_path)
        assert ball._sector_moves is not None and loop._sector_moves is None
        assert loop.members == tuple(_on_path(m) for m in ball.members)
        assert np.array_equal(ball.edge_index_pairs, loop.edge_index_pairs)
        assert ball.edge_index_pairs.dtype == np.int64
        assert [(_on_path(x), _on_path(y)) for x, y in ball.sector_boundary_pairs] == list(
            loop.sector_boundary_pairs
        )
        assert np.array_equal(ball.interior_boundary_rows, loop.interior_boundary_rows)
        assert np.array_equal(ball.distances_from_center, loop.distances_from_center)
        assert ball.distances_from_center.dtype == np.int64
        step = InteractionModel(kind="step", amplitude=2.0, range_=1)
        for convention in ("induced", "fixed"):
            fast = _build_structure(ball, convention, step)
            slow = _build_structure(loop, convention, step)
            assert all(np.array_equal(a, b) for a, b in zip(fast.hops, slow.hops))
            assert np.array_equal(fast.sites, slow.sites)
            assert np.array_equal(fast.laplacian_diagonal, slow.laplacian_diagonal)
            assert np.array_equal(fast.interaction_diagonal, slow.interaction_diagonal)
        if len(ball) > 2000:
            return
        # on an uncached copy, so that the n x n array is freed after the test
        dist = Ball(ball.geometry, ball.center, ball.radius, ball.members).pairwise_distances
        # a diameter of at most 2 radius = 12 fits int8
        assert dist.dtype == np.int8
        # the (n, n, N) broadcast it replaces
        arr = ball.member_array
        assert np.array_equal(dist, np.max(np.abs(arr[:, None] - arr[None]), axis=2))
        if len(ball) <= 150:
            assert np.array_equal(dist, loop.pairwise_distances)

    def test_keys_that_would_overflow_take_the_loop(self, line):
        # a key has one base-5 digit per particle at radius 1: 5**27 fits
        # in int64, 5**28 does not
        for n, fast in ((27, True), (28, False)):
            ball = enumerate_ball(tuple(range(n - 1, -1, -1)), 1, line)
            assert (ball._sector_moves is not None) == fast
            loop = Ball(ball.geometry, ball.center, ball.radius, ball.members)
            loop.__dict__["_sector_moves"] = None
            assert np.array_equal(ball.edge_index_pairs, loop.edge_index_pairs)
            assert ball.sector_boundary_pairs == loop.sector_boundary_pairs
