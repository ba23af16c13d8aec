"""Configuration spaces for N indistinguishable particles on a lattice or graph.

A configuration is a tuple of N pairwise-distinct single-particle sites kept
in canonical (strictly decreasing) order.  On the 1D integer lattice this is
the positive sector {x1 > x2 > ... > xN}; on a general connected graph it is
the set of N-point subsets with the edge structure of the symmetric power
(two configurations are adjacent when they differ in exactly one particle,
moved along one edge).

Distances:
  * site distance: graph distance of the underlying one-particle space
    (L1 distance on the integer lattice, BFS distance on explicit graphs);
  * configuration distance: minimum over particle matchings of the largest
    single-particle displacement (for strictly decreasing 1D configurations
    the identity matching is optimal, so it reduces to the coordinate-wise
    maximum).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

class DimensionError(ValueError):
    """Mismatched particle numbers or geometries."""


class GeometryError(ValueError):
    """Operation not applicable to the given geometric situation."""


@dataclass(frozen=True)
class LatticeGeometry:
    """One-particle space: integer lattice of dimension d, or explicit graph.

    For an explicit graph, ``adjacency`` lists the neighbours of vertex i;
    the graph must be connected and undirected.  ``growth_constant`` is a
    declared bound C with |ball_L(x)| <= C * L**d for L >= 1, checkable by
    enumeration.
    """

    kind: str = "lattice"  # "lattice" | "graph"
    d: int = 1
    growth_constant: float | None = None
    adjacency: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lattice", "graph"):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "graph":
            if not self.adjacency:
                raise ValueError("explicit graph needs adjacency lists")
            if not self._connected():
                raise ValueError("explicit graph must be connected")
        if self.growth_constant is not None and self.growth_constant < 1:
            raise ValueError("growth constant must be >= 1")

    def _connected(self) -> bool:
        n = len(self.adjacency)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    @cached_property
    def _graph_dist(self) -> np.ndarray:
        """All-pairs BFS distances for explicit graphs."""
        n = len(self.adjacency)
        dist = np.full((n, n), -1, dtype=np.int64)
        for s in range(n):
            dist[s, s] = 0
            queue = [s]
            while queue:
                nxt = []
                for v in queue:
                    for w in self.adjacency[v]:
                        if dist[s, w] < 0:
                            dist[s, w] = dist[s, v] + 1
                            nxt.append(w)
                queue = nxt
        return dist

    # -- single-particle operations ------------------------------------

    def normalize_site(self, site) -> "Site":
        if self.kind == "graph":
            return int(site)
        if self.d == 1:
            if isinstance(site, (tuple, list)):
                (site,) = site
            return int(site)
        site = tuple(int(c) for c in site)
        if len(site) != self.d:
            raise DimensionError(f"site {site!r} has wrong dimension")
        return site

    def site_distance(self, a, b) -> int:
        if self.kind == "graph":
            return int(self._graph_dist[a, b])
        if self.d == 1:
            return abs(a - b)
        return sum(abs(p - q) for p, q in zip(a, b))

    def site_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``site_distance`` elementwise over integer site arrays, with the
        coordinates on the last axis when d > 1."""
        if self.kind == "graph":
            return self._graph_dist[a, b]
        diff = np.abs(a - b)
        return diff if self.d == 1 else diff.sum(axis=-1)

    def site_neighbors(self, site):
        if self.kind == "graph":
            return list(self.adjacency[site])
        if self.d == 1:
            return [site - 1, site + 1]
        out = []
        for axis in range(self.d):
            for step in (-1, 1):
                s = list(site)
                s[axis] += step
                out.append(tuple(s))
        return out

    def site_degree(self, site) -> int:
        return len(self.site_neighbors(site))

    def site_ball(self, site, radius: int) -> list:
        """All sites at distance <= radius from ``site``."""
        if radius < 0:
            return []
        if self.kind == "graph":
            row = self._graph_dist[site]
            return [int(v) for v in np.nonzero(row <= radius)[0]]
        if self.d == 1:
            return list(range(site - radius, site + radius + 1))
        ranges = [range(c - radius, c + radius + 1) for c in site]
        return [
            pt
            for pt in itertools.product(*ranges)
            if sum(abs(p - q) for p, q in zip(pt, site)) <= radius
        ]

    def check_growth(self, site, radii) -> bool:
        """Verify |ball_L| <= growth_constant * L**d on the given radii."""
        if self.growth_constant is None:
            return True
        return all(
            len(self.site_ball(site, L)) <= self.growth_constant * L**self.d
            for L in radii
            if L >= 1
        )


# -- configurations ------------------------------------------------------


def canonical_config(positions, geometry: LatticeGeometry) -> tuple:
    """Canonical form: pairwise distinct sites sorted in decreasing order."""
    sites = tuple(geometry.normalize_site(p) for p in positions)
    if len(set(sites)) != len(sites):
        raise ValueError(f"positions must be pairwise distinct, got {sites}")
    return tuple(sorted(sites, reverse=True))


def config_distance(x, y, geometry: LatticeGeometry) -> int:
    """Largest single-particle displacement, minimized over matchings.

    For canonical strictly decreasing 1D configurations the identity
    matching is optimal and the value is max_j |x_j - y_j|.
    """
    if len(x) != len(y):
        raise DimensionError(f"particle numbers differ: {len(x)} vs {len(y)}")
    if geometry.kind == "lattice" and geometry.d == 1:
        return max(abs(a - b) for a, b in zip(x, y))
    best = None
    for perm in itertools.permutations(y):
        m = max(geometry.site_distance(a, b) for a, b in zip(x, perm))
        if best is None or m < best:
            best = m
    return best


def subconfig_distance(x1, x2, geometry: LatticeGeometry) -> int:
    """Minimum site distance between two disjoint groups of particles."""
    return min(
        geometry.site_distance(a, b) for a in x1 for b in x2
    )


def diam(x, geometry: LatticeGeometry) -> int:
    """Largest pairwise single-particle distance within one configuration."""
    if len(x) <= 1:
        return 0
    return max(
        geometry.site_distance(a, b)
        for a, b in itertools.combinations(x, 2)
    )


def occupation_map(x) -> dict:
    """Site -> multiplicity for a configuration (ordered tuples allowed).

    Canonical sector configurations have all counts equal to one; ordered
    tuples describing distinguishable particles may occupy a site twice.
    """
    counts: dict = {}
    for p in x:
        counts[p] = counts.get(p, 0) + 1
    return counts


def config_neighbors(x, geometry: LatticeGeometry) -> list:
    """Sector configurations reachable by moving one particle one step."""
    out = []
    occupied = set(x)
    for j, site in enumerate(x):
        for s in geometry.site_neighbors(site):
            if s in occupied:
                continue
            y = list(x)
            y[j] = s
            out.append(tuple(sorted(y, reverse=True)))
    return out


# -- balls ---------------------------------------------------------------


def _narrowest_int(largest: int) -> np.dtype:
    """The narrowest signed integer dtype that holds 0 .. ``largest``."""
    # -largest - 1 is negative, so the type found is signed
    return np.min_scalar_type(-largest - 1)


@dataclass(frozen=True)
class Ball:
    """All sector configurations within ``radius`` of ``center``.

    ``members`` are canonical configurations in ascending lexicographic
    order; the order defines the row/column indexing of every operator
    assembled on the ball.
    """

    geometry: LatticeGeometry
    center: tuple
    radius: int
    members: tuple
    metric: str = "max"  # "max" (1D sector) | "sym" (matching-minimized)

    @property
    def n_particles(self) -> int:
        return len(self.center)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def index(self) -> dict:
        return {cfg: i for i, cfg in enumerate(self.members)}

    @cached_property
    def member_array(self) -> np.ndarray:
        """Members as an integer array, shape (n, N) or (n, N, d)."""
        return np.asarray(self.members, dtype=np.int64)

    @cached_property
    def projection(self) -> tuple:
        """All single-particle sites occurring in some member."""
        sites = set()
        for cfg in self.members:
            sites.update(cfg)
        return tuple(sorted(sites))

    def contains(self, cfg) -> bool:
        return cfg in self.index

    def center_index(self) -> int:
        return self.index[self.center]

    @property
    def _is_1d_sector(self) -> bool:
        g = self.geometry
        return g.kind == "lattice" and g.d == 1

    @cached_property
    def distances_from_center(self) -> np.ndarray:
        if self._is_1d_sector:
            center = np.asarray(self.center, dtype=np.int64)
            return np.abs(self.member_array - center).max(axis=1)
        g = self.geometry
        return np.array(
            [config_distance(self.center, cfg, g) for cfg in self.members],
            dtype=np.int64,
        )

    @cached_property
    def pairwise_distances(self) -> np.ndarray:
        """Configuration distances between all member pairs, in the
        narrowest signed integer dtype that holds the ball's diameter
        (int8 up to 127): the array lives as long as the cached ball.

        Cheap Chebyshev formula on canonical coordinates for the 1D sector,
        one coordinate at a time, each shifted to start at 0 so that its
        differences fit the dtype; matching-minimized elsewhere.
        """
        n = len(self.members)
        if self._is_1d_sector:
            cols = self.member_array.reshape(n, -1).T
            cols = cols - cols.min(axis=1, keepdims=True)
            dtype = _narrowest_int(int(cols.max()))
            out = np.zeros((n, n), dtype=dtype)
            for col in cols.astype(dtype):
                diff = np.subtract.outer(col, col)
                np.maximum(out, np.abs(diff, out=diff), out=out)
            return out
        out = np.zeros((n, n), dtype=np.int64)
        g = self.geometry
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = config_distance(
                    self.members[i], self.members[j], g
                )
        return out.astype(_narrowest_int(int(out.max(initial=0))))

    @cached_property
    def _far_pair_counts(self) -> dict:
        return {}

    def pairs_at_least(self, distance: int) -> int:
        """Unordered member pairs at distance >= ``distance`` (a member with
        itself counting half where ``distance`` <= 0), counted once per
        distance and kept on the ball."""
        count = self._far_pair_counts.get(distance)
        if count is None:
            count = int(np.count_nonzero(self.pairwise_distances >= distance) // 2)
            self._far_pair_counts[distance] = count
        return count

    @cached_property
    def _sector_moves(self):
        """Every one-particle move of every member of a 1D sector ball, as
        ``config_neighbors`` lists them: (stays, target), both shaped
        (member, particle, step -1 then +1).  ``stays`` says the move keeps
        the configuration in the sector, ``target`` is the index of the
        moved configuration in the ball, -1 outside it.  None off the 1D
        sector, or when the integer keys would overflow int64.

        A move keeps the strict order unless it lands on the adjacent
        particle, so the moved configuration needs no re-sorting.  Members
        are looked up by a mixed-radix key that orders like the tuples.
        """
        if not self._is_1d_sector:
            return None
        arr = self.member_array
        n, npart = arr.shape
        # moves reach one site beyond the members' range on each side
        lo = arr.min(axis=0) - 1
        base = int((arr.max(axis=0) - lo).max()) + 2
        if base**npart > np.iinfo(np.int64).max:
            return None
        place = base ** np.arange(npart - 1, -1, -1, dtype=np.int64)
        keys = ((arr - lo) * place).sum(axis=1)
        moved = keys[:, None, None] + place[:, None] * np.array([-1, 1])
        stays = np.ones((n, npart, 2), dtype=bool)
        apart = arr[:, :-1] - arr[:, 1:] > 1
        stays[:, :-1, 0] = apart
        stays[:, 1:, 1] = apart
        pos = np.minimum(np.searchsorted(keys, moved), n - 1)
        target = np.where(keys[pos] == moved, pos, -1)
        return stays, target

    @cached_property
    def edge_index_pairs(self) -> np.ndarray:
        """Index pairs (i, j), i < j, of adjacent members, shape (m, 2)."""
        if self._sector_moves is not None:
            stays, target = self._sector_moves
            i = np.broadcast_to(np.arange(len(self))[:, None, None], target.shape)
            keep = stays & (target > i)
            return np.stack([i[keep], target[keep]], axis=1)
        pairs = []
        idx = self.index
        for i, cfg in enumerate(self.members):
            for nb in config_neighbors(cfg, self.geometry):
                j = idx.get(nb)
                if j is not None and j > i:
                    pairs.append((i, j))
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)

    @cached_property
    def sector_boundary_pairs(self) -> tuple:
        """Edge boundary pairs (inside, outside) within the full sector."""
        if self._sector_moves is not None:
            stays, target = self._sector_moves
            i, j, step = np.nonzero(stays & (target < 0))
            outside = self.member_array[i]
            outside[np.arange(len(i)), j] += 2 * step - 1
            return tuple(
                (self.members[k], tuple(nb)) for k, nb in zip(i.tolist(), outside.tolist())
            )
        pairs = []
        idx = self.index
        for cfg in self.members:
            for nb in config_neighbors(cfg, self.geometry):
                if nb not in idx:
                    pairs.append((cfg, nb))
        return tuple(pairs)

    @cached_property
    def interior_boundary_rows(self) -> np.ndarray:
        """Member indices of ``interior_boundary(self)``, in its order
        (read-only: every caller shares it)."""
        rows = np.array([self.index[c] for c in interior_boundary(self)], dtype=np.intp)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _stride_grids(self) -> dict:
        return {}

    def stride_grid(self, stride: int, limit: int) -> "StrideGrid":
        """Members on the stride grid within ``limit`` of the centre,
        computed once per (stride, limit) and kept on the ball.

        On lattices the grid keeps members all of whose coordinate offsets
        from the centre are multiples of the stride; explicit graphs fall
        back to every stride-th member in canonical order.
        """
        if stride < 1:
            raise ValueError("stride must be >= 1")
        grid = self._stride_grids.get((stride, limit))
        if grid is None:
            keep = self.distances_from_center <= limit
            if self.geometry.kind == "lattice":
                offs = self.member_array - np.asarray(self.center, dtype=np.int64)
                keep &= np.all(offs.reshape(len(self), -1) % stride == 0, axis=1)
                rows = np.nonzero(keep)[0]
            else:
                rows = np.nonzero(keep)[0][::stride]
            grid = StrideGrid(tuple(self.members[i] for i in rows), self.geometry)
            self._stride_grids[(stride, limit)] = grid
        return grid


@dataclass(frozen=True)
class StrideGrid:
    """Sub-ball centres of a ball on a stride grid (``Ball.stride_grid``)."""

    centers: tuple
    geometry: LatticeGeometry

    @cached_property
    def pairs(self) -> tuple:
        """(c1, c2, config distance) of every pair of centres, c1 before c2
        in ``centers``, in the order of two nested loops over them."""
        cs, g = self.centers, self.geometry
        return tuple(
            (c1, c2, config_distance(c1, c2, g)) for i, c1 in enumerate(cs) for c2 in cs[i + 1 :]
        )


def _descending_tuples(lo_hi: list) -> list:
    """Strictly decreasing integer tuples with per-slot bounds (1D sector)."""
    out = []
    n = len(lo_hi)

    def rec(j, prev, acc):
        lo, hi = lo_hi[j]
        if prev is not None:
            hi = min(hi, prev - 1)
        for v in range(hi, lo - 1, -1):
            nxt = acc + (v,)
            if j == n - 1:
                out.append(nxt)
            else:
                rec(j + 1, v, nxt)

    rec(0, None, ())
    return out


def enumerate_ball(center, radius: int, geometry: LatticeGeometry) -> Ball:
    """Enumerate the sector ball of the given radius around ``center``.

    Balls are immutable and cached per (geometry, center, radius); the
    cache also preserves their lazily computed distance and boundary
    structure across disorder trials.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _build_ball(canonical_config(center, geometry), radius, geometry)


@lru_cache(maxsize=512)
def _build_ball(center, radius: int, geometry: LatticeGeometry) -> Ball:
    if geometry.kind == "lattice" and geometry.d == 1:
        bounds = [(c - radius, c + radius) for c in center]
        members = _descending_tuples(bounds)
        metric = "max"
    else:
        candidate_sites = [geometry.site_ball(c, radius) for c in center]
        seen = set()
        members = []
        for combo in itertools.product(*candidate_sites):
            if len(set(combo)) != len(combo):
                continue
            cfg = tuple(sorted(combo, reverse=True))
            if cfg in seen:
                continue
            seen.add(cfg)
            if config_distance(center, cfg, geometry) <= radius:
                members.append(cfg)
        metric = "sym"
    members.sort()
    return Ball(geometry, center, radius, tuple(members), metric)


def merge_configs(x1, x2, geometry: LatticeGeometry) -> tuple:
    return canonical_config(tuple(x1) + tuple(x2), geometry)


def factorization_check(x1, x2, radius: int, geometry: LatticeGeometry) -> bool:
    """Does the ball around (x1, x2) split into the product of sub-balls?

    True exactly when every pairing of a member of ball(x1) with a member
    of ball(x2) is a valid sector configuration, the pairings are pairwise
    distinct, and together they exhaust the joint ball.  Guaranteed when
    the groups are separated by more than twice the radius.
    """
    b1 = enumerate_ball(canonical_config(x1, geometry), radius, geometry)
    b2 = enumerate_ball(canonical_config(x2, geometry), radius, geometry)
    try:
        product_rows(b1, b2)
    except GeometryError:
        return False
    return True


def product_rows(ball_a: Ball, ball_b: Ball) -> tuple:
    """(joint ball, product row i*len(ball_b)+j of each joint row), the
    joint row being the one of merge(members_a[i], members_b[j]).

    Raises GeometryError unless the merged members are valid, pairwise
    distinct and exhaust the joint ball (``factorization_check``).
    """
    if ball_a.geometry != ball_b.geometry:
        raise GeometryError("factor balls live on different geometries")
    if ball_a.radius != ball_b.radius:
        raise GeometryError("factor balls must share the radius")
    g = ball_a.geometry
    joint = enumerate_ball(merge_configs(ball_a.center, ball_b.center, g), ball_a.radius, g)
    # joint row of each product row; None where the merge is no configuration
    joint_rows = [
        None if set(a) & set(b) else joint.index.get(merge_configs(a, b, g))
        for a in ball_a.members
        for b in ball_b.members
    ]
    if None in joint_rows or len(set(joint_rows)) != len(joint_rows) or len(joint_rows) != len(joint):
        raise GeometryError("joint ball does not factor into the given sub-balls")
    prod_of_joint = np.empty(len(joint), dtype=np.int64)
    prod_of_joint[joint_rows] = np.arange(len(joint_rows))
    return joint, prod_of_joint


# -- boundaries ----------------------------------------------------------


def edge_boundary(ball: Ball, ambient: Ball | None = None) -> list:
    """Ordered pairs (inside, outside) of adjacent configurations.

    ``ambient=None`` means the full (infinite) sector; otherwise the
    outside configuration must belong to ``ambient``.
    """
    if ambient is None:
        return list(ball.sector_boundary_pairs)
    if any(cfg not in ambient.index for cfg in ball.members):
        raise GeometryError("ball is not contained in the ambient ball")
    return [
        (x, y) for x, y in ball.sector_boundary_pairs if ambient.contains(y)
    ]


def interior_boundary(ball: Ball, ambient: Ball | None = None) -> list:
    """Members adjacent to at least one configuration outside the ball."""
    seen = []
    found = set()
    for x, _ in edge_boundary(ball, ambient):
        if x not in found:
            found.add(x)
            seen.append(x)
    return seen


def exterior_boundary(ball: Ball, ambient: Ball | None = None) -> list:
    """Outside configurations adjacent to at least one member."""
    seen = []
    found = set()
    for _, y in edge_boundary(ball, ambient):
        if y not in found:
            found.add(y)
            seen.append(y)
    return seen


# -- interactive classification -------------------------------------------


class NotDecomposableError(GeometryError):
    """Raised when asked to decompose a fully interactive ball."""


@dataclass(frozen=True)
class Decomposition:
    """Split of a configuration into two non-interacting particle groups.

    ``index_set`` holds 1-based particle indices into the canonical tuple;
    its complement forms the second group.  ``separation`` is the minimum
    site distance between the groups.
    """

    index_set: tuple
    complement: tuple
    part1: tuple
    part2: tuple
    separation: int

    def reassembles(self, x, geometry: LatticeGeometry) -> bool:
        return merge_configs(self.part1, self.part2, geometry) == tuple(x)


def classify_ball(ball: Ball, params) -> str:
    """'PI' when the configuration diameter exceeds the regime threshold.

    Partially interactive (PI) balls split into two groups whose mutual
    distance exceeds twice the radius; fully interactive (FI) balls do not
    come with that guarantee.  The threshold is strict and evaluated in
    exact integer arithmetic through ``params.is_pi_diameter``.
    """
    d = diam(ball.center, ball.geometry)
    return "PI" if params.is_pi_diameter(d, ball.radius) else "FI"


def maximal_separation_split(x, geometry: LatticeGeometry) -> Decomposition:
    """Two-group split of a configuration with the largest separation.

    Ties resolve to the lexicographically smallest 1-based index set
    containing particle 1 (particles are indexed along the canonical
    decreasing order).
    """
    n = len(x)
    if n < 2:
        raise NotDecomposableError("a single particle admits no split")
    best = None
    indices = range(1, n + 1)
    for size in range(1, n):
        for subset in itertools.combinations(indices, size):
            if 1 not in subset:
                continue  # dedupe unordered splits
            comp = tuple(i for i in indices if i not in subset)
            part1 = tuple(x[i - 1] for i in subset)
            part2 = tuple(x[i - 1] for i in comp)
            sep = subconfig_distance(part1, part2, geometry)
            key = (-sep, subset)
            if best is None or key < best[0]:
                best = (key, Decomposition(subset, comp, part1, part2, sep))
    return best[1]


def canonical_decomposition(ball: Ball, params) -> Decomposition:
    """Maximal-separation split of a partially interactive ball.

    The returned separation always exceeds the regime threshold (twice
    the radius, or its long-range analogue); fully interactive balls
    raise, since no split is guaranteed to clear the threshold.
    """
    if classify_ball(ball, params) != "PI":
        raise NotDecomposableError(
            f"ball at {ball.center} with radius {ball.radius} is fully interactive"
        )
    dec = maximal_separation_split(ball.center, ball.geometry)
    if not params.decomposition_separation_ok(dec.separation, ball.radius):
        raise NotDecomposableError(
            f"best split separation {dec.separation} below the regime threshold"
        )
    return dec


# -- weak separability (box witnesses) ------------------------------------


@dataclass(frozen=True)
class SeparabilityWitness:
    """Box in one-particle space capturing more of one ball than the other.

    ``box`` is an axis-aligned parallelepiped given as (lo, hi) per axis.
    ``captured_first`` / ``captured_second`` are 1-based particle indices
    of the first/second ball whose one-particle neighbourhoods lie inside
    the box; every other particle's neighbourhood is disjoint from it.
    """

    box: tuple
    captured_first: tuple
    captured_second: tuple
    first_separable_from_second: bool = True


def _as_coords(site, d: int) -> tuple:
    return (site,) if d == 1 else tuple(site)


def _box_of(points, d: int, pad: int) -> tuple:
    los = [min(p[a] for p in points) - pad for a in range(d)]
    his = [max(p[a] for p in points) + pad for a in range(d)]
    return tuple((lo, hi) for lo, hi in zip(los, his))


def _interval_relation(lo: int, hi: int, c: int, pad: int) -> str:
    """Relation of [c-pad, c+pad] to [lo, hi]: inside/outside/partial."""
    if lo <= c - pad and c + pad <= hi:
        return "inside"
    if c + pad < lo or c - pad > hi:
        return "outside"
    return "partial"


def _cube_box_relation(point, box, pad: int) -> str:
    """Relation of the cube point +- pad to the box (product of intervals)."""
    rels = [
        _interval_relation(lo, hi, c, pad) for (lo, hi), c in zip(box, point)
    ]
    if all(r == "inside" for r in rels):
        return "inside"
    if any(r == "outside" for r in rels):
        return "outside"
    return "partial"


def _witness_one_direction(x, y, radius: int, d: int):
    """Search for a box capturing strictly more of x than of y.

    Candidate boxes are bounding boxes of subsets of the 2N particle
    positions inflated by the radius, enumerated smallest subset first.
    A candidate is valid when every one-particle cube (site +- radius,
    per axis) is either fully inside or fully outside the box, the box
    captures strictly more x-cubes than y-cubes, and its side lengths do
    not exceed 2NL.
    """
    n = len(x)
    xpts = [_as_coords(s, d) for s in x]
    ypts = [_as_coords(s, d) for s in y]
    allpts = xpts + ypts
    max_side = 2 * n * radius
    ids = range(2 * n)
    for size in range(1, 2 * n + 1):
        for subset in itertools.combinations(ids, size):
            pts = [allpts[i] for i in subset]
            box = _box_of(pts, d, radius)
            if any(hi - lo > max_side for lo, hi in box):
                continue
            j1, j2 = [], []
            ok = True
            for j, p in enumerate(xpts):
                rel = _cube_box_relation(p, box, radius)
                if rel == "inside":
                    j1.append(j + 1)
                elif rel == "partial":
                    ok = False
                    break
            if not ok:
                continue
            for i, p in enumerate(ypts):
                rel = _cube_box_relation(p, box, radius)
                if rel == "inside":
                    j2.append(i + 1)
                elif rel == "partial":
                    ok = False
                    break
            if ok and len(j1) > len(j2):
                return box, tuple(j1), tuple(j2)
    return None


def find_separability_witness(ball_x: Ball, ball_y: Ball):
    """Box witness that one ball is weakly separable from the other.

    Tries to separate the first ball from the second, then the reverse;
    returns None when no candidate box works.  Requires equal particle
    numbers and radii, and a lattice geometry (boxes are axis-aligned
    parallelepipeds in the one-particle space).
    """
    if ball_x.n_particles != ball_y.n_particles:
        raise DimensionError("particle numbers differ")
    if ball_x.radius != ball_y.radius:
        raise DimensionError("radii differ")
    g = ball_x.geometry
    if g.kind != "lattice":
        raise GeometryError("box witnesses are defined for lattice geometries")
    L, d = ball_x.radius, g.d
    hit = _witness_one_direction(ball_x.center, ball_y.center, L, d)
    if hit is not None:
        return SeparabilityWitness(hit[0], hit[1], hit[2], True)
    hit = _witness_one_direction(ball_y.center, ball_x.center, L, d)
    if hit is not None:
        return SeparabilityWitness(hit[0], hit[1], hit[2], False)
    return None


def witness_is_valid(witness: SeparabilityWitness, ball_x: Ball, ball_y: Ball) -> bool:
    """Re-check a witness by enumerating one-particle cubes against the box."""
    if witness is None:
        return False
    first, second = (ball_x, ball_y) if witness.first_separable_from_second else (
        ball_y,
        ball_x,
    )
    g = first.geometry
    d = g.d
    L = first.radius
    box = witness.box
    n = first.n_particles
    if any(hi - lo > 2 * n * L for lo, hi in box):
        return False

    def cube_sites(site):
        coords = _as_coords(site, d)
        axes = [range(c - L, c + L + 1) for c in coords]
        return set(itertools.product(*axes))

    box_sites = set(itertools.product(*[range(lo, hi + 1) for lo, hi in box]))
    for j, site in enumerate(first.center, start=1):
        cube = cube_sites(site)
        if j in witness.captured_first:
            if not cube <= box_sites:
                return False
        elif cube & box_sites:
            return False
    for i, site in enumerate(second.center, start=1):
        cube = cube_sites(site)
        if i in witness.captured_second:
            if not cube <= box_sites:
                return False
        elif cube & box_sites:
            return False
    return len(witness.captured_first) > len(witness.captured_second)
