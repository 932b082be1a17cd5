"""Domains, structured grids, crack sets and crack covers.

Cracks are restricted to grid-conforming polylines (sets of grid edges), so
their length is exact and the cracked function space is a plain
duplicated-node space (see :func:`cut_grid`).

Edge encoding: ``("h", i, j)`` joins nodes (i, j)-(i+1, j); ``("v", i, j)``
joins (i, j)-(i, j+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _cs_components

from .errors import BudgetTooLarge, NonConformingCrack

SIDES = ("left", "right", "bottom", "top")

Edge = tuple  # ("h"|"v", i, j)


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle with a Dirichlet/Neumann boundary split: the
    Dirichlet part is a tuple of distinct whole side names from SIDES."""

    x0: float
    y0: float
    x1: float
    y1: float
    dirichlet_part: tuple = ()

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("degenerate rectangle")
        for k, side in enumerate(self.dirichlet_part):
            if side not in SIDES:
                raise ValueError(f"unknown side {side!r} (choose from {SIDES})")
            if side in self.dirichlet_part[:k]:
                raise ValueError(f"side {side!r} is named twice")

    @classmethod
    def rectangle(cls, x0, y0, x1, y1, dirichlet="all"):
        """Build a rectangle domain; `dirichlet` is "all" or side names."""
        return cls(x0, y0, x1, y1, SIDES if dirichlet == "all" else tuple(dirichlet))

    @classmethod
    def unit_square(cls, dirichlet="all", centered=False):
        if centered:
            return cls.rectangle(-0.5, -0.5, 0.5, 0.5, dirichlet)
        return cls.rectangle(0.0, 0.0, 1.0, 1.0, dirichlet)

    @property
    def width(self):
        return self.x1 - self.x0

    @property
    def height(self):
        return self.y1 - self.y0

    def dirichlet_length(self):
        return sum(self.height if s in ("left", "right") else self.width
                   for s in self.dirichlet_part)

    def contains(self, x, y):
        return (self.x0 - 1e-12 <= x <= self.x1 + 1e-12) and (
            self.y0 - 1e-12 <= y <= self.y1 + 1e-12
        )

    def distance_to_boundary(self, x, y):
        """Distance from an interior point to the rectangle boundary."""
        return min(x - self.x0, self.x1 - x, y - self.y0, self.y1 - y)

    def project_to_boundary(self, x, y):
        """Nearest boundary point of the rectangle."""
        cands = [
            (x - self.x0, (self.x0, min(max(y, self.y0), self.y1))),
            (self.x1 - x, (self.x1, min(max(y, self.y0), self.y1))),
            (y - self.y0, (min(max(x, self.x0), self.x1), self.y0)),
            (self.y1 - y, (min(max(x, self.x0), self.x1), self.y1)),
        ]
        return min(cands, key=lambda c: abs(c[0]))[1]


class Grid:
    """Uniform square-cell grid covering a rectangle domain exactly.

    Node id = i + j*(nx+1); cell id = i + j*nx; corner order within a cell
    is (i,j), (i+1,j), (i,j+1), (i+1,j+1).
    """

    def __init__(self, domain: Domain, nx: int, ny: int = None):
        if ny is None:
            ny = round(nx * domain.height / domain.width)
        if nx < 2 or ny < 2:
            raise ValueError("need nx, ny >= 2")
        hx = domain.width / nx
        hy = domain.height / ny
        if abs(hx - hy) > 1e-9 * hx:
            raise ValueError(f"cells must be square: hx={hx} hy={hy}")
        self.domain = domain
        self.nx = int(nx)
        self.ny = int(ny)
        self.h = hx

    # --- counts and coordinates -------------------------------------------

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_cells(self):
        return self.nx * self.ny

    def node_ij(self, ids):
        ids = np.asarray(ids)
        return ids % (self.nx + 1), ids // (self.nx + 1)

    def node_id(self, i, j):
        return i + j * (self.nx + 1)

    def node_xy(self, ids=None):
        if ids is None:
            ids = np.arange(self.n_nodes)
        i, j = self.node_ij(ids)
        return self.domain.x0 + i * self.h, self.domain.y0 + j * self.h

    def cell_id(self, i, j):
        return i + j * self.nx

    def cell_ij(self, ids):
        ids = np.asarray(ids)
        return ids % self.nx, ids // self.nx

    def cell_centers(self):
        x = self.domain.x0 + (np.arange(self.nx) + 0.5) * self.h
        y = self.domain.y0 + (np.arange(self.ny) + 0.5) * self.h
        return np.tile(x, self.ny), np.repeat(y, self.nx)

    def cell_corner_nodes(self):
        """(n_cells, 4) node ids in corner order."""
        ids = np.arange(self.n_cells)
        i, j = self.cell_ij(ids)
        n00 = self.node_id(i, j)
        return np.stack(
            [n00, n00 + 1, n00 + (self.nx + 1), n00 + (self.nx + 2)], axis=1
        )

    def cells_around(self, nodes):
        """The ids of the cells (up to 4) that have a corner at each node."""
        i, j = self.node_ij(nodes)
        ci = i[:, None] + np.array([-1, 0, -1, 0])
        cj = j[:, None] + np.array([-1, -1, 0, 0])
        ok = (ci >= 0) & (ci < self.nx) & (cj >= 0) & (cj < self.ny)
        return self.cell_id(ci[ok], cj[ok])

    # --- edges --------------------------------------------------------------

    def edge_valid(self, edge: Edge):
        kind, i, j = edge
        if kind == "h":
            return 0 <= i < self.nx and 0 <= j <= self.ny
        if kind == "v":
            return 0 <= i <= self.nx and 0 <= j < self.ny
        return False

    def edge_nodes(self, edge: Edge):
        kind, i, j = edge
        a = self.node_id(i, j)
        return (a, a + 1) if kind == "h" else (a, a + self.nx + 1)

    def edge_midpoint(self, edge: Edge):
        kind, i, j = edge
        x = self.domain.x0 + (i + (0.5 if kind == "h" else 0.0)) * self.h
        y = self.domain.y0 + (j + (0.5 if kind == "v" else 0.0)) * self.h
        return x, y

    def edge_flank_cells(self, edge: Edge):
        """Cell ids on the two sides of an edge (None outside the grid).

        For "h" edges: (below, above); for "v" edges: (left, right).
        """
        kind, i, j = edge
        if kind == "h":
            below = self.cell_id(i, j - 1) if j > 0 else None
            above = self.cell_id(i, j) if j < self.ny else None
            return below, above
        left = self.cell_id(i - 1, j) if i > 0 else None
        right = self.cell_id(i, j) if i < self.nx else None
        return left, right

    def edge_normal(self, edge: Edge):
        """Unit normal pointing into the second flank cell side."""
        return (0.0, 1.0) if edge[0] == "h" else (1.0, 0.0)

    # --- boundary -------------------------------------------------------------

    def side_nodes(self, side):
        nx, ny = self.nx, self.ny
        if side == "left":
            return self.node_id(0, np.arange(ny + 1))
        if side == "right":
            return self.node_id(nx, np.arange(ny + 1))
        if side == "bottom":
            return self.node_id(np.arange(nx + 1), 0)
        if side == "top":
            return self.node_id(np.arange(nx + 1), ny)
        raise ValueError(side)

    def boundary_nodes(self):
        return np.unique(np.concatenate([self.side_nodes(s) for s in SIDES]))

    def dirichlet_nodes(self):
        """Sorted node ids on the Dirichlet sides, corners included."""
        part = self.domain.dirichlet_part
        if not part:
            return np.empty(0, dtype=int)
        return np.unique(np.concatenate([self.side_nodes(s) for s in part]))

    def boundary_edges(self, side):
        nx, ny = self.nx, self.ny
        if side == "left":
            return [("v", 0, j) for j in range(ny)]
        if side == "right":
            return [("v", nx, j) for j in range(ny)]
        if side == "bottom":
            return [("h", i, 0) for i in range(nx)]
        if side == "top":
            return [("h", i, ny) for i in range(nx)]
        raise ValueError(side)


# ---------------------------------------------------------------------------
# crack sets
# ---------------------------------------------------------------------------


class CrackSet:
    """Finite union of grid edges; equality and hashing use the edge set."""

    __slots__ = ("grid", "edges")

    def __init__(self, grid: Grid, edges: Iterable[Edge] = ()):
        self.grid = grid
        edges = frozenset(tuple(e) for e in edges)
        for e in edges:
            if not grid.edge_valid(e):
                raise NonConformingCrack(f"edge {e} not on the grid")
        self.edges = edges

    def __len__(self):
        return len(self.edges)

    def __eq__(self, other):
        return isinstance(other, CrackSet) and self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"CrackSet({len(self.edges)} edges, h1={self.h1():.6g})"

    @property
    def is_empty(self):
        return not self.edges

    def h1(self):
        """Total length: every grid edge has physical length h."""
        return len(self.edges) * self.grid.h

    def nodes(self):
        """Sorted array of endpoint node ids."""
        ids = set()
        for e in self.edges:
            a, b = self.grid.edge_nodes(e)
            ids.add(a)
            ids.add(b)
        return np.array(sorted(ids), dtype=int)

    @classmethod
    def _checked(cls, grid: Grid, edges: frozenset):
        """A crack of edges already checked on this lattice (no re-validation)."""
        crack = cls.__new__(cls)
        crack.grid = grid
        crack.edges = edges
        return crack

    def union(self, other: "CrackSet"):
        """Edges of both cracks; both were checked on this lattice already."""
        if other.grid is not self.grid and not _same_lattice(other.grid, self.grid):
            raise NonConformingCrack("union with a crack from a different grid")
        return CrackSet._checked(self.grid, self.edges | other.edges)

    def sorted_edges(self):
        return sorted(self.edges)

    def points(self):
        """(n, 2) array of endpoint coordinates (for covers and bboxes)."""
        ids = self.nodes()
        x, y = self.grid.node_xy(ids)
        return np.stack([x, y], axis=1)


class _UnionFind:
    """Union-find (Tarjan, J. ACM 22, 1975) over ordered hashable members.

    Each set is rooted at its least member, so roots do not depend on the
    order of the unions.  A member in no union is its own root.
    """

    def __init__(self):
        self.parent = {}        # non-roots only

    def find(self, a):
        parent = self.parent
        while a in parent:
            up = parent[a]
            parent[a] = parent.get(up, up)      # path halving
            a = up
        return a

    def union(self, a, b):
        """Join the sets of a and b; False when they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra < rb:
            ra, rb = rb, ra
        self.parent[ra] = rb
        return True


def connected_components(crack: CrackSet):
    """Split a crack into edge-adjacency components (shared endpoint nodes),
    ordered by their least node."""
    edges = crack.sorted_edges()
    forest = _UnionFind()
    for e in edges:
        forest.union(*crack.grid.edge_nodes(e))
    groups = {}
    for e in edges:
        groups.setdefault(forest.find(crack.grid.edge_nodes(e)[0]), []).append(e)
    return [CrackSet(crack.grid, gs) for _, gs in sorted(groups.items())]


# ---------------------------------------------------------------------------
# cut topology
# ---------------------------------------------------------------------------

# fan bookkeeping around a node (i, j): incident cells with the corner index
# that node occupies there, and the incident edge separating consecutive cells.
_FAN = (
    # (cell di, cell dj, corner index) in cyclic order NE, NW, SW, SE
    ((0, 0, 0), (-1, 0, 1), (-1, -1, 3), (0, -1, 2)),
    # edge separating fan[k] from fan[k+1]: up, left, down, right
    (("v", 0, 0), ("h", -1, 0), ("v", 0, -1), ("h", 0, 0)),
)


class CutTopology:
    """Grid connectivity with nodes duplicated across crack edges.

    Degrees of freedom 0..n_nodes-1 are the original grid nodes; duplicated
    instances are appended after them.  A field value lives on every dof;
    cells address dofs through ``cell_dofs``.
    """

    def __init__(self, grid: Grid, crack: CrackSet):
        self.grid = grid
        self.crack = crack
        self.cell_dofs = grid.cell_corner_nodes()
        self.n_dofs = grid.n_nodes
        self.dof_node = np.arange(grid.n_nodes)
        self._crack_nodes = crack.nodes()
        if not crack.is_empty:
            self._split_nodes()

    def _split_nodes(self):
        grid = self.grid
        cut = self.crack.edges
        extra_nodes = []
        cells_off, edges_off = _FAN
        for node in self._crack_nodes:
            i = int(node % (grid.nx + 1))
            j = int(node // (grid.nx + 1))
            entries = []  # (cell_id, corner)
            for di, dj, corner in cells_off:
                ci, cj = i + di, j + dj
                if 0 <= ci < grid.nx and 0 <= cj < grid.ny:
                    entries.append((grid.cell_id(ci, cj), corner))
                else:
                    entries.append(None)
            fan = _UnionFind()     # over the up-to-4 fan positions
            for k in range(4):
                nk = (k + 1) % 4
                if entries[k] is None or entries[nk] is None:
                    continue
                ek, ei, ej = edges_off[k]
                if (ek, i + ei, j + ej) not in cut:
                    fan.union(k, nk)
            roots = {}
            for k in range(4):
                if entries[k] is None:
                    continue
                r = fan.find(k)
                if r not in roots:
                    roots[r] = node if not roots else self.n_dofs + len(extra_nodes)
                    if roots[r] != node:
                        extra_nodes.append(node)
                cell, corner = entries[k]
                self.cell_dofs[cell, corner] = roots[r]
        if extra_nodes:
            self.dof_node = np.concatenate(
                [self.dof_node, np.array(extra_nodes, dtype=int)]
            )
            self.n_dofs += len(extra_nodes)

    @property
    def n_duplicates(self):
        return self.n_dofs - self.grid.n_nodes

    def constrained_dofs(self):
        """Dofs carrying the Dirichlet datum: grid Dirichlet nodes minus
        nodes touched by the crack (the datum is released on the crack)."""
        dn = self.grid.dirichlet_nodes()
        if len(self._crack_nodes):
            dn = np.setdiff1d(dn, self._crack_nodes, assume_unique=False)
        return dn

    def dof_xy(self):
        return self.grid.node_xy(self.dof_node)

    def floating_dofs(self, constrained):
        """The dofs that no constrained dof anchors, to be pinned to 0.

        One-point quadrature sees a cell only through its diagonal
        differences u11 - u00 and u10 - u01, so a diagonal component (dofs
        joined by cell diagonals) shifts by a constant without changing any
        gradient.  A piece (the cells joined across uncut edges, with their
        dofs; see _cell_pieces) holds exactly two diagonal components, one
        per node parity, since the two dofs of an uncut edge have different
        parities: a dof's diagonal component is 2 * piece + parity.
        Returned are every dof of a piece with no constrained dof, and the
        lowest dof of each other diagonal component with none.  A crack that
        closes no cycle leaves one piece, whose diagonal components are the
        node parities, and dofs 0 and 1 are their lowest.
        """
        if not _closes_a_cycle(self.grid, self.crack.edges):
            i, j = self.grid.node_ij(constrained)
            has = np.zeros(2, dtype=bool)
            has[(i + j) % 2] = True
            return np.flatnonzero(~has) if has.any() else np.arange(self.n_dofs)
        _, _, n, piece = _cell_pieces(self.grid, self.crack.edges)
        i, j = self.grid.node_ij(self.dof_node)
        label = np.empty(self.n_dofs, dtype=np.intp)    # 2 * piece + parity
        label[self.cell_dofs] = 2 * piece[:, None]
        label += (i + j) % 2
        has = np.zeros(2 * n, dtype=bool)
        has[label[constrained]] = True
        pin = ~has[label ^ 1]
        pin[np.unique(label, return_index=True)[1]] = True
        return np.flatnonzero(pin & ~has[label])

    def edge_side_dofs(self, edge: Edge):
        """Per endpoint, the dof on each flank side of a cut edge.

        Returns ((a_minus, a_plus), (b_minus, b_plus)) where "plus" is the
        side the edge normal points into; entries are None outside the grid.
        """
        grid = self.grid
        kind, i, j = edge
        below, above = grid.edge_flank_cells(edge)
        if kind == "h":
            # endpoints (i,j) and (i+1,j); corners: below 2,3  above 0,1
            a = (
                None if below is None else int(self.cell_dofs[below, 2]),
                None if above is None else int(self.cell_dofs[above, 0]),
            )
            b = (
                None if below is None else int(self.cell_dofs[below, 3]),
                None if above is None else int(self.cell_dofs[above, 1]),
            )
        else:
            left, right = below, above
            a = (
                None if left is None else int(self.cell_dofs[left, 1]),
                None if right is None else int(self.cell_dofs[right, 0]),
            )
            b = (
                None if left is None else int(self.cell_dofs[left, 3]),
                None if right is None else int(self.cell_dofs[right, 2]),
            )
        return a, b


def _same_lattice(a: Grid, b: Grid) -> bool:
    """Same rectangle and cell counts, so edge ids name the same edges."""
    ra = (a.domain.x0, a.domain.y0, a.domain.x1, a.domain.y1, a.nx, a.ny)
    rb = (b.domain.x0, b.domain.y0, b.domain.x1, b.domain.y1, b.nx, b.ny)
    return ra == rb


def cut_grid(grid: Grid, crack: CrackSet = None) -> CutTopology:
    """Connectivity with nodes duplicated per side of each crack edge.

    An empty crack returns a topology identical to the plain grid.
    """
    if crack is None:
        crack = CrackSet(grid)
    if crack.grid is not grid and not _same_lattice(crack.grid, grid):
        raise NonConformingCrack("crack was built on a different grid")
    return CutTopology(grid, crack)


def _closes_a_cycle(grid: Grid, edges) -> bool:
    """Do the interior edges close a cycle once the boundary is one vertex?

    Only then can they cut a region of cells off from the others.
    """
    nx, ny = grid.nx, grid.ny
    forest = _UnionFind()      # over node ids; -1 is the contracted boundary
    for kind, i, j in edges:
        if kind == "v" and 0 < i < nx:
            ends = ((i, j), (i, j + 1))
        elif kind == "h" and 0 < j < ny:
            ends = ((i, j), (i + 1, j))
        else:
            continue    # an edge on the boundary parts no cells
        a, b = (ni + nj * (nx + 1) if 0 < ni < nx and 0 < nj < ny else -1 for ni, nj in ends)
        if not forest.union(a, b):
            return True
    return False


def _cell_pieces(grid: Grid, edges):
    """The pieces of the cut body: cells joined across interior edges not in
    edges.  Returns (hcut, vcut, n, piece): the edges as masks, hcut[j, i]
    for ("h", i, j) and vcut[j, i] for ("v", i, j), the number of pieces
    and each cell's piece, numbered by its lowest cell.

    The cells of a row fall into runs between cut "v" edges, and csgraph
    joins the runs of adjacent rows across uncut "h" edges: a graph of a
    few hundred runs instead of one of every cell.  Runs are numbered row
    by row, so a piece's lowest run holds its lowest cell, and csgraph,
    which numbers components by their lowest vertex, numbers the pieces as
    it would on the cells."""
    nx, ny = grid.nx, grid.ny
    hcut = np.zeros((ny + 1, nx), dtype=bool)
    vcut = np.zeros((ny, nx + 1), dtype=bool)
    for kind, i, j in edges:
        (vcut if kind == "v" else hcut)[j, i] = True
    starts = vcut[:, :nx].copy()        # a run starts after a cut "v" edge
    starts[:, 0] = True
    run = np.cumsum(starts, dtype=np.int32).reshape(ny, nx) - 1
    # an uncut "h" edge joins the runs below and above it; the one to its
    # left joined the same two when it is uncut too and neither run starts here
    join = ~hcut[1:ny, :]
    new = join.copy()
    new[:, 1:] &= ~(join[:, :-1] & ~starts[:-1, 1:] & ~starts[1:, 1:])
    n_runs = int(run[-1, -1]) + 1
    adj = coo_matrix((np.ones(np.count_nonzero(new), dtype=np.int8),
                      (run[:-1][new], run[1:][new])), shape=(n_runs, n_runs))
    n, component = _cs_components(adj, directed=False)
    return hcut, vcut, n, component[run.ravel()]


def effective_crack(grid: Grid, crack: CrackSet) -> CrackSet:
    """The part of a crack that the Dirichlet datum reaches.

    A cell is reached when its piece (see _cell_pieces) has a corner on a
    Dirichlet node off the crack.  Kept are the edges with a reached flank
    cell and every edge with an endpoint on a Dirichlet node.  Any other
    edge only separates cells that solve() pins to 0, so dropping it merges
    floating cells and leaves the reached cells' dofs and the constrained
    dofs as they were: the bulk problem, its energy and its power are those
    of the crack.  Returns the crack itself when nothing can be dropped.
    """
    if crack.grid is not grid and not _same_lattice(crack.grid, grid):
        raise NonConformingCrack("crack was built on a different grid")
    if not _closes_a_cycle(grid, crack.edges):
        return crack
    nx, ny = grid.nx, grid.ny
    hcut, vcut, n, piece = _cell_pieces(grid, crack.edges)
    dirichlet = np.zeros((ny + 1, nx + 1), dtype=bool)      # [j, i] per node
    dirichlet.flat[grid.dirichlet_nodes()] = True
    off_crack = dirichlet.copy()
    off_crack.flat[crack.nodes()] = False
    reached = np.zeros(n, dtype=bool)
    reached[piece[grid.cells_around(np.flatnonzero(off_crack))]] = True
    reached = np.pad(reached[piece].reshape(ny, nx), 1)     # [j + 1, i + 1] per cell

    # flank cells: below/above an "h" edge, left/right of a "v" edge
    hkeep = hcut & (reached[:-1, 1:-1] | reached[1:, 1:-1] | dirichlet[:, :-1] | dirichlet[:, 1:])
    vkeep = vcut & (reached[1:-1, :-1] | reached[1:-1, 1:] | dirichlet[:-1, :] | dirichlet[1:, :])
    if np.count_nonzero(hkeep) + np.count_nonzero(vkeep) == len(crack):
        return crack
    hj, hi = np.nonzero(hkeep)
    vj, vi = np.nonzero(vkeep)
    return CrackSet._checked(grid, frozenset(
        [("h", i, j) for i, j in zip(hi.tolist(), hj.tolist())]
        + [("v", i, j) for i, j in zip(vi.tolist(), vj.tolist())]))


# ---------------------------------------------------------------------------
# crack covers (balls and boundary rectangles)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    r: float

    def metric(self, x, y):
        """1 on the member boundary, 2 on the doubled boundary."""
        return np.hypot(np.asarray(x) - self.cx, np.asarray(y) - self.cy) / self.r

    def box(self, k):
        """(x0, x1, y0, y1) of the bounding box scaled by k about the centre."""
        s = k * self.r
        return self.cx - s, self.cx + s, self.cy - s, self.cy + s

    @property
    def diameter(self):
        return 2.0 * self.r

    @property
    def scale(self):
        """Ramp width of the cutoff transition (metric 1 -> 2)."""
        return self.r


@dataclass(frozen=True)
class BoundaryRect:
    """Axis-aligned rectangle centered at a boundary point.

    With a flat (rectangle) boundary the Lipschitz graph of the generic
    construction degenerates to g == 0, so the frame is the coordinate frame
    and the member is the sup-metric box with half-widths (hx, hy).
    """

    cx: float
    cy: float
    hx: float
    hy: float

    def metric(self, x, y):
        return np.maximum(
            np.abs(np.asarray(x) - self.cx) / self.hx,
            np.abs(np.asarray(y) - self.cy) / self.hy,
        )

    def box(self, k):
        """(x0, x1, y0, y1) of the member scaled by k about the centre."""
        sx, sy = k * self.hx, k * self.hy
        return self.cx - sx, self.cx + sx, self.cy - sy, self.cy + sy

    @property
    def diameter(self):
        return 2.0 * math.hypot(self.hx, self.hy)

    @property
    def scale(self):
        return min(self.hx, self.hy)


@dataclass(frozen=True)
class Cover:
    """Cover of a crack by disjoint doubled members."""

    members: tuple
    constant_C: float
    rounds: int
    smallness_threshold: float

    def __len__(self):
        return len(self.members)


def _doubled_overlap(a, b):
    """Do the doubled regions of two members intersect?"""
    if isinstance(a, Disk) and isinstance(b, Disk):
        return math.hypot(a.cx - b.cx, a.cy - b.cy) < 2 * a.r + 2 * b.r
    if isinstance(a, Disk) or isinstance(b, Disk):
        disk, rect = (a, b) if isinstance(a, Disk) else (b, a)
        rx0, rx1, ry0, ry1 = rect.box(2)
        px = min(max(disk.cx, rx0), rx1)
        py = min(max(disk.cy, ry0), ry1)
        return math.hypot(disk.cx - px, disk.cy - py) < 2 * disk.r
    ax0, ax1, ay0, ay1 = a.box(2)
    bx0, bx1, by0, by1 = b.box(2)
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


def _hull(members, k):
    """(x0, x1, y0, y1) of the bounding box of the members scaled by k."""
    x0s, x1s, y0s, y1s = zip(*(m.box(k) for m in members))
    return min(x0s), max(x1s), min(y0s), max(y1s)


def _doubled_diameter(group):
    """Diameter of the union of the doubled members (pairwise formula)."""
    return max(math.hypot(a.cx - b.cx, a.cy - b.cy) + a.diameter + b.diameter
               for a in group for b in group)


def cover_crack(crack: CrackSet, domain: Domain, m: int) -> Cover:
    """Cover the crack with at most m members whose doubled regions are disjoint.

    Starts from one ball per connected component, of radius the largest of
    the component's H1, its half-diagonal plus 2.5 cells, and 4 cells.
    Each round turns the balls whose doubled region leaves the open domain
    into boundary rectangles, then merges the members whose doubled regions
    overlap, transitively: a group of balls becomes one ball centred on the
    hull of their doubled boxes, of radius _doubled_diameter, and a group
    with a rectangle, or whose ball would leave the domain, one boundary
    rectangle holding their members.  Raises BudgetTooLarge when no
    admissible cover exists at the crack's scale (threshold: member diameter
    <= 0.5 * min(width, height), so that a member can never span the domain
    and boundary rectangles keep the required aspect), and when the crack
    has more than m connected components.
    """
    threshold = 0.5 * min(domain.width, domain.height)
    if crack.is_empty:
        return Cover((), 0.0, 0, threshold)
    comps = connected_components(crack)
    if len(comps) > m:
        raise BudgetTooLarge(f"crack has {len(comps)} components, budget is m={m}")
    h = crack.grid.h

    members = []
    for comp in comps:
        pts = comp.points()
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        c = 0.5 * (lo + hi)
        half_diag = 0.5 * math.hypot(*(hi - lo))
        r = max(comp.h1(), half_diag + 2.5 * h, 4 * h)
        members.append(Disk(c[0], c[1], r))

    def in_open_domain(disk):
        x0, x1, y0, y1 = disk.box(2)
        return x0 > domain.x0 and x1 < domain.x1 and y0 > domain.y0 and y1 < domain.y1

    def to_boundary_rect(mem_group):
        # the rectangle's inner region must contain the inner regions of the
        # group (they carry the crack with its margin); the doubled rectangle
        # supplies the collar, mirroring the doubled ball.
        x0, x1, y0, y1 = _hull(mem_group, 1)
        bx, by = domain.project_to_boundary(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        hx = max(abs(x0 - bx), abs(x1 - bx))
        hy = max(abs(y0 - by), abs(y1 - by))
        s = max(hx, hy, 4 * h)
        return BoundaryRect(bx, by, s, s)

    rounds = 0
    for rounds in range(1, 2 * m + 3):
        changed = False
        # convert disks whose doubled region leaves the open domain
        for idx, mem in enumerate(members):
            if isinstance(mem, Disk) and not in_open_domain(mem):
                members[idx] = to_boundary_rect([mem])
                changed = True
        # merge overlapping doubled regions
        overlaps = _UnionFind()
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if _doubled_overlap(members[a], members[b]):
                    overlaps.union(a, b)
        groups = {}
        for idx, mem in enumerate(members):
            groups.setdefault(overlaps.find(idx), []).append(mem)
        merged = []
        for _, group in sorted(groups.items()):
            if len(group) == 1:
                merged.append(group[0])
                continue
            changed = True
            if any(isinstance(g, BoundaryRect) for g in group):
                merged.append(to_boundary_rect(group))
            else:
                x0, x1, y0, y1 = _hull(group, 2)
                disk = Disk(0.5 * (x0 + x1), 0.5 * (y0 + y1), _doubled_diameter(group))
                merged.append(disk if in_open_domain(disk) else to_boundary_rect(group))
        members = merged
        for mem in members:
            if mem.diameter > threshold:
                raise BudgetTooLarge(
                    f"cover member diameter {mem.diameter:.4g} exceeds the "
                    f"smallness threshold {threshold:.4g}; crack not small here"
                )
        if not changed:
            break
    else:
        raise BudgetTooLarge(f"cover did not stabilize in {2 * m + 2} rounds")

    # achieved covering constant and containment check
    mids = np.array([crack.grid.edge_midpoint(e) for e in crack.sorted_edges()])
    lengths_in = np.zeros(len(members))
    owner = np.full(len(mids), -1, dtype=int)
    for idx, mem in enumerate(members):
        inside = mem.metric(mids[:, 0], mids[:, 1]) <= 1.0
        owner[inside] = idx
        lengths_in[idx] = inside.sum() * h
    if (owner < 0).any():
        raise BudgetTooLarge("constructed members fail to cover the crack")
    constant_C = float(max(mem.diameter / li for mem, li in zip(members, lengths_in)))
    return Cover(tuple(members), constant_C, rounds, threshold)


# ---------------------------------------------------------------------------
# crack files
# ---------------------------------------------------------------------------


def _snap_to_node(grid: Grid, x, y):
    """The node (i, j) nearest (x, y), and by how far (x, y) misses it, the
    larger of its axis offsets; that offset reads 0.0 within 1e-6 h, the
    rounding of coordinates written in decimal.  A nan or infinite
    coordinate raises ValueError or OverflowError."""
    fi = (x - grid.domain.x0) / grid.h
    fj = (y - grid.domain.y0) / grid.h
    i, j = round(fi), round(fj)
    offset = max(abs(fi - i), abs(fj - j)) * grid.h
    return i, j, offset if offset > 1e-6 * grid.h else 0.0


def read_crack_file(path, grid: Grid) -> CrackSet:
    """Parse a crack file, validating that every segment is a grid edge."""
    edges = []
    with open(path, "r", encoding="utf-8") as f:
        for ln, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split()
            if len(parts) != 4:
                raise NonConformingCrack(f"{path}:{ln}: expected 'x0 y0 x1 y1'")
            try:
                x0, y0, x1, y1 = map(float, parts)
                i0, j0, off0 = _snap_to_node(grid, x0, y0)
                i1, j1, off1 = _snap_to_node(grid, x1, y1)
            except (ValueError, OverflowError):     # not a number, nan or inf
                raise NonConformingCrack(f"{path}:{ln}: coordinates must be finite") from None
            if off0 or off1:
                raise NonConformingCrack(f"{path}:{ln}: endpoint off-grid by {max(off0, off1):g}")
            if (i0, j0) > (i1, j1):
                i0, j0, i1, j1 = i1, j1, i0, j0
            if i1 == i0 + 1 and j1 == j0:
                edges.append(("h", i0, j0))
            elif i1 == i0 and j1 == j0 + 1:
                edges.append(("v", i0, j0))
            else:
                raise NonConformingCrack(f"{path}:{ln}: segment is not a grid edge")
    return CrackSet(grid, edges)
