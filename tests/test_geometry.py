import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as cs_components

from fracturelab.errors import BudgetTooLarge, NonConformingCrack
from fracturelab import geometry
from fracturelab.geometry import (
    CrackSet,
    Disk,
    Domain,
    Grid,
    connected_components,
    cover_crack,
    cut_grid,
    effective_crack,
    read_crack_file,
)
from fracturelab.search import circle_crack

from conftest import hslit, random_crack, random_union, vslit


# --- grids -----------------------------------------------------------------------


def test_cell_centers_match_the_per_cell_formula():
    # the cell-id formula that the broadcast one replaces, kept as the reference
    grid = Grid(Domain.rectangle(-0.3, 0.7, 1.7, 1.7), 48, 24)
    i, j = grid.cell_ij(np.arange(grid.n_cells))
    x, y = grid.cell_centers()
    assert np.array_equal(x, grid.domain.x0 + (i + 0.5) * grid.h)
    assert np.array_equal(y, grid.domain.y0 + (j + 0.5) * grid.h)


def test_dirichlet_part_is_whole_distinct_sides():
    dom = Domain.rectangle(-0.3, 0.7, 1.7, 1.7, ("top", "left"))
    assert dom.dirichlet_part == ("top", "left")
    assert dom.dirichlet_length() == 3.0
    grid = Grid(dom, 48, 24)
    union = np.union1d(grid.side_nodes("top"), grid.side_nodes("left"))
    assert np.array_equal(grid.dirichlet_nodes(), union)
    assert Domain.unit_square().dirichlet_part == geometry.SIDES
    for bad in [("left", "left"), ("left", "middle")]:
        with pytest.raises(ValueError):
            Domain.unit_square(dirichlet=bad)


# --- H1 measure -------------------------------------------------------------


def test_h1_empty_is_zero(unit_grid_16):
    assert CrackSet(unit_grid_16).h1() == 0.0


def test_h1_unit_segment(unit_grid_16):
    # straight polyline from (0,0) to (1,0): all bottom edges
    crack = hslit(unit_grid_16, 0, 0, 16)
    assert crack.h1() == pytest.approx(1.0)


def test_h1_two_disjoint_segments(unit_grid_16):
    a = hslit(unit_grid_16, 0, 4, 4)      # 0.25
    b = hslit(unit_grid_16, 0, 8, 8)      # 0.5
    assert a.union(b).h1() == pytest.approx(0.75)


def test_h1_additive_over_components(unit_grid_16):
    crack = hslit(unit_grid_16, 1, 2, 3).union(vslit(unit_grid_16, 9, 9, 5))
    comps = connected_components(crack)
    assert sum(c.h1() for c in comps) == pytest.approx(crack.h1())


# --- connected components -----------------------------------------------------


def test_components_empty(unit_grid_16):
    assert connected_components(CrackSet(unit_grid_16)) == []


def test_components_single_polyline(unit_grid_16):
    crack = hslit(unit_grid_16, 2, 5, 4)
    comps = connected_components(crack)
    assert len(comps) == 1
    assert comps[0].edges == crack.edges


def test_components_two_disjoint(unit_grid_16):
    crack = hslit(unit_grid_16, 1, 2, 2).union(hslit(unit_grid_16, 8, 12, 2))
    assert len(connected_components(crack)) == 2


def test_components_L_shape_is_one(unit_grid_16):
    # horizontal then vertical sharing node (5, 5)
    crack = hslit(unit_grid_16, 3, 5, 2).union(vslit(unit_grid_16, 5, 5, 2))
    assert len(connected_components(crack)) == 1


# --- covers ---------------------------------------------------------------


def test_cover_single_segment_far_from_boundary():
    dom = Domain.unit_square()
    grid = Grid(dom, 128)
    crack = hslit(grid, 58, 64, 12)  # length 12/128 at the center
    cov = cover_crack(crack, dom, m=1)
    assert len(cov.members) == 1
    mem = cov.members[0]
    assert isinstance(mem, Disk)
    # construction radius: H1 of the component (floors don't bind here)
    assert mem.r == pytest.approx(crack.h1())
    pts = crack.points()
    assert np.all(mem.metric(pts[:, 0], pts[:, 1]) < 1.0)


def test_cover_two_far_components_no_merge():
    dom = Domain.unit_square()
    grid = Grid(dom, 128)
    crack = hslit(grid, 20, 30, 4).union(hslit(grid, 100, 100, 4))
    cov = cover_crack(crack, dom, m=2)
    assert len(cov.members) == 2
    a, b = cov.members
    gap = np.hypot(a.cx - b.cx, a.cy - b.cy)
    assert gap > 2 * a.r + 2 * b.r  # doubled disks disjoint


def test_cover_merge_matches_hand_computation():
    # two components of length 0.4 with bbox centers at unit distance; their
    # doubled disks (radius 0.8) overlap, so one merged disk appears with
    # radius = diameter of the doubled union = 1.0 + 0.8 + 0.8 = 2.6.
    dom = Domain.rectangle(0, 0, 16, 16, "all")
    grid = Grid(dom, 320)  # h = 0.05
    h = grid.h
    n = round(0.4 / h)
    i1 = round(7.1 / h)
    i2 = round(8.1 / h)
    j = round(8.0 / h)
    crack = CrackSet(grid, [("h", i1 + k, j) for k in range(n)]
                     + [("h", i2 + k, j) for k in range(n)])
    cov = cover_crack(crack, dom, m=2)
    assert len(cov.members) == 1
    mem = cov.members[0]
    assert mem.r == pytest.approx(2.6)
    # doubled union spans x in [7.3 - 0.8, 8.3 + 0.8], so its bbox center is 7.8
    assert mem.cx == pytest.approx(7.8)
    # achieved constant: diameter / H1
    assert cov.constant_C == pytest.approx(5.2 / 0.8)


def test_cover_invariants_random_cracks():
    rng = np.random.default_rng(3)
    dom = Domain.unit_square()
    grid = Grid(dom, 128)
    for _ in range(10):
        pieces = []
        m = int(rng.integers(1, 4))
        for _ in range(m):
            i = int(rng.integers(10, 100))
            j = int(rng.integers(10, 100))
            n = int(rng.integers(1, 6))
            pieces.append(hslit(grid, i, j, n) if rng.random() < 0.5
                          else vslit(grid, i, j, n))
        crack = pieces[0]
        for p in pieces[1:]:
            crack = crack.union(p)
        mcount = len(connected_components(crack))
        try:
            cov = cover_crack(crack, dom, m=mcount)
        except BudgetTooLarge:
            # close components can merge past the smallness threshold
            continue
        assert len(cov.members) <= mcount
        # every crack endpoint strictly inside some member
        pts = crack.points()
        metrics = np.stack([mem.metric(pts[:, 0], pts[:, 1]) for mem in cov.members])
        assert np.all(metrics.min(axis=0) < 1.0)
        # doubled members pairwise disjoint: no point has two metrics <= 2
        xs = rng.uniform(0, 1, size=2000)
        ys = rng.uniform(0, 1, size=2000)
        inside2 = np.stack([mem.metric(xs, ys) < 2.0 for mem in cov.members])
        assert np.all(inside2.sum(axis=0) <= 1)
        # diameter bounded by the reported constant
        for mem in cov.members:
            mids = np.array([grid.edge_midpoint(e) for e in crack.sorted_edges()])
            li = np.sum(mem.metric(mids[:, 0], mids[:, 1]) <= 1.0) * grid.h
            assert mem.diameter <= cov.constant_C * li + 1e-12


def test_cover_too_large_raises():
    dom = Domain.unit_square()
    grid = Grid(dom, 64)
    with pytest.raises(BudgetTooLarge):
        cover_crack(hslit(grid, 4, 32, 40), dom, m=1)  # length 0.625


def test_cover_component_budget_violation():
    dom = Domain.unit_square()
    grid = Grid(dom, 64)
    crack = hslit(grid, 4, 10, 2).union(hslit(grid, 40, 50, 2))
    with pytest.raises(BudgetTooLarge, match="2 components"):
        cover_crack(crack, dom, m=1)


# --- cut topology -------------------------------------------------------------


def test_cut_grid_empty_is_identity(unit_grid_16):
    topo = cut_grid(unit_grid_16, CrackSet(unit_grid_16))
    assert topo.n_dofs == unit_grid_16.n_nodes
    assert np.array_equal(topo.cell_dofs, unit_grid_16.cell_corner_nodes())


def test_cut_grid_full_vertical_cut_disconnects(unit_grid_16):
    # the datum reaches both halves under "all": nothing floats
    topo = cut_grid(unit_grid_16, vslit(unit_grid_16, 8, 0, 16))
    assert len(topo.floating_dofs(topo.constrained_dofs())) == 0
    # under "left" the right half shares no dof with the left one and is
    # pinned whole
    grid = Grid(Domain.unit_square(dirichlet=("left",)), 16)
    topo = cut_grid(grid, vslit(grid, 8, 0, 16))
    ci, _ = grid.cell_ij(np.arange(grid.n_cells))
    right = np.unique(topo.cell_dofs[ci >= 8])
    assert not np.isin(right, topo.cell_dofs[ci < 8]).any()
    assert np.array_equal(topo.floating_dofs(topo.constrained_dofs()), right)


def test_cut_grid_slit_duplication_count():
    grid = Grid(Domain.unit_square(), 8)
    slit = CrackSet(grid, [("h", 2, 4), ("h", 3, 4), ("h", 4, 4)])
    topo = cut_grid(grid, slit)
    # interior slit nodes (5,4) and (4,4)... the two inner endpoints duplicate,
    # the tips stay single
    assert topo.n_duplicates == 2


def test_cut_grid_dup_count_equals_extra_sides():
    grid = Grid(Domain.unit_square(), 16)
    slit = hslit(grid, 4, 8, 6)
    topo = cut_grid(grid, slit)
    assert topo.n_duplicates == 5  # nodes strictly inside the slit


def test_nonconforming_crack_raises(unit_grid_16):
    with pytest.raises(NonConformingCrack):
        CrackSet(unit_grid_16, [("h", 40, 2)])
    with pytest.raises(NonConformingCrack):
        CrackSet(unit_grid_16, [("d", 1, 1)])


def test_crack_from_another_grid_with_same_h_raises():
    # same h, different rectangle and counts: edge ids name other edges
    wide = Grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 64, 32)
    square = Grid(Domain.unit_square(), 32)
    assert wide.h == square.h
    with pytest.raises(NonConformingCrack):
        cut_grid(square, hslit(wide, 8, 16, 16))
    # an equal lattice built separately is accepted
    twin = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    assert cut_grid(square, hslit(twin, 8, 16, 16)).n_duplicates == 15


def test_union_on_one_lattice_skips_edge_validation(monkeypatch):
    grid = Grid(Domain.unit_square(), 32)
    twin = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    a, b = hslit(grid, 2, 3, 4), vslit(twin, 10, 5, 3)

    def no_check(self, edge):
        raise AssertionError("union re-validated an edge")

    monkeypatch.setattr(Grid, "edge_valid", no_check)
    u = a.union(b)
    assert u.grid is grid and u.edges == a.edges | b.edges
    assert len(u) == 7 and u.h1() == pytest.approx(7 * grid.h)
    monkeypatch.undo()
    assert u == CrackSet(grid, a.edges | b.edges)


def test_union_with_crack_from_another_lattice_raises():
    wide = Grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 64, 32)
    square = Grid(Domain.unit_square(), 32)
    with pytest.raises(NonConformingCrack):
        hslit(square, 2, 3, 4).union(hslit(wide, 8, 16, 16))


# --- effective cracks ------------------------------------------------------------


def box(grid, i0, j0, i1, j1):
    """Closed rectangle of edges around the cells [i0, i1) x [j0, j1)."""
    edges = [("h", i, j) for i in range(i0, i1) for j in (j0, j1)]
    edges += [("v", i, j) for i in (i0, i1) for j in range(j0, j1)]
    return CrackSet(grid, edges)


def test_effective_crack_drops_edges_inside_floating_regions(monkeypatch):
    grid = Grid(Domain.unit_square(dirichlet="all"), 12)
    outer, inner = box(grid, 2, 2, 10, 10), box(grid, 4, 4, 7, 7)
    slit = vslit(grid, 5, 3, 3)
    touching = box(grid, 2, 2, 5, 5)        # shares two sides with the outer box
    assert effective_crack(grid, slit) is slit          # no cycle: pre-test
    assert effective_crack(grid, outer) is outer        # the outside reaches it

    def no_check(self, edge):
        raise AssertionError("the effective crack re-validated an edge")

    monkeypatch.setattr(Grid, "edge_valid", no_check)
    for crack in (outer.union(inner), outer.union(slit), outer.union(inner).union(slit)):
        eff = effective_crack(grid, crack)
        assert eff.grid is grid and eff.edges == outer.edges
    # an inner box touching the outer one keeps the shared edges only
    assert effective_crack(grid, outer.union(touching)).edges == outer.edges
    monkeypatch.undo()
    # under Neumann sides the outer box's inside is reached through no node
    lr = Grid(Domain.unit_square(dirichlet=("left",)), 12)
    assert effective_crack(lr, box(lr, 2, 2, 10, 10).union(box(lr, 4, 4, 7, 7))).edges == \
        box(lr, 2, 2, 10, 10).edges
    # a cut from the bottom to the right side closes a cycle through the
    # boundary; the corner it cuts off touches no Dirichlet node
    corner = CrackSet(lr, [("h", i, 4) for i in range(6, 12)] + [("v", 6, j) for j in range(4)])
    inside = vslit(lr, 9, 1, 2)
    assert effective_crack(lr, corner.union(inside)).edges == corner.edges


def test_parity_pins_of_cracks_without_cycles_match_the_labelling(monkeypatch):
    # a crack that closes no cycle leaves one piece whose diagonal components
    # are the node parities: floating_dofs answers without a graph, and the
    # answer is the one the labelling of the cells' diagonals gives
    rng = np.random.default_rng(3)
    cases = []
    for dirichlet in [("left", "right"), "all", ("left",), ("bottom", "right"), ("top",)]:
        grid = Grid(Domain.unit_square(dirichlet=dirichlet), 12)
        cracks = [random_union(grid, rng) for _ in range(60)]
        # debond the Dirichlet sides but for their last k edges, which
        # leaves the datum on no node, on one or on both parities
        debond = [e for side in grid.domain.dirichlet_part for e in grid.boundary_edges(side)]
        cracks += [CrackSet(grid, debond[:-k]).union(slit)
                   for k in (1, 2, 3) for slit in (CrackSet(grid), vslit(grid, 6, 3, 5))]
        for crack in cracks:
            if not geometry._closes_a_cycle(grid, crack.edges):
                topo = cut_grid(grid, crack)
                constrained = topo.constrained_dofs()
                cases.append((topo, constrained, topo.floating_dofs(constrained)))
    assert len(cases) > 100
    assert sum(0 < len(pins) < 3 for _, _, pins in cases) >= 3        # a parity chain
    assert any(len(pins) == topo.n_dofs for topo, _, pins in cases)     # no datum at all
    monkeypatch.setattr(geometry, "_closes_a_cycle", lambda grid, edges: True)
    for topo, constrained, pins in cases:
        assert np.array_equal(topo.floating_dofs(constrained), pins)


def diagonal_pins(topo, constrained):
    """floating_dofs from a graph of the cells' diagonals of its own: the
    labelling that the pieces replace, kept as the reference."""
    cd = topo.cell_dofs
    diagonals = coo_matrix((np.ones(2 * len(cd)), (np.concatenate([cd[:, 0], cd[:, 1]]),
                                                   np.concatenate([cd[:, 3], cd[:, 2]]))),
                           shape=(topo.n_dofs, topo.n_dofs))
    n, label = cs_components(diagonals, directed=False)
    has = np.zeros(n, dtype=bool)
    has[label[constrained]] = True
    # each cell's two diagonals are the two components of its piece
    other = np.empty(n, dtype=label.dtype)
    other[label[cd[:, 0]]] = label[cd[:, 1]]
    other[label[cd[:, 1]]] = label[cd[:, 0]]
    pin = ~has[other][label]
    pin[np.unique(label, return_index=True)[1]] = True
    return np.flatnonzero(pin & ~has[label])


def test_floating_dofs_match_a_labelling_of_the_cells_diagonals():
    # of each crack and of its effective crack
    rng = np.random.default_rng(8)
    cycles = reduced = 0
    for dirichlet in [("left", "right"), "all", ("left",), ("bottom", "right"), ("top",)]:
        grid = Grid(Domain.unit_square(dirichlet=dirichlet), 12)
        for _ in range(40):
            crack = random_union(grid, rng)
            cycles += geometry._closes_a_cycle(grid, crack.edges)
            for reduce in (False, True):
                cut = effective_crack(grid, crack) if reduce else crack
                reduced += len(cut) < len(crack)
                topo = cut_grid(grid, cut)
                constrained = topo.constrained_dofs()
                assert np.array_equal(topo.floating_dofs(constrained),
                                      diagonal_pins(topo, constrained))
    assert cycles > 50
    assert reduced > 5


def cell_graph_pieces(grid, edges):
    """_cell_pieces on a graph of every cell, joined across the interior
    edges not in edges: the labelling that row runs replace, kept as the
    reference."""
    nx, ny = grid.nx, grid.ny
    hcut = np.zeros((ny + 1, nx), dtype=bool)
    vcut = np.zeros((ny, nx + 1), dtype=bool)
    for kind, i, j in edges:
        (vcut if kind == "v" else hcut)[j, i] = True
    cid = np.arange(grid.n_cells, dtype=np.int32).reshape(ny, nx)
    across_v = ~vcut[:, 1:nx]
    across_h = ~hcut[1:ny, :]
    rows = np.concatenate([cid[:, :-1][across_v], cid[:-1, :][across_h]])
    cols = np.concatenate([cid[:, 1:][across_v], cid[1:, :][across_h]])
    adj = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                     shape=(grid.n_cells, grid.n_cells))
    return cs_components(adj, directed=False)


def test_row_run_pieces_match_the_cell_graph():
    # the random unions that the reduced-crack landscape test solves, and circles
    cases = []
    for dirichlet in [("left", "right"), "all", ("left",), ("bottom", "right")]:
        grid = Grid(Domain.unit_square(dirichlet=dirichlet), 12)
        rng = np.random.default_rng(11)
        cases += [(grid, random_crack(grid, rng)) for _ in range(75)]
    for n in (64, 128):
        grid = Grid(Domain.unit_square(dirichlet="all", centered=True), n)
        cases += [(grid, circle_crack(grid, (x, 0.0), r))
                  for x, r in ((0.0, 0.05), (0.0, 0.2), (0.1, 0.3))]
    several = 0
    for grid, crack in cases:
        _, _, n, piece = geometry._cell_pieces(grid, crack.edges)
        n_ref, piece_ref = cell_graph_pieces(grid, crack.edges)
        assert n == n_ref
        assert piece.dtype == piece_ref.dtype and np.array_equal(piece, piece_ref)
        several += n > 1
    assert several > 50


def test_effective_crack_checks_the_lattice():
    wide = Grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 64, 32)
    square = Grid(Domain.unit_square(), 32)
    with pytest.raises(NonConformingCrack):
        effective_crack(square, hslit(wide, 8, 16, 16))
    twin = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    crack = hslit(twin, 8, 16, 16)
    assert effective_crack(square, crack) is crack


# --- crack files ---------------------------------------------------------------


def test_crack_file_roundtrip(tmp_path, unit_grid_16):
    crack = hslit(unit_grid_16, 2, 3, 4).union(vslit(unit_grid_16, 10, 5, 3))
    path = tmp_path / "crack.txt"
    # one edge per line, x0 y0 x1 y1, the coordinates as repr writes them
    lines = []
    for edge in crack.sorted_edges():
        (xa, xb), (ya, yb) = unit_grid_16.node_xy(np.array(unit_grid_16.edge_nodes(edge)))
        lines.append(f"{float(xa)!r} {float(ya)!r} {float(xb)!r} {float(yb)!r}\n")
    path.write_text("".join(lines))
    back = read_crack_file(path, unit_grid_16)
    assert back.edges == crack.edges


def test_crack_file_rejects_offgrid(tmp_path, unit_grid_16):
    path = tmp_path / "bad.txt"
    path.write_text("0.01 0.0 0.0725 0.0\n")
    with pytest.raises(NonConformingCrack):
        read_crack_file(path, unit_grid_16)


def test_crack_file_rejects_long_segment(tmp_path, unit_grid_16):
    path = tmp_path / "bad2.txt"
    path.write_text("0.0 0.0 0.125 0.0\n")  # two edges in one line
    with pytest.raises(NonConformingCrack):
        read_crack_file(path, unit_grid_16)
