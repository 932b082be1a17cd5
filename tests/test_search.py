import numpy as np
import pytest

from fracturelab import search
from fracturelab.energy import (
    CheckerboardCoefficient,
    ConstantMatrixCoefficient,
    laplace_integrand,
    meyers_integrand,
    ppower_integrand,
    quadratic_integrand,
)
from fracturelab.errors import EmptyFamily, InvalidProbe, NonConformingCrack
from fracturelab.geometry import (
    CrackSet,
    Domain,
    Grid,
    connected_components,
    cut_grid,
    effective_crack,
)
from fracturelab.search import (
    EnergyLandscape,
    boundary_debond_family,
    circle_crack,
    circles_family,
    concat_families,
    explicit_family,
    localization_check,
    minimize_total,
    release_curve,
    segments_family,
)
from fracturelab.singularity import meyers_profile
from fracturelab.solver import bulk_energy, solve

from conftest import count_solves, linear_x, random_crack


def smooth_landscape(n=64):
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), n)
    return EnergyLandscape(grid, laplace_integrand(), linear_x)


def meyers_landscape(n=96, K=3.0):
    grid = Grid(Domain.unit_square(dirichlet="all", centered=True), n)
    return EnergyLandscape(grid, meyers_integrand(K, "radial_stiff"),
                           meyers_profile(K, "radial_stiff"))


# --- families -------------------------------------------------------------


def test_segments_family_enumeration_deterministic():
    grid = Grid(Domain.unit_square(), 32)
    f1 = segments_family(grid, 8, [2, 4])
    f2 = segments_family(grid, 8, [2, 4])
    assert [c.edges for c in f1] == [c.edges for c in f2]
    assert all(len(connected_components(c)) == 1 for c in f1)


def test_circle_crack_separates_and_length():
    grid = Grid(Domain.unit_square(), 64)
    crack = circle_crack(grid, (0.5, 0.5), 0.15)
    comps = connected_components(crack)
    assert len(comps) == 1
    # staircase length is at least the inscribed-square perimeter
    assert crack.h1() >= 4 * 2 * 0.15 * 0.7


def test_circle_crack_matches_the_cell_loop():
    def by_cells(grid, cx, cy, r):
        xc, yc = grid.cell_centers()
        inside = ((xc - cx) ** 2 + (yc - cy) ** 2 <= r * r).reshape(grid.ny, grid.nx).T
        edges = set()
        for i in range(grid.nx):
            for j in range(grid.ny):
                if not inside[i, j]:
                    continue
                if i == 0 or not inside[i - 1, j]:
                    edges.add(("v", i, j))
                if i == grid.nx - 1 or not inside[i + 1, j]:
                    edges.add(("v", i + 1, j))
                if j == 0 or not inside[i, j - 1]:
                    edges.add(("h", i, j))
                if j == grid.ny - 1 or not inside[i, j + 1]:
                    edges.add(("h", i, j + 1))
        return edges

    square = Grid(Domain.unit_square(), 64)
    wide = Grid(Domain.rectangle(-1.0, -0.5, 1.0, 0.5), 96, 48)
    for grid, cx, cy, r in ((square, 0.5, 0.5, 0.15), (square, 0.3, 0.6, 0.047),
                            (square, 0.51, 0.49, 0.3), (square, 0.25, 0.3, 0.02),
                            (wide, 0.0, 0.0, 0.21), (wide, -0.4, 0.1, 0.33)):
        crack = circle_crack(grid, (cx, cy), r)
        assert crack.edges == by_cells(grid, cx, cy, r)
        assert all(type(v) is int for e in crack.edges for v in e[1:])


def test_circle_crack_needs_interior_center():
    grid = Grid(Domain.unit_square(), 64)
    with pytest.raises(InvalidProbe):
        circle_crack(grid, (0.02, 0.5), 0.1)
    with pytest.raises(InvalidProbe):
        circle_crack(grid, (0.5, 0.5), 0.01)  # encloses no cell center


def test_debond_family_covers_dirichlet_sides():
    grid = Grid(Domain.unit_square(dirichlet=("left",)), 16)
    fam = boundary_debond_family(grid, [8])
    assert any(len(c.edges) == 16 for c in fam)  # the full side
    assert all(all(e[0] == "v" and e[1] == 0 for e in c.edges) for c in fam)


def test_explicit_and_concat_and_empty():
    grid = Grid(Domain.unit_square(), 16)
    fam = explicit_family([CrackSet(grid, [("h", 2, 3)])])
    assert len(fam) == 1
    both = concat_families(fam, fam)
    assert len(both) == 2
    with pytest.raises(EmptyFamily):
        explicit_family([])


# --- minimize_total ----------------------------------------------------------


def test_budget_zero_returns_elastic():
    land = smooth_landscape(32)
    fam = segments_family(land.grid, 8, [2, 4])
    res = minimize_total(land, fam, budget=0.0, k=1.0)
    assert res.bulk_argmin_id == -1
    assert res.W == pytest.approx(land.bulk())
    assert res.W == pytest.approx(1.0, abs=1e-9)


def test_huge_toughness_prefers_empty():
    land = smooth_landscape(32)
    fam = segments_family(land.grid, 8, [2, 4, 8])
    res = minimize_total(land, fam, budget=1.0, k=1e9)
    assert res.total_argmin_id == -1
    assert res.total == pytest.approx(land.bulk())


def test_meyers_circle_beats_elastic_at_small_k():
    land = meyers_landscape(96)
    h = land.grid.h
    fam = circles_family(land.grid, (0.0, 0.0), [4 * h, 8 * h, 0.1])
    res = minimize_total(land, fam, budget=10.0, k=0.05)
    assert res.total_argmin_id >= 0
    assert res.total < land.bulk() - 1e-6


def test_W_monotone_in_budget():
    land = smooth_landscape(48)
    fam = segments_family(land.grid, 8, [2, 4, 8, 16], orientations=("v",))
    budgets = [16.5 / 48, 8.5 / 48, 4.5 / 48, 2.5 / 48]
    curve = release_curve(land, fam, budgets)
    Ws = curve.W
    assert all(Ws[i] <= Ws[i + 1] + 1e-12 for i in range(len(Ws) - 1))
    assert all(r >= -1e-12 for r in curve.rates)
    assert all(w <= curve.W0 + 1e-12 for w in Ws)


def test_release_curve_smooth_rates_decrease_to_zero():
    land = smooth_landscape(64)
    fam = segments_family(land.grid, 4, [1, 2, 4, 8, 16], orientations=("v",))
    budgets = [16.5 / 64 * 2.0 ** (-i) for i in range(5)]
    curve = release_curve(land, fam, budgets)
    rates = curve.rates
    assert all(rates[i] >= rates[i + 1] - 1e-12 for i in range(len(rates) - 1))
    assert rates[-1] < 0.05


def test_release_curve_constant_datum_is_flat():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    land = EnergyLandscape(grid, laplace_integrand(), lambda x, y: 1.0)
    fam = segments_family(grid, 8, [2, 4])
    curve = release_curve(land, fam, [0.2, 0.1])
    assert all(w == pytest.approx(0.0, abs=1e-18) for w in curve.W)
    assert all(r == pytest.approx(0.0, abs=1e-15) for r in curve.rates)


def test_meyers_rates_increase_as_budget_shrinks():
    land = meyers_landscape(96)
    h = land.grid.h
    radii = [0.18, 0.09, 0.045, 3 * h]
    fam = circles_family(land.grid, (0.0, 0.0), radii)
    lengths = sorted((c.h1() for c in fam), reverse=True)
    budgets = [l * (1 + 1e-9) for l in lengths]
    curve = release_curve(land, fam, budgets)
    rates = curve.rates
    assert all(rates[i] < rates[i + 1] for i in range(len(rates) - 1))


def test_argmin_invariant_under_datum_and_toughness_scaling():
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 48)
    fam = segments_family(grid, 12, [2, 4, 8], orientations=("v",))
    k, c = 0.001, 3.0
    base = EnergyLandscape(grid, laplace_integrand(), linear_x)
    scaled = EnergyLandscape(grid, laplace_integrand(),
                             lambda x, y: c * np.asarray(x, dtype=float))
    r1 = minimize_total(base, fam, budget=0.5, k=k)
    r2 = minimize_total(scaled, fam, budget=0.5, k=c ** 2 * k)
    assert r1.total_argmin_id == r2.total_argmin_id
    assert r1.bulk_argmin_id == r2.bulk_argmin_id
    assert r2.W == pytest.approx(c ** 2 * r1.W, rel=1e-8)


def test_release_dominated_by_dual_bound_cross_module():
    from fracturelab.dual import release_bound
    from fracturelab.solver import stress

    land = smooth_landscape(64)
    fam = segments_family(land.grid, 16, [4, 8], orientations=("v",))
    base_field = land.solve_field()
    base = (base_field, stress(base_field))
    W0 = land.bulk()
    for crack in list(fam)[:6]:
        rel = W0 - land.bulk(crack)
        rb = release_bound(land.grid, land.integrand, land.psi, crack, 1, base=base)
        assert rel <= rb.bound + 1e-10


# --- localization ---------------------------------------------------------------


def test_localization_meyers_minimizers_meet_origin():
    land = meyers_landscape(96)
    h = land.grid.h
    radii = [0.12, 0.06, 0.03, 3 * h]
    fam = circles_family(land.grid, (0.0, 0.0), radii)
    lengths = sorted((c.h1() for c in fam), reverse=True)
    minimizers = []
    for l in lengths:
        res = minimize_total(land, fam, budget=l * (1 + 1e-9), k=0.02)
        minimizers.append((l, res.total_argmin))
    rep = localization_check(minimizers, (0.0, 0.0), [0.15], land.grid)
    assert rep.thresholds[0] == pytest.approx(max(lengths))


def test_localization_smooth_minimizers_stay_empty():
    land = smooth_landscape(48)
    fam = segments_family(land.grid, 12, [2, 4], orientations=("v",))
    for budget in (0.1, 0.05):
        res = minimize_total(land, fam, budget=budget, k=1.0)
        assert res.total_argmin_id == -1  # nothing to localize


def test_localization_rejects_outside_probe():
    land = smooth_landscape(32)
    with pytest.raises(InvalidProbe):
        localization_check([(0.1, land.empty_crack)], (3.0, 0.0), [0.1], land.grid)


def test_landscape_cycle_energies_match_jacobi_solves():
    # EnergyLandscape solves quadratic-form candidates on the aggregation
    # cycle, solve() on Jacobi; the energies agree, and solve()'s CG
    # iteration counts are those of the Jacobi path.  The full cut releases
    # everything, so its energy of about 0 is compared on the uncracked
    # energy's scale.
    lr = Grid(Domain.unit_square(dirichlet=("left", "right")), 128)
    centered = Grid(Domain.unit_square(dirichlet="all", centered=True), 128)
    problems = [
        (lr, laplace_integrand(), [
            (CrackSet(lr, [("v", 64, 48 + k) for k in range(32)]), 358),
            (CrackSet(lr, [("v", 40, k) for k in range(128)]), 88),
            (CrackSet(lr, [("h", i, 127) for i in range(128)]), 437),   # floating chain
        ]),
        # cross-parity couplings everywhere
        (centered, meyers_integrand(3.0, "radial_stiff"), [
            (circle_crack(centered, (0.0, 0.0), r), iters)
            for r, iters in ((0.05, 418), (0.1, 428), (0.2, 415))
        ]),
    ]
    for grid, integrand, cracks in problems:
        landscape = EnergyLandscape(grid, integrand, linear_x)
        scale = landscape.bulk()
        for crack, jacobi_iters in cracks:
            _, rep = solve(grid, integrand, linear_x, crack)
            assert rep.iterations == jacobi_iters
            assert landscape.bulk(crack) == pytest.approx(rep.bulk_energy, rel=1e-12,
                                                          abs=1e-15 * scale)


# --- effective cracks ---------------------------------------------------------------


def quadratic_datum(x, y):
    return np.asarray(x, dtype=float) + 0.5 * np.asarray(y, dtype=float) ** 2


@pytest.mark.parametrize("dirichlet", [("left", "right"), "all", ("left",),
                                       ("bottom", "right")])
def test_landscape_energies_and_fields_of_reduced_cracks_match_direct_solves(dirichlet):
    # a crack solved through its effective crack gets the energy and, lifted
    # onto its own cut grid, the field of a direct solve of the crack
    grid = Grid(Domain.unit_square(dirichlet=dirichlet), 12)
    integrand = laplace_integrand()
    land = EnergyLandscape(grid, integrand, quadratic_datum)
    rng = np.random.default_rng(11)
    reduced = 0
    for _ in range(75):
        crack = random_crack(grid, rng)
        direct, rep = solve(grid, integrand, quadratic_datum, crack)
        reduced += len(land.effective(crack)) < len(crack)
        assert land.bulk(crack) == pytest.approx(rep.bulk_energy, rel=1e-9, abs=1e-13)
        field = land.solve_field(crack)
        assert field.topology.n_dofs == direct.topology.n_dofs
        assert np.array_equal(field.topology.cell_dofs, direct.topology.cell_dofs)
        assert np.array_equal(field.constrained, direct.constrained)
        assert np.array_equal(field.fixed, direct.fixed)
        assert field.fixed.dtype == direct.fixed.dtype
        assert np.allclose(field.values, direct.values, rtol=0, atol=1e-8)
        assert bulk_energy(field) == land.bulk(crack)
    assert reduced >= 5


def test_debond_edges_at_dirichlet_nodes_stay_in_the_effective_crack():
    # a full cut, with the whole left side debonded, leaves the left piece
    # floating; its debond edges still decide which nodes carry the datum
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 12)
    integrand = laplace_integrand()
    cut = CrackSet(grid, [("v", 6, j) for j in range(12)])
    debond = CrackSet(grid, grid.boundary_edges("left"))
    slit = CrackSet(grid, [("v", 3, j) for j in range(4, 8)])     # inside the left piece
    crack = cut.union(debond).union(slit)
    eff = effective_crack(grid, crack)
    assert eff.edges == cut.edges | debond.edges
    land = EnergyLandscape(grid, integrand, quadratic_datum)
    _, rep = solve(grid, integrand, quadratic_datum, crack)
    assert land.bulk(crack) == pytest.approx(rep.bulk_energy, rel=1e-9)
    # dropping the debond as well would load the left piece again
    _, without = solve(grid, integrand, quadratic_datum, cut)
    assert without.bulk_energy > 1.05 * rep.bulk_energy


def test_nested_circle_union_costs_no_solve(monkeypatch):
    grid = Grid(Domain.unit_square(dirichlet="all", centered=True), 48)
    land = EnergyLandscape(grid, meyers_integrand(3.0, "radial_stiff"),
                           meyers_profile(3.0, "radial_stiff"))
    c0, c1 = circle_crack(grid, (0.0, 0.0), 0.08), circle_crack(grid, (0.0, 0.0), 0.2)
    w1 = land.bulk(c1)
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(search, "solve", counting)
    union = c0.union(c1)
    assert land.effective(union).edges == c1.edges
    assert land.bulk(union) == w1
    assert land.bulk_many([union, c1, c1.union(c0)]) == [w1, w1, w1]
    assert solves == []
    # the field is the outer circle's, lifted onto the union's cut grid
    field = land.solve_field(union)
    assert [c.edges for c in solves] == [c1.edges]
    assert field.topology.n_dofs == cut_grid(grid, union).n_dofs
    assert bulk_energy(field) == w1
    assert land.bulk(c0) != w1


@pytest.mark.parametrize("p, solved", [(2.0, ["empty", "slit"]), (1.5, ["empty", "slit"])])
def test_a_fresh_landscape_solves_the_empty_crack_before_its_first_p2_candidate(
        monkeypatch, p, solved):
    # every candidate's external power pairs its stress with the uncracked
    # field, so that is solved first; a p = 2 candidate is also spliced from
    # the uncracked problem, which only p = 2 keeps
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 32)
    land = EnergyLandscape(grid, ppower_integrand(p), linear_x)
    slit = CrackSet(grid, [("v", 16, j) for j in range(8, 24)])
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(search, "solve", counting)
    land.bulk(slit)
    names = {land.empty_crack.edges: "empty", slit.edges: "slit"}
    assert [names[c.edges] for c in solves] == solved
    assert (land._uncracked.values is not None) == (p == 2.0)


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_the_kept_power_is_the_pairing_of_the_solved_field(p):
    # h^2 sum sigma(grad u) . grad v, with v the uncracked field, bit for bit;
    # the nested circles are solved as the outer one and lifted
    grid = Grid(Domain.unit_square(dirichlet="all", centered=True), 32)
    integrand = ppower_integrand(p)
    land = EnergyLandscape(grid, integrand, linear_x)
    c0, c1 = circle_crack(grid, (0.0, 0.0), 0.08), circle_crack(grid, (0.0, 0.0), 0.2)
    slit = CrackSet(grid, [("v", 16, j) for j in range(10, 20)])
    cracks = [c1.union(c0), slit, c0, c1, land.empty_crack]
    powers = [land.power(c) for c in cracks]
    assert len(land.effective(cracks[0])) < len(cracks[0])
    v = land.solve_field().gradients()
    xc, yc = grid.cell_centers()
    for crack, power in zip(cracks, powers):
        sigma = integrand.grad_f(xc, yc, land.solve_field(crack).gradients())
        assert power == grid.h ** 2 * float(np.einsum("ci,ci->", sigma, v))
    assert powers[0] == powers[3] != powers[2]


def test_a_crack_keeps_no_state_past_its_solves():
    # a crack is its grid and edges: solving cycle-closing, reduced and
    # plain cracks leaves nothing on them, and none takes a new attribute
    grid = Grid(Domain.unit_square(dirichlet="all", centered=True), 32)
    land = EnergyLandscape(grid, laplace_integrand(), linear_x)
    a, b, c, d, e = (circle_crack(grid, (0.0, 0.0), r) for r in (0.06, 0.1, 0.15, 0.2, 0.25))
    slit = CrackSet(grid, [("v", 16, j) for j in range(8, 24)])
    cracks = [b, a.union(c), slit, d, a.union(e)]
    land.bulk(b)
    land.bulk(a.union(c))
    land.bulk_many(cracks[2:])
    fields = [land.solve_field(crack) for crack in cracks]
    assert land.effective(a.union(e)) == e
    effective = [land.effective(crack) for crack in cracks]
    for crack in cracks + effective + [f.crack for f in fields] + [land.empty_crack]:
        with pytest.raises(AttributeError):
            crack.labels = None


def test_landscape_rejects_a_crack_from_another_lattice():
    square = Grid(Domain.unit_square(dirichlet=("left", "right")), 16)
    wide = Grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 32, 16)
    land = EnergyLandscape(square, laplace_integrand(), linear_x)
    edges = [("v", 8, j) for j in range(4, 9)]
    foreign = CrackSet(wide, edges)
    for cached in (False, True):
        # also once the same edge set is cached from the landscape's own grid
        if cached:
            land.bulk(CrackSet(square, edges))
        with pytest.raises(NonConformingCrack):
            land.bulk(foreign)
        with pytest.raises(NonConformingCrack):
            land.bulk_many([foreign])
        with pytest.raises(NonConformingCrack):
            land.solve_field(foreign)


# --- mirror images ----------------------------------------------------------------


def images(crack):
    return [CrackSet(crack.grid, edges) for edges in search._mirror_images(crack, search.MIRRORS)]


def random_slit(grid, rng):
    """A straight slit of 1 to nx / 2 edges anywhere on the grid, sides included."""
    n = int(rng.integers(1, grid.nx // 2 + 1))
    if rng.integers(2):
        i, j = int(rng.integers(0, grid.nx + 1)), int(rng.integers(0, grid.ny - n + 1))
        return CrackSet(grid, [("v", i, j + k) for k in range(n)])
    i, j = int(rng.integers(0, grid.nx - n + 1)), int(rng.integers(0, grid.ny + 1))
    return CrackSet(grid, [("h", i + k, j) for k in range(n)])


@pytest.mark.parametrize("p, slits, power_rtol", [(2.0, 12, 1e-12), (3.0, 8, 1e-10)])
def test_mirror_images_reuse_the_energy_and_power_of_direct_solves(monkeypatch, p, slits,
                                                                   power_rtol):
    # the pull-apart square is invariant under both mirrors: each slit is
    # solved, its three images are read from it, and they agree with a
    # landscape that solves every crack; powers agree to Newton's tolerance
    grid = Grid(Domain.unit_square(dirichlet=("left", "right")), 64)
    integrand = ppower_integrand(p)
    land = EnergyLandscape(grid, integrand, linear_x)
    direct = EnergyLandscape(grid, integrand, linear_x)
    direct._group = ()
    assert land._group == search.MIRRORS
    solved = count_solves(monkeypatch, land)
    rng = np.random.default_rng(5)
    for _ in range(slits):
        slit = random_slit(grid, rng)
        land.bulk(slit)
        for image in images(slit):
            assert land.bulk(image) == pytest.approx(direct.bulk(image), rel=1e-12)
            assert land.power(image) == pytest.approx(direct.power(image), rel=power_rtol)
    assert len(solved) == 1 + slits


def x2_plus_y(x, y):
    return np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float)


@pytest.mark.parametrize("dirichlet, integrand, psi", [
    (("left", "right"), laplace_integrand(), x2_plus_y),
    (("left",), laplace_integrand(), linear_x),
    # four blocks a side: each mirror swaps the colours
    (("left", "right"), ppower_integrand(2.0, CheckerboardCoefficient(1.0, 4.0, 0.25)), linear_x),
    (("left", "right"), quadratic_integrand(ConstantMatrixCoefficient(2.0, 1.0, 0.5)), linear_x),
], ids=["datum", "dirichlet", "checkerboard", "a12"])
def test_asymmetric_problems_never_reuse(monkeypatch, dirichlet, integrand, psi):
    grid = Grid(Domain.unit_square(dirichlet=dirichlet), 16)
    land = EnergyLandscape(grid, integrand, psi)
    assert land._group == ()
    solved = count_solves(monkeypatch, land)
    slit = CrackSet(grid, [("v", 5, j) for j in range(3, 9)])
    land.bulk_many([slit] + images(slit))
    assert len(solved) == 5


def x_squared(x, y):
    return np.asarray(x, dtype=float) ** 2


@pytest.mark.parametrize("domain, integrand, psi", [
    # the datum is read at the Dirichlet nodes only: x^2 there is 0 and 1
    (Domain.unit_square(dirichlet=("left", "right")), laplace_integrand(), x_squared),
    (Domain.unit_square(dirichlet="all", centered=True), meyers_integrand(3.0, "radial_stiff"),
     meyers_profile(3.0, "radial_stiff")),
    # three blocks a side: the mirrors keep the colours
    (Domain.unit_square(dirichlet=("left", "right")),
     ppower_integrand(3.0, CheckerboardCoefficient(1.0, 4.0, 1.0 / 3.0)), linear_x),
    (Domain.unit_square(dirichlet=("left", "right")),
     quadratic_integrand(ConstantMatrixCoefficient(2.0, 1.0)), linear_x),
    (Domain.rectangle(0.0, 0.0, 2.0, 1.0, ("left", "right")), laplace_integrand(), linear_x),
], ids=["datum", "meyers", "checkerboard", "diagonal", "2x1"])
def test_symmetric_problems_detect_both_mirrors(monkeypatch, domain, integrand, psi):
    grid = Grid(domain, 16)
    land = EnergyLandscape(grid, integrand, psi)
    assert land._group == search.MIRRORS
    solved = count_solves(monkeypatch, land)
    slit = CrackSet(grid, [("v", 5, j) for j in range(3, 6)])
    bulks = land.bulk_many([slit] + images(slit))
    assert len(solved) == 2
    assert bulks[1:] == [bulks[0]] * 3


def test_mirror_images_map_edges_to_edges():
    # flipping the endpoints of each edge, on a rectangle of unequal sides
    grid = Grid(Domain.rectangle(0.0, 0.0, 2.0, 1.0), 8, 4)
    crack = CrackSet(grid, [("h", 0, 0), ("h", 2, 3), ("v", 8, 1), ("v", 3, 0)])
    flipped = search._mirror_images(crack, search.MIRRORS)
    for (flip_x, flip_y), edges in zip(search.MIRRORS, flipped):
        def mirror(node):
            i, j = grid.node_ij(node)
            return grid.node_id(grid.nx - i if flip_x else i, grid.ny - j if flip_y else j)
        ends = {frozenset(map(mirror, grid.edge_nodes(e))) for e in crack.edges}
        assert {frozenset(grid.edge_nodes(e)) for e in edges} == ends
        assert CrackSet(grid, edges).h1() == crack.h1()


def todays_f_and_grad(integrand, x, y, xi):
    """f and grad f evaluated as Integrand.eval_f and grad_f did when each
    call evaluated the coefficient itself."""
    if integrand.kind == "ppower":
        c = integrand.coeff.scalar(x, y)
        norm = np.sqrt(xi[..., 0] * xi[..., 0] + xi[..., 1] * xi[..., 1])
        fac = np.power(norm, integrand.p - 2.0, out=np.zeros_like(norm), where=norm > 0.0)
        return c / integrand.p * norm ** integrand.p, (c * fac)[..., None] * xi
    A = integrand.coeff.matrix(x, y)
    return (np.einsum("...ij,...i,...j->...", A, xi, xi),
            2.0 * np.einsum("...ij,...j->...i", A, xi))


@pytest.mark.parametrize("integrand", [laplace_integrand(), ppower_integrand(3.0),
                                       meyers_integrand(3.0, "radial_stiff")])
def test_the_kept_coefficient_gives_todays_energies_and_powers(integrand):
    # a landscape evaluates its coefficient once; its energies and powers are
    # those of evaluating it per call, bit for bit, and so are solve()'s
    grid = Grid(Domain.unit_square(dirichlet="all", centered=True), 32)
    psi = meyers_profile(3.0, "radial_stiff")
    land = EnergyLandscape(grid, integrand, psi)
    xc, yc = grid.cell_centers()
    v = land.solve_field().gradients()
    for crack in (land.empty_crack, circle_crack(grid, (0.0, 0.0), 0.2),
                  CrackSet(grid, [("v", 10, j) for j in range(12, 20)])):
        field = land.solve_field(crack)
        f, sigma = todays_f_and_grad(integrand, xc, yc, field.gradients())
        assert land.bulk(crack) == grid.h ** 2 * float(np.sum(f))
        assert land.power(crack) == grid.h ** 2 * float(np.einsum("ci,ci->", sigma, v))
        field, rep = solve(grid, integrand, psi, crack)
        f, _ = todays_f_and_grad(integrand, xc, yc, field.gradients())
        assert rep.bulk_energy == bulk_energy(field) == grid.h ** 2 * float(np.sum(f))
