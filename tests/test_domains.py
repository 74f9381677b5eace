"""Domain membership, rasterization, and the mask text format."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from dbarkit.corona import g12_solve, g_power_solve, koszul_F
from dbarkit.division import (divide, multi_division_c1,
                              multi_division_continuous,
                              quotient_extension_lemma)

from dbarkit.domains import (MAX_GRID_NODES, AnnulusSector, Comb, Disk,
                             DiskChain, GridSpec, HalfRingSpiral, InnerSpiral,
                             MaskResolutionError, Polygon, RegionMask, SectorChain, Union,
                             build_mask, connected_components, dump_mask,
                             _eroded, _window_and, interior_shrunk,
                             load_mask)
from dbarkit.expr import Z, Const, conj


# ---------------------------------------------------------------- shapes


def test_disk_membership_and_bbox():
    d = Disk(1 + 1j, 0.5)
    assert d.contains(np.array([1 + 1j, 1.5 + 1j, 1.51 + 1j])).tolist() == \
        [True, True, False]
    assert d.bbox() == (0.5, 1.5, 0.5, 1.5)
    assert d.tagged_points == ()
    with pytest.raises(ValueError, match="radius"):
        Disk(0j, -1.0)


def test_union_semantics():
    u = Union((Disk(0j, 0.5), SectorChain(2)))
    assert u.contains(np.array([0.2j, 0.2, 3 + 0j])).tolist() == \
        [True, True, False]
    assert u.tagged_points == (0j,)  # inherited from the chain
    xmin, xmax, ymin, ymax = u.bbox()
    assert xmin == -0.5 and xmax == 0.5
    with pytest.raises(ValueError, match="no domains"):
        Union(())


def test_annulus_sector():
    a = AnnulusSector(0.5, 1.0, math.pi / 4)
    pts = np.array([0.75, 0.4, 1.1, 0.75j, 0.75 * np.exp(1j * math.pi / 4)])
    assert a.contains(pts).tolist() == [True, False, False, False, True]
    with pytest.raises(ValueError, match="r_in < r_out"):
        AnnulusSector(1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="half_angle"):
        AnnulusSector(0.1, 1.0, 4.0)


def test_sector_chain_indexing():
    sc = SectorChain(3)
    pts = np.array([0.2, 0.125, 0.25, 0.09, 0.0625,
                    0.2 * np.exp(1j * math.pi / 4),
                    0.2 * np.exp(1j * math.pi / 3), 0j, 1.0])
    assert sc.sector_index(pts).tolist() == [1, 1, 1, 0, 2, 1, 0, 0, 0]
    assert sc.contains(np.array([0.2, 0.09])).tolist() == [True, False]
    assert sc.corner(1) == pytest.approx(0.25 * np.exp(1j * math.pi / 4))
    assert sc.tagged_points == (0j,)
    with pytest.raises(ValueError, match=">= 1"):
        SectorChain(0)


def test_disk_chain_layout():
    dc = DiskChain(2)
    disks = dc.disks()
    assert len(disks) == 3
    assert disks[0] == Disk(-1 + 0j, 1.0)
    assert disks[1] == Disk(1 / 3 + 0j, 1 / 27)
    assert dc.contains(np.array([-1 + 0j, 1 / 3, 0.29, 0.1j])).tolist() == \
        [True, True, False, False]


def test_comb_teeth():
    c = Comb(teeth=4)
    lo, hi = c.tooth_span(2)
    assert (lo, hi) == pytest.approx((0.5 - 1 / 36, 0.5 + 1 / 36))
    y = 0.5  # above the base strip, only teeth live here
    assert c.contains(np.array([0.5 + y * 1j,          # on tooth 2
                                0.4 + y * 1j,          # between teeth
                                0.5 + 0.1j])).tolist() == [True, False, True]
    with pytest.raises(ValueError, match="teeth"):
        Comb(teeth=1)
    with pytest.raises(ValueError, match="base_height"):
        Comb(base_height=1.5)


def test_inner_spiral_band():
    sp = InnerSpiral()
    # the positive real axis meets the band where theta = 2 pi
    pts = [1 / (2 * math.pi), 1 / (2 * math.pi + 0.5), 1 / (2 * math.pi + 1.5),
           -1 / (2 * math.pi), 0.999 / math.pi, 0j]
    assert sp.contains(np.array(pts)).tolist() == \
        [True, True, False, False, False, False]
    assert sp.tagged_points == (0j,)
    with pytest.raises(ValueError, match="theta_max"):
        InnerSpiral(theta_max=math.pi)


def test_half_ring_spiral_arcs():
    hs = HalfRingSpiral(rings=3)
    arcs = hs.arcs()
    assert len(arcs) == 3
    center, radius, w, upper = arcs[0]
    assert center == pytest.approx((1 - 0.5) / 2)
    assert radius == pytest.approx(0.75)
    assert upper
    assert not arcs[1][3]
    # junction disks keep the axis crossings inside
    assert hs.contains(np.array([-0.5 + 0j, 1 / 3 + 0j])).tolist() == \
        [True, True]


def test_polygon_even_odd():
    square = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
    pts = np.array([0.5 + 0.5j, 0j, 0.5, 1 + 1j, 1.5 + 0.5j, -0.1 + 0.5j])
    assert square.contains(pts).tolist() == [True, True, True, True,
                                             False, False]
    with pytest.raises(ValueError, match="3 vertices"):
        Polygon((0j, 1 + 0j))


@pytest.mark.parametrize("vertices", [(0j, 1, 1, 1 + 1j, 1j),
                                      (0j, 1, 1 + 1j, 1j, 0j)],
                         ids=["repeated", "closed"])
def test_polygon_repeated_vertex_changes_nothing(vertices):
    # a zero-length edge crosses no row and covers no point of its own
    square = build_mask(Polygon((0j, 1, 1 + 1j, 1j)), h=1 / 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = build_mask(Polygon(vertices), h=1 / 16)
    assert m.grid == square.grid
    assert (m.inside == square.inside).all()
    assert (m.interior == square.interior).all()


# ----------------------------------------------------------------- grids


def test_grid_cover_and_refine():
    g = GridSpec.cover((0.0, 1.0, 0.0, 1.0), h=0.25, margin=2)
    assert g.origin == complex(-0.5, -0.5)
    f = g.refined(2)
    assert f.origin == g.origin and f.h == g.h / 2
    assert (f.nx, f.ny) == (2 * g.nx - 1, 2 * g.ny - 1)
    # coarse nodes are a sublattice of the fine grid
    assert f.node(4, 6) == g.node(2, 3)


def test_grid_validation():
    with pytest.raises(ValueError, match="spacing"):
        GridSpec(0j, -0.1, 4, 4)
    with pytest.raises(ValueError, match="2x2"):
        GridSpec(0j, 0.1, 1, 4)


def test_grid_size_bound():
    # refused by GridSpec arithmetic alone: nothing is allocated
    side = int(math.isqrt(MAX_GRID_NODES))
    assert GridSpec(0j, 1.0, side, side).nx == side
    with pytest.raises(MaskResolutionError,
                       match=f"past MAX_GRID_NODES = {MAX_GRID_NODES}"):
        GridSpec(0j, 1.0, side + 1, side)
    with pytest.raises(MaskResolutionError, match="MAX_GRID_NODES"):
        GridSpec(0j, 1.0, side, side).refined(2)
    # a radius of 100 at h = 1/256 asks for 2.6e9 nodes
    with pytest.raises(MaskResolutionError, match=r"2\.62e\+09 nodes"):
        GridSpec.cover(Disk(0j, 100.0).bbox(), 1 / 256)
    with pytest.raises(MaskResolutionError, match="numpy's array size limit"):
        GridSpec(0j, 1.0, 2 ** 40, 2 ** 40)
    with pytest.raises(MaskResolutionError,
                       match=r"10\^604 nodes .* numpy's array size limit"):
        GridSpec.cover(Disk(0j, 1e300).bbox(), 1 / 64)
    with pytest.raises(MaskResolutionError, match="more nodes than a float"):
        GridSpec.cover((-1.0, 1.0, -1.0, 1.0), 1e-320)


def test_nearest_index_clips():
    g = GridSpec(0j, 0.5, 3, 3)
    assert g.nearest_index(0.6 + 0.4j) == (1, 1)
    assert g.nearest_index(99 + 99j) == (2, 2)
    assert g.nearest_index(-99 - 99j) == (0, 0)


def test_zgrid_matches_node():
    g = GridSpec(1 - 1j, 0.25, 4, 3)
    zz = g.zgrid()
    assert zz.shape == (3, 4)
    nodes = np.array([[g.node(ix, iy) for ix in range(4)] for iy in range(3)])
    np.testing.assert_array_equal(zz, nodes)


# ----------------------------------------------------------------- masks


def test_disk_census(disk_mask_64):
    counts = disk_mask_64.counts()
    assert counts == {"inside": 12853, "interior": 12345,
                      "boundary": 508, "exterior": 4836}
    # node count tracks area: pi / h^2 = 12868 to within the ring size
    assert abs(counts["inside"] - math.pi * 64 * 64) < counts["boundary"]
    assert (disk_mask_64.boundary == (disk_mask_64.inside
                                      & ~disk_mask_64.interior)).all()


def test_refined_membership_is_monotone(disk_mask_64):
    coarse = disk_mask_64
    fine = build_mask(Disk(0j, 1.0), grid=coarse.grid.refined(2))
    assert (fine.inside[::2, ::2] == coarse.inside).all()


def test_interior_shrunk(disk_mask_64):
    assert (interior_shrunk(disk_mask_64, 1) == disk_mask_64.interior).all()
    deep = interior_shrunk(disk_mask_64, 3)
    assert int(deep.sum()) == 11361
    assert (deep & ~disk_mask_64.interior).sum() == 0


@pytest.mark.parametrize("margin", [0, -2])
def test_interior_shrunk_refuses_a_margin_below_one(disk_mask_64, margin):
    # scipy reads iterations < 1 as "until nothing changes": margin 0
    # once returned no node at all instead of a refusal
    with pytest.raises(ValueError, match=f"margin {margin} is below 1"):
        interior_shrunk(disk_mask_64, margin)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eroded_matches_iterated_binary_erosion(data):
    # the oracle: k iterations of the 3x3 erosion with the grid's edge
    # outside; shapes run from one row or column through narrower than
    # the window to a few nodes wider
    k = data.draw(st.integers(1, 40), label="k")
    side = st.one_of(st.just(1), st.integers(1, 2 * k),
                     st.integers(2 * k + 1, 2 * k + 12))
    ny, nx = data.draw(side, label="ny"), data.draw(side, label="nx")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    holes = data.draw(st.sampled_from([0.0, 0.002, 0.05, 0.5]))
    inside = rng.random((ny, nx)) >= holes
    want = ndimage.binary_erosion(inside, np.ones((3, 3), bool),
                                  iterations=k, border_value=0)
    np.testing.assert_array_equal(_eroded(inside, k), want)


def test_window_and_covers_every_hole_position():
    # deterministic companion of the hypothesis oracle above: a single
    # hole at each position, for windows of width 3 .. 11, is seen by
    # exactly the windows that hold it, the last `rest` nodes included
    for k in range(1, 6):
        n = 2 * k + 4
        for hole in range(n):
            a = np.ones(n, bool)
            a[hole] = False
            want = [k <= i < n - k and abs(hole - i) > k for i in range(n)]
            assert _window_and(a, k).tolist() == want, (k, hole)


def test_node_sets_use_no_binary_erosion(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("ndimage.binary_erosion called")

    monkeypatch.setattr(ndimage, "binary_erosion", refuse)
    mask = build_mask(Disk(0j, 1.0), h=1 / 16)
    assert (interior_shrunk(mask, 1) == mask.interior).all()
    assert interior_shrunk(mask, 4).sum() < mask.interior.sum()
    dump_mask(mask, tmp_path / "disk.mask")
    assert (load_mask(tmp_path / "disk.mask").interior == mask.interior).all()


SIGNED_PART = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(-8, 8, allow_subnormal=False))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_coords_and_zgrid_are_the_complex_rule_bitwise(data):
    # the axis vectors must reproduce origin + h*(ix + 1j*iy) bit for
    # bit, signed zeros of the origin included
    origin = complex(data.draw(SIGNED_PART), data.draw(SIGNED_PART))
    h = data.draw(st.floats(1e-4, 2.0))
    ny, nx = data.draw(st.integers(2, 40)), data.draw(st.integers(2, 40))
    g = GridSpec(origin, h, nx, ny)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sel = rng.random((ny, nx)) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    iy, ix = np.nonzero(sel)
    want = g.origin + g.h * (ix + 1j * iy)
    assert RegionMask(g, sel, sel).coords(sel).tobytes() == want.tobytes()
    jx, jy = np.meshgrid(np.arange(nx), np.arange(ny))
    assert g.zgrid().tobytes() == (g.origin + g.h * (jx + 1j * jy)).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_points_of_flat_indices_are_coords_bitwise(data):
    # on random selections that reach every edge of a grid whose rows
    # and columns differ in number, flat indices give coords' bits
    origin = complex(data.draw(SIGNED_PART), data.draw(SIGNED_PART))
    h = data.draw(st.floats(1e-4, 2.0))
    ny, nx = data.draw(st.integers(2, 40)), data.draw(st.integers(2, 40))
    assume(nx != ny)
    g = GridSpec(origin, h, nx, ny)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sel = rng.random((ny, nx)) < data.draw(st.sampled_from([0.1, 0.5, 1.0]))
    for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        sel[edge][rng.integers(sel[edge].size)] = True
    mask = RegionMask(g, sel, sel)
    got = mask.points(np.flatnonzero(sel))
    assert got.tobytes() == mask.coords(sel).tobytes()


def test_coords_are_row_major(disk_mask_64):
    sel = np.zeros_like(disk_mask_64.inside)
    sel[10, 5] = sel[3, 20] = True
    got = disk_mask_64.coords(sel)
    g = disk_mask_64.grid
    assert got.tolist() == [g.node(20, 3), g.node(5, 10)]


def test_nearest_node_prefers_selected(disk_mask_64):
    g = disk_mask_64.grid
    target = g.node(40, 40)
    hit = disk_mask_64.nearest_node(target, disk_mask_64.interior)
    assert hit == (40, 40)
    # mask out the exact node: the hit moves to a neighbor
    sel = disk_mask_64.interior.copy()
    sel[40, 40] = False
    iy, ix = disk_mask_64.nearest_node(target, sel)
    assert abs(iy - 40) <= 1 and abs(ix - 40) <= 1 and (iy, ix) != (40, 40)


def test_nearest_node_rejects_far_points(disk_mask_64):
    assert disk_mask_64.nearest_node(50 + 50j, disk_mask_64.inside) is None


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_window_and_nearest_node_match_brute_force(data):
    ny, nx = data.draw(st.integers(2, 9)), data.draw(st.integers(2, 9))
    bits = data.draw(st.lists(st.booleans(), min_size=ny * nx,
                              max_size=ny * nx))
    sel = np.array(bits).reshape(ny, nx)
    mask = RegionMask(GridSpec(0.5 - 0.25j, 0.125, nx, ny), sel, sel)
    nodes = [(y, x) for y in range(ny) for x in range(nx) if sel[y, x]]

    # radii up to 10 clip the window at one or more grid edges
    iy = data.draw(st.integers(0, ny - 1))
    ix = data.draw(st.integers(0, nx - 1))
    n = data.draw(st.integers(0, 10))
    yy, xx = mask.window(sel, iy, ix, n)
    assert list(zip(yy.tolist(), xx.tolist())) == [
        (y, x) for y, x in nodes if max(abs(y - iy), abs(x - ix)) <= n]

    # a whole-grid radius finds the first nearest node in row-major order
    g = mask.grid
    z = g.node(data.draw(st.floats(0, nx - 1)),
               data.draw(st.floats(0, ny - 1)))
    hit = mask.nearest_node(z, sel, max(nx, ny))
    if not nodes:
        assert hit is None
    else:
        # np.abs, not the builtin abs: the builtin hypot can split a
        # mirror-image tie by one ulp that np.abs leaves exact
        d = np.abs(np.array([g.node(x, y) for y, x in nodes]) - z)
        assert hit == nodes[int(np.argmin(d))]


def test_nearest_node_mirror_tie_goes_to_first_in_row_major():
    # z on the diagonal is equally far from (0, 1) and (1, 0)
    sel = np.zeros((9, 9), dtype=bool)
    sel[0, 1] = sel[1, 0] = True
    mask = RegionMask(GridSpec(0.5 - 0.25j, 0.125, 9, 9), sel, sel)
    t = 1.3149440004571196
    assert mask.nearest_node(mask.grid.node(t, t), sel, 9) == (0, 1)


def test_build_mask_requires_h_or_grid():
    with pytest.raises(ValueError, match="pass h or grid"):
        build_mask(Disk(0j, 1.0))


@pytest.mark.parametrize("call", [
    lambda: koszul_F([Z], [Z], domain=None, mask=None),
    lambda: g_power_solve(Z, [Z], [Const(1.0)], domain=None, mask=None),
    lambda: g12_solve(Z, [Z], [conj(Z)], domain=None, mask=None),
    lambda: divide(Z, Z, 1, domain=None, mask=None),
    lambda: multi_division_continuous(Z, [Z], domain=None, mask=None),
    lambda: multi_division_c1(Z, [Z], domain=None, mask=None),
    lambda: quotient_extension_lemma(Z, [Z], 4, domain=None, mask=None),
], ids=["koszul_F", "g_power_solve", "g12_solve", "divide",
        "multi_division_continuous", "multi_division_c1",
        "quotient_extension_lemma"])
def test_entry_points_need_a_domain_or_a_mask(call):
    with pytest.raises(ValueError, match="need a domain or a prebuilt mask"):
        call()


def test_mask_resolution_errors():
    with pytest.raises(MaskResolutionError, match="no Inside nodes"):
        build_mask(Disk(0j, 0.2), h=0.5)
    with pytest.raises(MaskResolutionError, match="no Interior nodes"):
        build_mask(Disk(0j, 0.6), h=0.5)


def test_connected_components():
    two = build_mask(Union((Disk(0j, 0.5), Disk(2 + 0j, 0.5))), h=1 / 16)
    labels, count = connected_components(two)
    assert count == 2
    assert labels.max() == 2 and (labels[two.inside] > 0).all()
    comb = build_mask(Comb(teeth=5), h=1 / 128)
    assert connected_components(comb)[1] == 1
    chain = build_mask(DiskChain(2), h=1 / 64)
    assert connected_components(chain)[1] == 3


# ------------------------------------------------------------- text dump


def test_dump_load_roundtrip(disk_mask_64, tmp_path):
    path = tmp_path / "disk.mask"
    dump_mask(disk_mask_64, path)
    back = load_mask(path)
    assert back.grid == disk_mask_64.grid
    assert (back.inside == disk_mask_64.inside).all()
    assert (back.interior == disk_mask_64.interior).all()
    first = path.read_text().splitlines()
    assert first[0].split()[:2] == ["133", "133"]
    assert set("".join(first[1:])) <= set("EIB")


def test_load_accepts_generic_inside_char(tmp_path):
    path = tmp_path / "hand.mask"
    path.write_text("3 3 0.5 0.0 0.0\nEEE\nENE\nEEE\n")
    m = load_mask(path)
    assert m.counts()["inside"] == 1
    assert m.counts()["interior"] == 0


@pytest.mark.parametrize("text, fragment", [
    ("3 3 0.5 0.0\nEEE\nEEE\nEEE\n", "header"),
    ("3 3 0.5 0.0 0.0\nEE\nEEE\nEEE\n", "has 2 chars"),
    ("3 3 0.5 0.0 0.0\nEEE\nEXE\nEEE\n", "invalid characters"),
])
def test_load_rejects_malformed(tmp_path, text, fragment):
    path = tmp_path / "bad.mask"
    path.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        load_mask(path)
