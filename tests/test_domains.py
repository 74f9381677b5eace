"""Domain membership, rasterization, and the mask text format."""

import math
import warnings

import numpy as np
import pytest

from dbarkit.corona import g12_solve, g_power_solve, koszul_F
from dbarkit.division import (divide, multi_division_c1,
                              multi_division_continuous,
                              quotient_extension_lemma)

from dbarkit.domains import (AnnulusSector, Comb, Disk, DiskChain, GridSpec,
                             HalfRingSpiral, InnerSpiral, MaskResolutionError,
                             Polygon, SectorChain, Union, build_mask,
                             connected_components, dump_mask, interior_shrunk,
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


def test_nearest_index_clips():
    g = GridSpec(0j, 0.5, 3, 3)
    assert g.nearest_index(0.6 + 0.4j) == (1, 1)
    assert g.nearest_index(99 + 99j) == (2, 2)
    assert g.nearest_index(-99 - 99j) == (0, 0)


def test_zgrid_matches_node():
    g = GridSpec(1 - 1j, 0.25, 4, 3)
    zz = g.zgrid()
    assert zz.shape == (3, 4)
    assert zz[2, 1] == g.node(1, 2)


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
