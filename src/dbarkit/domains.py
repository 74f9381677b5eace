"""Planar compact sets rasterized onto uniform node-centered grids.

A grid node is Inside when the membership predicate of the domain holds
at its coordinate.  An Inside node whose eight neighbors are all Inside
is Interior; the remaining Inside nodes form the Boundary ring.  All
downstream quadrature and stencil work keys off these three classes.

Domains carry an optional tuple of tagged points: exact coordinates
(an isolated origin, an accumulation point) that exist in the ideal set
but need not survive rasterization.  Path probes may target them via a
final off-grid hop.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

__all__ = [
    "CompactDomain", "Disk", "Union", "AnnulusSector", "SectorChain",
    "DiskChain", "Comb", "InnerSpiral", "HalfRingSpiral", "Polygon",
    "GridSpec", "RegionMask", "MaskResolutionError",
    "build_mask", "resolve_mask", "connected_components", "interior_shrunk",
    "dump_mask", "load_mask",
]

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_EIGHT_CONN = np.ones((3, 3), dtype=bool)
ROW_BLOCK = 512


class MaskResolutionError(ValueError):
    """The grid spacing cannot resolve the domain."""


class CompactDomain(ABC):
    """A compact planar set with a vectorized membership test."""

    tagged_points: tuple = ()

    @abstractmethod
    def contains(self, z: np.ndarray) -> np.ndarray:
        """Boolean membership for an array of complex coordinates."""

    @abstractmethod
    def bbox(self) -> tuple:
        """(xmin, xmax, ymin, ymax) covering the set."""


@dataclass(frozen=True)
class Disk(CompactDomain):
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")

    def contains(self, z):
        return np.abs(z - self.center) <= self.radius

    def bbox(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)


@dataclass(frozen=True)
class Union(CompactDomain):
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("union of no domains")

    def contains(self, z):
        acc = self.members[0].contains(z)
        for m in self.members[1:]:
            acc = acc | m.contains(z)
        return acc

    def bbox(self):
        boxes = [m.bbox() for m in self.members]
        return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

    @property
    def tagged_points(self):
        return tuple(p for m in self.members for p in m.tagged_points)


@dataclass(frozen=True)
class AnnulusSector(CompactDomain):
    """r_in <= |z - center| <= r_out, |arg(z - center)| <= half_angle."""

    r_in: float
    r_out: float
    half_angle: float
    center: complex = 0j

    def __post_init__(self):
        if not (0 <= self.r_in < self.r_out):
            raise ValueError("need 0 <= r_in < r_out")
        if not (0 < self.half_angle <= math.pi):
            raise ValueError("half_angle must lie in (0, pi]")

    def contains(self, z):
        w = z - self.center
        r = np.abs(w)
        ok = (r >= self.r_in) & (r <= self.r_out)
        with np.errstate(invalid="ignore"):
            ang = np.abs(np.angle(w))
        return ok & (ang <= self.half_angle)

    def bbox(self):
        c, r = self.center, self.r_out
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)


@dataclass(frozen=True)
class SectorChain(CompactDomain):
    """Sectors 2^-(2n+1) <= |z| <= 2^-2n, |arg z| <= pi/4, n = 1..count,
    accumulating at the origin, which rides along as a tagged point."""

    count: int
    tagged_points: tuple = field(default=(0j,), init=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def corner(self, n: int) -> complex:
        """Outer corner C_n = 2^-2n exp(i pi/4) of sector n."""
        return 2.0 ** (-2 * n) * np.exp(1j * math.pi / 4)

    def sector_index(self, z):
        """Index n of the sector containing each point, 0 outside."""
        r = np.abs(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -np.log2(np.where(r > 0, r, 1.0)) / 2.0
            ang = np.abs(np.angle(np.where(z == 0, 1.0, z)))
        nf = np.floor(t)
        ok = ((r > 0) & (nf >= 1) & (nf <= self.count)
              & (t - nf <= 0.5) & (ang <= math.pi / 4))
        return np.where(ok, nf.astype(int), 0)

    def contains(self, z):
        return self.sector_index(z) > 0

    def bbox(self):
        r1 = 0.25
        return (0.0, r1, -r1 * math.sin(math.pi / 4), r1 * math.sin(math.pi / 4))


@dataclass(frozen=True)
class DiskChain(CompactDomain):
    """Unit disk at -1 plus disks of radius 1/n^3 at 1/n, n = 3..count+2.

    The small disks shrink fast enough that no interior path connects
    them, while their centers still accumulate at the origin on the
    boundary of nothing: the classic non-L-connected configuration.
    """

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def disks(self):
        out = [Disk(-1.0 + 0j, 1.0)]
        for n in range(3, self.count + 3):
            out.append(Disk(1.0 / n + 0j, 1.0 / n ** 3))
        return out

    def contains(self, z):
        acc = np.abs(z + 1.0) <= 1.0
        for n in range(3, self.count + 3):
            acc = acc | (np.abs(z - 1.0 / n) <= 1.0 / n ** 3)
        return acc

    def bbox(self):
        return (-2.0, 1.0 / 3 + 1.0 / 27, -1.0, 1.0)


@dataclass(frozen=True)
class Comb(CompactDomain):
    """Base strip [0,1] x [0, base_height] with vertical teeth of height
    tooth_height at x = 1/n.  Tooth n has width 1/(3 n (n+1)), a third
    of the gap to the next tooth, so teeth never merge; they accumulate
    at the segment above x = 0."""

    teeth: int = 8
    base_height: float = 0.25
    tooth_height: float = 1.0

    def __post_init__(self):
        if self.teeth < 2:
            raise ValueError("need at least 2 teeth")
        if not (0 < self.base_height < self.tooth_height):
            raise ValueError("need 0 < base_height < tooth_height")

    def tooth_span(self, n: int) -> tuple:
        half = 1.0 / (6.0 * n * (n + 1))
        return (1.0 / n - half, 1.0 / n + half)

    def contains(self, z):
        x, y = z.real, z.imag
        acc = (x >= 0) & (x <= 1) & (y >= 0) & (y <= self.base_height)
        for n in range(1, self.teeth + 1):
            lo, hi = self.tooth_span(n)
            acc = acc | ((x >= lo) & (x <= hi) & (y >= 0) & (y <= self.tooth_height))
        return acc

    def bbox(self):
        return (0.0, self.tooth_span(1)[1], 0.0, self.tooth_height)


@dataclass(frozen=True)
class InnerSpiral(CompactDomain):
    """Spiral band 1/(theta+1) <= r <= 1/theta for pi <= theta <=
    theta_max, winding toward the tagged origin.  theta_max is a
    truncation parameter; growth of path lengths is probed across
    truncations, not within one."""

    theta_max: float = 16 * math.pi
    tagged_points: tuple = field(default=(0j,), init=False)

    def __post_init__(self):
        if self.theta_max <= math.pi + 1:
            raise ValueError("theta_max must leave at least one radian "
                             "of band beyond pi")

    def contains(self, z):
        r = np.abs(z)
        pos = r > 0
        rr = np.where(pos, r, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.angle(np.where(pos, z, 1.0))
            lo = np.maximum(math.pi, 1.0 / rr - 1.0)
            hi = np.minimum(self.theta_max, 1.0 / rr)
        k = np.ceil((lo - phi) / (2 * math.pi))
        theta = phi + 2 * math.pi * k
        return pos & (theta <= hi) & (lo <= hi)

    def bbox(self):
        r = 1.0 / math.pi
        return (-r, r, -r, r)


@dataclass(frozen=True)
class HalfRingSpiral(CompactDomain):
    """Chain of thick half-annuli winding into the tagged origin.

    Semicircular bands alternate above and below the real axis; band k
    joins the axis points (-1)^(k-1)/k and (-1)^k/(k+1), so consecutive
    bands overlap around the shared endpoint and the spine's total
    length diverges with the ring count.  thickness scales each band
    relative to the gap between its turns; values near 1 let the
    outermost turns merge, which is allowed (the probes just measure
    whatever set results)."""

    rings: int = 6
    thickness: float = 0.6
    tagged_points: tuple = field(default=(0j,), init=False)

    def __post_init__(self):
        if self.rings < 2:
            raise ValueError("rings must be >= 2")
        if not (0 < self.thickness <= 1):
            raise ValueError("thickness must lie in (0, 1]")

    def arcs(self):
        """(center, radius, half_width, upper) per band, outermost first."""
        out = []
        for k in range(1, self.rings + 1):
            a = (-1) ** (k - 1) / k
            b = (-1) ** k / (k + 1)
            half_width = 0.45 * self.thickness * (1.0 / k - 1.0 / (k + 1))
            out.append(((a + b) / 2, abs(a - b) / 2, half_width, k % 2 == 1))
        return out

    def contains(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=bool)
        arcs = self.arcs()
        for center, radius, w, upper in arcs:
            ring = np.abs(np.abs(z - center) - radius) <= w
            side = (z.imag >= -w) if upper else (z.imag <= w)
            acc = acc | (ring & side)
        # consecutive bands osculate at their shared axis point; a disk
        # there keeps the junction as wide as the bands themselves
        for k in range(1, self.rings):
            p = (-1) ** k / (k + 1)
            r = (arcs[k - 1][2] + arcs[k][2]) / 2
            acc = acc | (np.abs(z - p) <= r)
        return acc

    def bbox(self):
        w = self.arcs()[0][2]
        return (-1 - w, 1 + w, -0.75 - w, 1 + w)


@dataclass(frozen=True)
class Polygon(CompactDomain):
    """Closed polygon, even-odd rule."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")

    def contains(self, z):
        x, y = np.real(z), np.imag(z)
        inside = np.zeros(np.shape(z), dtype=bool)
        on_edge = np.zeros(np.shape(z), dtype=bool)
        v = [complex(p) for p in self.vertices]
        n = len(v)
        for k in range(n):
            a, b = v[k], v[(k + 1) % n]
            if a == b:
                # a repeated vertex: the edge is a point, crossing nothing
                continue
            ax, ay, bx, by = a.real, a.imag, b.real, b.imag
            crosses = ((ay > y) != (by > y))
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = ax + (y - ay) * (bx - ax) / np.where(by == ay, 1.0, by - ay)
            inside ^= crosses & (x < xint)
            # points on the edge segment count as members
            ex, ey = bx - ax, by - ay
            L2 = ex * ex + ey * ey
            t = ((x - ax) * ex + (y - ay) * ey) / L2
            t = np.clip(t, 0.0, 1.0)
            d2 = (x - (ax + t * ex)) ** 2 + (y - (ay + t * ey)) ** 2
            on_edge |= d2 <= 1e-24
        return inside | on_edge

    def bbox(self):
        xs = [complex(p).real for p in self.vertices]
        ys = [complex(p).imag for p in self.vertices]
        return (min(xs), max(xs), min(ys), max(ys))


# --- grids and masks ----------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform node-centered grid: node (ix, iy) sits at
    origin + h*(ix + 1j*iy), arrays indexed [iy, ix]."""

    origin: complex
    h: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2x2 nodes")

    @classmethod
    def cover(cls, bbox: tuple, h: float, margin: int = 2) -> "GridSpec":
        xmin, xmax, ymin, ymax = bbox
        ox = xmin - margin * h
        oy = ymin - margin * h
        nx = int(math.ceil((xmax - ox) / h)) + 1 + margin
        ny = int(math.ceil((ymax - oy) / h)) + 1 + margin
        return cls(complex(ox, oy), h, nx, ny)

    def refined(self, factor: int = 2) -> "GridSpec":
        """Same origin and extent, spacing h/factor; coarse nodes are a
        sublattice of the fine ones, so membership is monotone."""
        return GridSpec(self.origin, self.h / factor,
                        (self.nx - 1) * factor + 1, (self.ny - 1) * factor + 1)

    def zgrid(self) -> np.ndarray:
        ix = np.arange(self.nx)
        iy = np.arange(self.ny)
        return (self.origin + self.h * ix[None, :] + 1j * self.h * iy[:, None])

    def node(self, ix: int, iy: int) -> complex:
        return self.origin + self.h * (ix + 1j * iy)

    def nearest_index(self, z: complex) -> tuple:
        """(iy, ix) of the nearest node, clipped to the grid."""
        ix = int(round((z.real - self.origin.real) / self.h))
        iy = int(round((z.imag - self.origin.imag) / self.h))
        return (min(max(iy, 0), self.ny - 1), min(max(ix, 0), self.nx - 1))


@dataclass
class RegionMask:
    """Node classification of a domain on a grid."""

    grid: GridSpec
    inside: np.ndarray          # bool (ny, nx)
    interior: np.ndarray        # bool, Inside with all 8 neighbors Inside
    tagged_points: tuple = ()

    @property
    def boundary(self) -> np.ndarray:
        return self.inside & ~self.interior

    def counts(self) -> dict:
        ni = int(self.inside.sum())
        nint = int(self.interior.sum())
        return {"inside": ni, "interior": nint, "boundary": ni - nint,
                "exterior": self.inside.size - ni}

    def coords(self, sel: np.ndarray) -> np.ndarray:
        """Complex coordinates of the selected nodes (row-major order)."""
        iy, ix = np.nonzero(sel)
        return self.grid.origin + self.grid.h * (ix + 1j * iy)

    def nearest_node(self, z: complex, sel: np.ndarray, radius_cells: int = 8):
        """(iy, ix) of the nearest selected node to z within the given
        Chebyshev cell radius, or None."""
        iy0, ix0 = self.grid.nearest_index(z)
        best, best_d = None, np.inf
        n = radius_cells
        ys = slice(max(iy0 - n, 0), min(iy0 + n + 1, self.grid.ny))
        xs = slice(max(ix0 - n, 0), min(ix0 + n + 1, self.grid.nx))
        sub = sel[ys, xs]
        if sub.any():
            jy, jx = np.nonzero(sub)
            yy = jy + ys.start
            xx = jx + xs.start
            d = np.abs(self.grid.node(xx, yy) - z)
            k = int(np.argmin(d))
            best, best_d = (int(yy[k]), int(xx[k])), float(d[k])
        # nearest_index clamps z to the grid, so the window can land far
        # from an off-grid z; reject hits outside the advertised radius
        if best is not None and best_d > (n + 0.5) * self.grid.h * math.sqrt(2):
            return None
        return best


def build_mask(domain: CompactDomain, h: float = None,
               grid: GridSpec = None) -> RegionMask:
    """Rasterize a domain.

    Either a grid spacing h (grid covering the bounding box) or an
    explicit GridSpec must be given.  Membership is evaluated ROW_BLOCK
    rows at a time to bound memory on large grids.

    Raises MaskResolutionError when no node lands Inside, or when the
    domain has Inside nodes but no Interior ones (grid too coarse).
    """
    if grid is None:
        if h is None:
            raise ValueError("pass h or grid")
        grid = GridSpec.cover(domain.bbox(), h)
    inside = np.zeros((grid.ny, grid.nx), dtype=bool)
    for y0 in range(0, grid.ny, ROW_BLOCK):
        y1 = min(y0 + ROW_BLOCK, grid.ny)
        ix = np.arange(grid.nx)
        iy = np.arange(y0, y1)
        zz = grid.origin + grid.h * ix[None, :] + 1j * grid.h * iy[:, None]
        inside[y0:y1] = domain.contains(zz)
    if not inside.any():
        raise MaskResolutionError(
            f"no Inside nodes at h = {grid.h}; the domain slips between "
            "nodes, refine the grid")
    interior = _eroded(inside)
    if not interior.any():
        raise MaskResolutionError(
            f"Inside nodes but no Interior nodes at h = {grid.h}; "
            "refine the grid until the domain is at least 3 cells thick")
    return RegionMask(grid, inside, interior,
                      tagged_points=tuple(domain.tagged_points))


def resolve_mask(domain: CompactDomain, h: float,
                 mask: RegionMask = None) -> RegionMask:
    """The given mask, else one built from domain at spacing h."""
    if mask is not None:
        return mask
    if domain is None:
        raise ValueError("need a domain or a prebuilt mask")
    return build_mask(domain, h=h)


def connected_components(mask: RegionMask) -> tuple:
    """4-connected components of the Inside set.

    Returns (labels, count); labels are int32, assigned in raster scan
    order of each component's first node, starting at 1.
    """
    labels, count = ndimage.label(mask.inside, structure=_FOUR_CONN)
    return labels.astype(np.int32, copy=False), int(count)


def interior_shrunk(mask: RegionMask, margin: int = 3) -> np.ndarray:
    """Nodes whose Chebyshev `margin`-neighborhood is entirely Inside;
    margin = 1 reproduces the Interior set."""
    return _eroded(mask.inside, margin)


def _eroded(inside: np.ndarray, margin: int = 1) -> np.ndarray:
    # the Interior rule: margin = 1 keeps the nodes whose eight
    # neighbors are all Inside; the grid's edge counts as not Inside
    return ndimage.binary_erosion(inside, structure=_EIGHT_CONN,
                                  iterations=margin, border_value=0)


# --- text dump ----------------------------------------------------------------
#
# header: "nx ny h origin_re origin_im", then ny rows of nx characters,
# row iy = 0 first:  E exterior, I interior, B boundary.  N is accepted
# on load as a generic Inside node (the split is recomputed anyway).

def dump_mask(mask: RegionMask, path) -> None:
    g = mask.grid
    chars = np.full((g.ny, g.nx), "E", dtype="<U1")
    chars[mask.boundary] = "B"
    chars[mask.interior] = "I"
    with open(path, "w") as fh:
        fh.write(f"{g.nx} {g.ny} {g.h!r} {g.origin.real!r} {g.origin.imag!r}\n")
        for iy in range(g.ny):
            fh.write("".join(chars[iy]) + "\n")


def load_mask(path) -> RegionMask:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 5:
            raise ValueError("mask header must be 'nx ny h origin_re origin_im'")
        nx, ny = int(header[0]), int(header[1])
        h, ore, oim = float(header[2]), float(header[3]), float(header[4])
        grid = GridSpec(complex(ore, oim), h, nx, ny)
        inside = np.zeros((ny, nx), dtype=bool)
        for iy in range(ny):
            row = fh.readline().rstrip("\n")
            if len(row) != nx:
                raise ValueError(f"mask row {iy} has {len(row)} chars, wanted {nx}")
            bad = set(row) - set("EINB")
            if bad:
                raise ValueError(f"mask row {iy} has invalid characters {bad}")
            inside[iy] = np.frombuffer(row.encode(), dtype="S1") != b"E"
    return RegionMask(grid, inside, _eroded(inside))
