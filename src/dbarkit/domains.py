"""Planar compact sets rasterized onto uniform node-centered grids.

A grid node is Inside when the membership predicate of the domain holds
at its coordinate.  An Inside node whose eight neighbors are all Inside
is Interior; the remaining Inside nodes form the Boundary ring.  All
downstream quadrature and stencil work keys off these three classes.

Both node-set primitives work on whole rows and columns.  A node's
coordinate is origin + h*(ix + 1j*iy), built from the axis vectors
x_i = origin.real + h*i and y_j = origin.imag + h*j (GridSpec.axes),
which give the same bits as the complex expression.  The margin-shrunk
set keeps the nodes whose Chebyshev margin-neighborhood lies entirely
Inside, the grid's edge counting as not Inside; margin 1 is the
Interior.  Its square window is separable, so it is an AND over
windows of width 2*margin + 1 along x, then along y, each built by
doubling in O(log margin) slice ANDs (van Herk, Pattern Recogn. Lett.
13, 1992, for the windowed min filter).

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
    "GridSpec", "RegionMask", "PreconditionError", "MaskResolutionError",
    "build_mask", "resolve_mask", "connected_components", "interior_shrunk",
    "dump_mask", "load_mask",
]

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
ROW_BLOCK = 512
# Largest grid a GridSpec may describe: 8192 x 8192 nodes.  One complex
# field on it takes 1 GiB and the Pompeiu lattice solve works on four
# times as many cells, so a config asking for more is refused before
# anything is allocated.
MAX_GRID_NODES = 2 ** 26


class PreconditionError(ValueError):
    """A hypothesis of the computation fails on this input; nodes holds
    the offending node coordinates where the raiser names them."""

    def __init__(self, message, nodes=()):
        super().__init__(message)
        self.nodes = tuple(nodes)


class MaskResolutionError(PreconditionError):
    """The grid spacing cannot resolve the domain, or the grid that
    covers it at that spacing is past MAX_GRID_NODES."""


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
        return Union(tuple(self.disks())).contains(z)

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


def _magnitude(n: int) -> str:
    # a node count for a message; ints past a float's range print as 10^k
    return f"{n:.3g}" if n < 10 ** 300 else f"10^{math.log10(n):.0f}"


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
        nodes = self.nx * self.ny
        if nodes > MAX_GRID_NODES:
            past = ("numpy's array size limit"
                    if nodes > np.iinfo(np.intp).max
                    else f"MAX_GRID_NODES = {MAX_GRID_NODES}")
            raise MaskResolutionError(
                f"a grid of {_magnitude(nodes)} nodes at h = {self.h:g} "
                f"is past {past}; coarsen h or shrink the domain")

    @classmethod
    def cover(cls, bbox: tuple, h: float, margin: int = 2) -> "GridSpec":
        xmin, xmax, ymin, ymax = bbox
        ox = xmin - margin * h
        oy = ymin - margin * h
        spans = ((xmax - ox) / h, (ymax - oy) / h)
        if not all(map(math.isfinite, spans)):
            raise MaskResolutionError(
                f"the domain spans more nodes than a float holds at "
                f"h = {h:g}, past numpy's array size limit")
        nx, ny = (int(math.ceil(w)) + 1 + margin for w in spans)
        return cls(complex(ox, oy), h, nx, ny)

    def refined(self, factor: int = 2) -> "GridSpec":
        """Same origin and extent, spacing h/factor; coarse nodes are a
        sublattice of the fine ones, so membership is monotone."""
        return GridSpec(self.origin, self.h / factor,
                        (self.nx - 1) * factor + 1, (self.ny - 1) * factor + 1)

    def axes(self) -> tuple:
        """(xs, ys): the node abscissas origin.real + h*ix and ordinates
        origin.imag + h*iy."""
        return (self.origin.real + self.h * np.arange(self.nx),
                self.origin.imag + self.h * np.arange(self.ny))

    def zgrid(self) -> np.ndarray:
        return _plane(*self.axes())

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
        xs, ys = self.grid.axes()
        z = np.broadcast_to(xs, sel.shape)[sel].astype(complex)
        z.imag = np.repeat(ys, np.count_nonzero(sel, axis=1))
        return z

    def points(self, nodes: np.ndarray) -> np.ndarray:
        """Complex coordinates of the flat node indices nodes (iy * nx +
        ix), bitwise those coords gives the same nodes: the axis
        abscissa, then the ordinate."""
        xs, ys = self.grid.axes()
        iy, ix = np.divmod(nodes, self.grid.nx)
        z = xs[ix].astype(complex)
        z.imag = ys[iy]
        return z

    def window(self, sel: np.ndarray, iy: int, ix: int, n: int) -> tuple:
        """(yy, xx) of the selected nodes within Chebyshev distance n of
        node (iy, ix), clipped to the grid, in row-major order."""
        ys = slice(max(iy - n, 0), iy + n + 1)
        xs = slice(max(ix - n, 0), ix + n + 1)
        jy, jx = np.nonzero(sel[ys, xs])
        return jy + ys.start, jx + xs.start

    def around(self, center: complex, reach: float) -> tuple:
        """(yy, xx, dist) of the Inside nodes in the node window around
        center that holds every Inside node within reach + h of it, in
        row-major order, with their distances |node - center|.  Such a
        node lies within reach/h + 1.5 cells of center's nearest node
        (clipped to the grid, which only brings nodes closer)."""
        yy, xx = self.window(self.inside, *self.grid.nearest_index(center),
                             math.ceil(reach / self.grid.h) + 2)
        return yy, xx, np.abs(self.grid.node(xx, yy) - center)

    def near(self, points, dist: float) -> np.ndarray:
        """Inside nodes within dist of some point; each point's nodes are
        found in its node window (see around)."""
        out = np.zeros(self.inside.shape, bool)
        for p in points:
            yy, xx, d = self.around(p, dist)
            on = d <= dist
            out[yy[on], xx[on]] = True
        return out

    def nearest_node(self, z: complex, sel: np.ndarray, radius_cells: int = 8):
        """(iy, ix) of the nearest selected node to z within the given
        Chebyshev cell radius, or None.  Ties go to the first node in
        row-major order."""
        yy, xx = self.window(sel, *self.grid.nearest_index(z), radius_cells)
        if yy.size == 0:
            return None
        d = np.abs(self.grid.node(xx, yy) - z)
        k = int(np.argmin(d))
        # nearest_index clamps z to the grid, so the window can land far
        # from an off-grid z; reject hits outside the advertised radius
        if d[k] > (radius_cells + 0.5) * self.grid.h * math.sqrt(2):
            return None
        return int(yy[k]), int(xx[k])


def build_mask(domain: CompactDomain, h: float = None,
               grid: GridSpec = None) -> RegionMask:
    """Rasterize a domain.

    Either a grid spacing h (grid covering the bounding box) or an
    explicit GridSpec must be given.  Membership is evaluated ROW_BLOCK
    rows at a time to bound memory on large grids.

    Raises MaskResolutionError when no node lands Inside, when the
    domain has Inside nodes but no Interior ones (grid too coarse), or,
    before anything is allocated, when the grid is past MAX_GRID_NODES.
    """
    if grid is None:
        if h is None:
            raise ValueError("pass h or grid")
        grid = GridSpec.cover(domain.bbox(), h)
    inside = np.zeros((grid.ny, grid.nx), dtype=bool)
    xs, ys = grid.axes()
    for y0 in range(0, grid.ny, ROW_BLOCK):
        inside[y0:y0 + ROW_BLOCK] = domain.contains(
            _plane(xs, ys[y0:y0 + ROW_BLOCK]))
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
    margin = 1 reproduces the Interior set, and a margin below 1
    raises ValueError."""
    if margin < 1:
        raise ValueError(f"margin {margin} is below 1 cell")
    return _eroded(mask.inside, margin)


def _eroded(inside: np.ndarray, margin: int = 1) -> np.ndarray:
    # the Interior rule: margin = 1 keeps the nodes whose eight
    # neighbors are all Inside; the grid's edge counts as not Inside.
    # The square window is separable: x windows, then y windows.
    return _window_and(_window_and(inside.T, margin).T, margin)


def _window_and(a: np.ndarray, k: int) -> np.ndarray:
    # out[i] = a[i - k] & ... & a[i + k] along axis 0, False where the
    # window leaves the array.  run[i] = a[i] & ... & a[i + span - 1]
    # doubles its span up to the largest power of two within the
    # width; one more AND at offset rest covers the width's remainder.
    # out keeps a's memory layout, so the x pass on a transposed view
    # writes no transposing copy.
    n, width = len(a), 2 * k + 1
    out = np.zeros_like(a)
    if n >= width:
        run, span = a, 1
        while 2 * span <= width:
            run = run[:-span] & run[span:]
            span *= 2
        rest = width - span
        out[k:n - k] = run[:n - width + 1] & run[rest:]
    return out


def _plane(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # complex nodes xs[ix] + 1j*ys[iy] on the (len(ys), len(xs)) block
    z = np.empty((len(ys), len(xs)), dtype=complex)
    z.real = xs
    z.imag = ys[:, None]
    return z


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
