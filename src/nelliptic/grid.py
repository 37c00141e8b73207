"""Uniform tensor grids on boxes and their text file format.

The grid file is line-oriented:

    nelliptic-grid v1
    dim 2
    shape 65 65
    origin -1 -1
    spacing 0.03125
    <one value per line, row-major>

Values are written with shortest round-trip decimal formatting (repr), so
read(write(g)) reproduces the file bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass
class GridFunction:
    """Values on a uniform isotropic grid; the discrete carrier of u and f."""

    dim: int
    shape: tuple
    origin: tuple
    spacing: float
    values: np.ndarray  # row-major, shape == self.shape

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise InvalidInputError("GridFunction supports dim 1 or 2")
        if len(self.shape) != self.dim or len(self.origin) != self.dim:
            raise InvalidInputError("shape/origin must have length dim")
        if not (self.spacing > 0 and np.isfinite(self.spacing)):
            raise InvalidInputError("spacing must be positive and finite")
        self.values = np.asarray(self.values, dtype=float).reshape(self.shape)
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("grid values must be finite")

    # -- geometry --------------------------------------------------------------

    @staticmethod
    def from_box(lo, hi, h, fn=None, dim=None):
        """Grid covering the box [lo, hi]^dim with spacing h; hi is adjusted
        to the nearest node at or beyond the requested endpoint. fn, a function
        of a point stack, is called once on ``points()`` for the node values."""
        if dim is None:
            dim = len(lo) if hasattr(lo, "__len__") else 1
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.size == 1 and dim > 1:
            lo = np.repeat(lo, dim)
            hi = np.repeat(hi, dim)
        if not (h > 0 and np.isfinite(h) and np.all(np.isfinite(hi - lo)) and np.all(hi >= lo)):
            raise InvalidInputError("grid box needs finite lo <= hi and a positive finite spacing")
        shape = tuple(int(round((b - a) / h)) + 1 for a, b in zip(lo, hi))
        g = GridFunction(dim, shape, tuple(lo), float(h), np.zeros(shape))
        if fn is not None:
            g.values = np.array(fn(g.points()), dtype=float).reshape(shape)
        return g

    def axes(self):
        return [
            self.origin[d] + self.spacing * np.arange(self.shape[d])
            for d in range(self.dim)
        ]

    def points(self) -> np.ndarray:
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def box(self):
        lo = np.asarray(self.origin, dtype=float)
        hi = lo + self.spacing * (np.asarray(self.shape) - 1)
        return lo, hi

    def copy(self) -> "GridFunction":
        return GridFunction(self.dim, self.shape, self.origin, self.spacing, self.values.copy())

    def interior_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        if self.dim == 1:
            m[1:-1] = True
        else:
            m[1:-1, 1:-1] = True
        return m

    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask()

    # -- evaluation -------------------------------------------------------------

    def __call__(self, x):
        """Multilinear interpolation at a point x[n] (a float) or a stack of
        points x[..., n] (an array); every point must lie inside the box."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.box()
        if np.any(x < lo - 1e-9 * self.spacing) or np.any(x > hi + 1e-9 * self.spacing):
            raise InvalidInputError("evaluation point outside the grid box")
        t = (x - lo) / self.spacing
        i0 = np.minimum(np.floor(t).astype(int), np.asarray(self.shape) - 2)
        i0 = np.maximum(i0, 0)
        # coordinates first: scalars for a single point, arrays for a stack
        i0, w = i0.T, (t - i0).T
        v = self.values
        if self.dim == 1:
            out = v[i0[0]] * (1 - w[0]) + v[i0[0] + 1] * w[0]
        else:
            (i, j), (wi, wj) = i0, w
            out = (
                v[i, j] * (1 - wi) * (1 - wj)
                + v[i + 1, j] * wi * (1 - wj)
                + v[i, j + 1] * (1 - wi) * wj
                + v[i + 1, j + 1] * wi * wj
            )
        return float(out) if x.ndim == 1 else out.T


# ---------------------------------------------------------------------------
# file format


def write_grid(g: GridFunction, path) -> None:
    """Write a grid file; an unwritable path is an InvalidInputError."""
    lines = ["nelliptic-grid v1", "dim %d" % g.dim]
    lines.append("shape " + " ".join(str(s) for s in g.shape))
    lines.append("origin " + " ".join(repr(float(o)) for o in g.origin))
    lines.append("spacing " + repr(float(g.spacing)))
    lines.extend(map(repr, g.values.ravel().tolist()))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InvalidInputError("cannot write grid file %s: %s" % (path, exc.strerror)) from exc


def read_grid(path) -> GridFunction:
    """Parse a grid file; an unreadable or malformed one is an InvalidInputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln and not ln.isspace()]
    except OSError as exc:
        raise InvalidInputError("cannot read grid file %s: %s" % (path, exc.strerror)) from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError("grid file %s is not UTF-8 text" % path) from exc
    if not lines or lines[0].strip() != "nelliptic-grid v1":
        raise InvalidInputError("not a nelliptic-grid v1 file: %s" % path)
    header = {}
    for ln in lines[1:5]:
        key, _, rest = ln.strip().partition(" ")
        header[key] = rest
    try:
        dim = int(header["dim"])
        shape = tuple(int(s) for s in header["shape"].split())
        origin = tuple(float(o) for o in header["origin"].split())
        spacing = float(header["spacing"])
        values = np.array(lines[5:], dtype=float)  # float() on each line, blanks dropped
    except (KeyError, ValueError) as exc:  # a header line missing, a bad number
        raise InvalidInputError("malformed grid file %s: %r" % (path, exc)) from exc
    expected = int(np.prod(shape))
    if values.size != expected:
        raise InvalidInputError(
            "grid file has %d values, expected %d" % (values.size, expected)
        )
    return GridFunction(dim, shape, origin, spacing, values.reshape(shape))
