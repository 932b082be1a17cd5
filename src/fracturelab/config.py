"""Experiment configuration: INI sections parsed into solver objects.

Every referenced kind (integrand, datum, family) is looked up in an explicit
registry; unknown or missing fields raise ConfigError naming the field.
Every read goes through ExperimentConfig.get, which records it, and a
command calls reject_unread before its first solve: an option that the
command never read (a misspelling, a section of another command, a datum
scale that its kind ignores) is a ConfigError naming it.  --out and --seed
count as reads of the [run] options they override.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import (
    CheckerboardCoefficient,
    ConstantMatrixCoefficient,
    laplace_integrand,
    meyers_integrand,
    ppower_integrand,
    quadratic_integrand,
)
from .errors import ConfigError
from .geometry import Domain, Grid
from .search import (
    boundary_debond_family,
    circles_family,
    concat_families,
    segments_family,
)
from .singularity import meyers_profile

DATUM_KINDS = ("constant", "linear_x", "linear_y", "affine", "meyers_trace")
INTEGRAND_KINDS = ("ppower", "quadratic", "meyers", "laplace")
FAMILY_KINDS = ("segments", "circles", "boundary_debond")
MAX_CELLS = 2 ** 20     # the largest grid or mesh a config may ask for


def check_cells(cells, section, option):
    """ConfigError naming [section] option unless cells (inf and nan too) <= MAX_CELLS."""
    if not cells <= MAX_CELLS:
        raise ConfigError("the grid would have more than 2^20 cells", section, option)


@dataclass
class ExperimentConfig:
    """Parsed INI config; build_* methods construct the solver objects."""

    parser: configparser.ConfigParser
    path: str
    read: set = field(default_factory=set)     # (section, option) pairs looked up

    # --- raw access ----------------------------------------------------------

    def get(self, section, option, default=None, required=False):
        self.read.add((section, self.parser.optionxform(option)))
        if not self.parser.has_option(section, option):
            if required:
                raise ConfigError("missing required option", section, option)
            return default
        try:
            return self.parser.get(section, option)
        except configparser.InterpolationError as exc:    # a stray '%'
            raise ConfigError(str(exc), section, option) from None

    def reject_unread(self):
        """ConfigError naming the first option, in file order, that is set
        but that nothing read."""
        for section in self.parser.sections():
            for option in self.parser.options(section):
                if (section, option) not in self.read:
                    raise ConfigError("set, but this command does not read it", section, option)

    def get_float(self, section, option, default=None, required=False):
        raw = self.get(section, option, None, required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"not a number: {raw!r}", section, option) from None

    def get_int(self, section, option, default=None, required=False):
        raw = self.get(section, option, None, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"not an integer: {raw!r}", section, option) from None

    def get_bounded(self, section, option, default=None, low=0.0, below=math.inf,
                    closed=False):
        """A float in (low, below), or in [low, below) when closed; required
        when there is no default.  inf and nan raise ConfigError."""
        value = self.get_float(section, option, default, required=default is None)
        if not ((low <= value) if closed else (low < value)) or not value < below:
            op = ">=" if closed else ">"
            bound = f"{op} {low:g}" + (" and finite" if below == math.inf else f" and < {below:g}")
            raise ConfigError(f"must be {bound}, got {value!r}", section, option)
        return value

    def get_count(self, section, option, default):
        """An integer >= 1."""
        n = self.get_int(section, option, default)
        if n < 1:
            raise ConfigError(f"must be >= 1, got {n}", section, option)
        return n

    def get_floats(self, section, option, default=None, required=False):
        raw = self.get(section, option, None, required)
        if raw is None:
            return default
        try:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"not a number list: {raw!r}", section, option) from None

    def get_counts(self, section, option, default=None, required=False):
        """A list of integers >= 1, such as edge counts."""
        vals = self.get_floats(section, option, None, required)
        if vals is None:
            return default
        if not all(math.isfinite(v) and v == int(v) and v >= 1 for v in vals):
            raise ConfigError(f"must be integers >= 1, got {self.get(section, option)!r}",
                              section, option)
        return [int(v) for v in vals]

    def get_point(self, section, option):
        """A required point 'x y' of two finite numbers."""
        xy = self.get_floats(section, option, required=True)
        if len(xy) != 2 or not all(map(math.isfinite, xy)):
            raise ConfigError(f"needs two finite numbers x y, got {self.get(section, option)!r}",
                              section, option)
        return xy

    # --- builders -------------------------------------------------------------

    def build_domain(self) -> Domain:
        rect = self.get_floats("domain", "rect", required=True)
        if len(rect) != 4:
            raise ConfigError("rect needs 4 numbers: x0 y0 x1 y1", "domain", "rect")
        width, height = rect[2] - rect[0], rect[3] - rect[1]
        if not (width > 0 and height > 0 and math.isfinite(width / height)
                and math.isfinite(height / width)):
            raise ConfigError("rect needs finite x0 < x1 and y0 < y1 with a finite aspect",
                              "domain", "rect")
        dirichlet = self.get("domain", "dirichlet", "all")
        spec = "all" if dirichlet.strip() == "all" else dirichlet.split()
        try:
            return Domain.rectangle(*rect, dirichlet=spec)
        except ValueError as exc:
            raise ConfigError(str(exc), "domain", "dirichlet") from None

    def build_grid(self) -> Grid:
        domain = self.build_domain()
        n = self.get_int("grid", "n", required=True)
        ny = self.get_int("grid", "ny", None)
        check_cells(n, "grid", "n")     # so that n times the aspect is a float
        rows = ny if ny is not None else n * domain.height / domain.width
        if ny is None and math.isfinite(rows):
            rows = round(rows)          # the ny that Grid takes from the aspect
        check_cells(n * rows, "grid", "n" if ny is None else "ny")
        try:
            return Grid(domain, n, ny)
        except ValueError as exc:
            raise ConfigError(str(exc), "grid", "ny" if ny is not None and n >= 2 else "n") from None

    def build_integrand(self):
        kind = self.get("integrand", "kind", required=True)
        if kind not in INTEGRAND_KINDS:
            raise ConfigError(f"unknown kind {kind!r} (choose from {INTEGRAND_KINDS})",
                              "integrand", "kind")
        if kind == "laplace":
            return laplace_integrand()
        if kind == "meyers":
            K = self.get_bounded("integrand", "K", low=1.0, closed=True)
            orientation = self.get("integrand", "orientation", "radial_stiff")
            try:
                return meyers_integrand(K, orientation)
            except ValueError as exc:
                raise ConfigError(str(exc), "integrand", "orientation") from None
        if kind == "ppower":
            p = self.get_bounded("integrand", "p", low=1.0)
            coeff_kind = self.get("integrand", "coefficient", "constant")
            if coeff_kind == "constant":
                return ppower_integrand(p, self.get_bounded("integrand", "value", 1.0))
            if coeff_kind != "checkerboard":
                raise ConfigError(f"unknown coefficient {coeff_kind!r}",
                                  "integrand", "coefficient")
            vals = self.get_floats("integrand", "values", required=True)
            if len(vals) != 2:
                raise ConfigError("checkerboard needs 2 values", "integrand", "values")
            block = self.get_bounded("integrand", "block")
            try:
                return ppower_integrand(p, CheckerboardCoefficient(vals[0], vals[1], block))
            except ValueError as exc:
                raise ConfigError(str(exc), "integrand", "values") from None
        # quadratic: constant matrix entries (the composite is kind = meyers)
        coeff_kind = self.get("integrand", "coefficient", "constant")
        if coeff_kind == "meyers":
            raise ConfigError("the radially anisotropic composite is kind = meyers, "
                              "not a kind = quadratic coefficient", "integrand", "coefficient")
        if coeff_kind != "constant":
            raise ConfigError(f"unknown coefficient {coeff_kind!r} (kind = quadratic "
                              "takes constant)", "integrand", "coefficient")
        entries = self.get_floats("integrand", "matrix", required=True)
        if len(entries) not in (2, 3):
            raise ConfigError("matrix needs a11 a22 [a12]", "integrand", "matrix")
        a12 = entries[2] if len(entries) == 3 else 0.0
        try:
            return quadratic_integrand(ConstantMatrixCoefficient(entries[0], entries[1], a12))
        except ValueError as exc:
            raise ConfigError(str(exc), "integrand", "matrix") from None

    def build_datum(self):
        kind = self.get("datum", "kind", required=True)
        if kind in ("linear_x", "linear_y", "meyers_trace"):
            scale = self.get_float("datum", "scale", 1.0)
        if kind == "constant":
            value = self.get_float("datum", "value", required=True)
            return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)
        if kind == "linear_x":
            return lambda x, y: scale * np.asarray(x, dtype=float)
        if kind == "linear_y":
            return lambda x, y: scale * np.asarray(y, dtype=float)
        if kind == "affine":
            a = self.get_float("datum", "a", 0.0)
            bx = self.get_float("datum", "bx", 0.0)
            by = self.get_float("datum", "by", 0.0)
            return lambda x, y: a + bx * np.asarray(x, dtype=float) + by * np.asarray(y, dtype=float)
        if kind == "meyers_trace":
            K = self.get_bounded("datum", "K", low=1.0, closed=True)
            orientation = self.get("datum", "orientation", "radial_stiff")
            try:
                base = meyers_profile(K, orientation)
            except ValueError as exc:
                raise ConfigError(str(exc), "datum", "orientation") from None
            return lambda x, y: scale * base(x, y)
        raise ConfigError(f"unknown kind {kind!r} (choose from {DATUM_KINDS})",
                          "datum", "kind")

    def build_family(self, grid: Grid):
        kinds = self.get("family", "kind", required=True).split("+")
        fams = []
        for kind in kinds:
            kind = kind.strip()
            if kind == "segments":
                stride = self.get_count("family", "stride", max(1, grid.nx // 16))
                lengths = self.get_counts("family", "lengths", required=True)
                orientations = tuple(self.get("family", "orientations", "h v").split())
                if not orientations or not set(orientations) <= {"h", "v"}:
                    raise ConfigError(f"must be h, v or both, got {' '.join(orientations)!r}",
                                      "family", "orientations")
                fams.append(segments_family(grid, stride, lengths, orientations))
            elif kind == "circles":
                center = self.get_point("family", "center")
                radii = self.get_floats("family", "radii", required=True)
                if not all(0 < r < math.inf for r in radii):
                    raise ConfigError(f"radii must be finite and > 0, got "
                                      f"{self.get('family', 'radii')!r}", "family", "radii")
                fams.append(circles_family(grid, center, radii))
            elif kind == "boundary_debond":
                spans = self.get_counts("family", "spans", [grid.nx])
                fams.append(boundary_debond_family(grid, spans))
            else:
                raise ConfigError(f"unknown kind {kind!r} (choose from {FAMILY_KINDS})",
                                  "family", "kind")
        return fams[0] if len(fams) == 1 else concat_families(*fams)

    # --- run-level options ------------------------------------------------------

    def seed(self, override=None):
        """--seed, else [run] seed (default 0); an integer >= 0."""
        self.read.add(("run", "seed"))
        seed = int(override) if override is not None else self.get_int("run", "seed", 0)
        if seed < 0:
            raise ConfigError(f"must be >= 0, got {seed}", "run", "seed")
        return seed

    def out_dir(self, override=None):
        self.read.add(("run", "out"))
        return override or self.get("run", "out", "out")

    def tol(self):
        return self.get_bounded("run", "tol", 1e-10, below=1.0)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    return ExperimentConfig(parser, str(path))
