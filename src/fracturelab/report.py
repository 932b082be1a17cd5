"""CSV tables and SVG line plots, written atomically and deterministically.

Floats are serialized with repr (shortest round-trip), so identical runs
produce byte-identical files; SVG output is hand-rolled to avoid embedded
timestamps or generated ids.
"""

from __future__ import annotations

import os
import tempfile

from . import __version__ as VERSION


def atomic_write(path, text):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt(value):
    if isinstance(value, float):
        return repr(float(value))  # builtin float: numpy scalars repr differently
    return str(value)


def write_csv(path, header, rows, grid_label="", seed=0):
    """Comma CSV with a header row and the trailing metadata comment."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    lines.append(f"# version={VERSION},grid={grid_label},seed={seed}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_svg_line(path, xs, ys, title=""):
    """Single-polyline SVG plot, 640 x 400, with min/max tick labels."""
    pairs = [(float(x), float(y)) for x, y in zip(xs, ys) if y == y]
    if not pairs:
        pairs = [(0.0, 0.0)]
    width, height, pad = 640, 400, 50
    x0 = min(p[0] for p in pairs)
    x1 = max(p[0] for p in pairs)
    y0 = min(p[1] for p in pairs)
    y1 = max(p[1] for p in pairs)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / dx * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / dy * (height - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pairs)
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width//2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10">{x0:.4g}</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" text-anchor="end" font-size="10">{x1:.4g}</text>',
        f'<text x="{pad-4}" y="{height-pad}" text-anchor="end" font-size="10">{y0:.4g}</text>',
        f'<text x="{pad-4}" y="{pad}" text-anchor="end" font-size="10">{y1:.4g} (value)</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>',
        "</svg>",
    ]
    atomic_write(path, "\n".join(svg) + "\n")
