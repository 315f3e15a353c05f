"""Deterministic SVG plots and CSV sidecars for corpus reports.

The SVG writer is intentionally minimal: fixed canvas, fixed sampling,
fixed colors, coordinates printed with a fixed format.  Two runs over the
same data produce byte-identical files.
"""

from __future__ import annotations

import os

from ._num import sig15_row, uniform_grid
from .errors import BVKitError
from .specio import dump_json
from .variation import jordan_decomposition

CANVAS_W = 800
CANVAS_H = 500
MARGIN = 55
SAMPLES = 1024

_COLORS = {"F": "#1f6fb2", "p": "#c23b22", "n": "#3a7d44", "f": "#7b4b94",
           "omega": "#b8860b"}


def _fmt(x: float) -> str:
    return "%.4f" % x


def _scale(xs, ys):
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = (CANVAS_W - 2 * MARGIN) / (x1 - x0)
    sy = (CANVAS_H - 2 * MARGIN) / (y1 - y0)

    def to_px(x, y):
        return (MARGIN + (x - x0) * sx, CANVAS_H - MARGIN - (y - y0) * sy)

    return to_px, (x0, x1, y0, y1)


def _svg_document(series, title):
    """series: list of (label, xs, ys)."""
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    to_px, (x0, x1, y0, y1) = _scale(xs, ys)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" '
        f'height="{CANVAS_H}" viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect x="0" y="0" width="{CANVAS_W}" height="{CANVAS_H}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{CANVAS_W - 2 * MARGIN}" '
        f'height="{CANVAS_H - 2 * MARGIN}" fill="none" stroke="#888"/>',
        f'<text x="{MARGIN}" y="{MARGIN - 18}" font-family="monospace" '
        f'font-size="15">{title}</text>',
        f'<text x="{MARGIN}" y="{CANVAS_H - MARGIN + 28}" font-family="monospace" '
        f'font-size="11">x: [{_fmt(x0)}, {_fmt(x1)}]  y: [{_fmt(y0)}, {_fmt(y1)}]</text>',
    ]
    for idx, (label, sx, sy) in enumerate(series):
        color = _COLORS.get(label, "#333")
        points = " ".join(["%.4f,%.4f" % to_px(x, y) for x, y in zip(sx, sy)])
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.4" '
                     f'points="{points}"/>')
        lines.append(f'<text x="{CANVAS_W - MARGIN - 60}" '
                     f'y="{MARGIN + 16 + 16 * idx}" font-family="monospace" '
                     f'font-size="12" fill="{color}">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, header, rows):
    """One line per row tuple, as wide as the header."""
    row_format = sig15_row(len(header))
    _write(path, "\n".join([",".join(header)] + [row_format % row for row in rows]) + "\n")


def _float_values(model, xs) -> list:
    """The model at the sorted points xs, as floats.  A rational model gives
    each value as ``num / den`` from its pair walk: int true division rounds
    correctly, as ``float(Fraction)`` does, so the floats are the same with
    no Fraction built."""
    if not model.exact:
        return [float(v) for v in model.evaluate_many(xs)]
    return [num / den for num, den in model._pair_many(xs, pairs=True)]


def emit_plots(table, outdir) -> list:
    """Write per-entry SVG plots and CSV sidecars; returns the file list."""
    os.makedirs(outdir, exist_ok=True)
    files = []
    for row in table.rows:
        if row.entry is None or row.error:
            continue
        model = row.entry.model
        xs = uniform_grid(model.a, model.b, SAMPLES, exact=False)
        f_vals = _float_values(model, xs)
        series = [("F", xs, f_vals)]
        csv_rows = None
        try:
            decomposition = jordan_decomposition(model)
            p_vals = _float_values(decomposition.p, xs)
            n_vals = _float_values(decomposition.n, xs)
            series += [("p", xs, p_vals), ("n", xs, n_vals)]
            csv_rows = list(zip(xs, f_vals, p_vals, n_vals))
        except BVKitError:
            csv_rows = [(x, f) for x, f in zip(xs, f_vals)]
        name = row.name
        path = os.path.join(outdir, f"{name}_curves.svg")
        _write(path, _svg_document(series, f"{name}: F with its monotone parts"))
        files.append(path)
        path = os.path.join(outdir, f"{name}_curves.csv")
        header = ["x", "F", "p", "n"][: len(csv_rows[0])]
        _write_csv(path, header, csv_rows)
        files.append(path)

        if row.density is not None:
            dx = [float(x) for x in row.density.grid]
            dv = [float(v) for v in row.density.values]
            path = os.path.join(outdir, f"{name}_density.svg")
            _write(path, _svg_document([("f", dx, dv)],
                                       f"{name}: recovered density"))
            files.append(path)
            path = os.path.join(outdir, f"{name}_density.csv")
            _write_csv(path, ["x", "f"], list(zip(dx, dv)))
            files.append(path)

        if row.modulus is not None:
            mx = [float(d) for d, _, _ in row.modulus.samples]
            my = [float(w) for _, w, _ in row.modulus.samples]
            path = os.path.join(outdir, f"{name}_modulus.svg")
            _write(path, _svg_document([("omega", mx, my)],
                                       f"{name}: continuity modulus"))
            files.append(path)
            path = os.path.join(outdir, f"{name}_modulus.csv")
            _write_csv(path, ["delta", "omega"], list(zip(mx, my)))
            files.append(path)
    return sorted(files)


def write_report(table, outdir) -> list:
    os.makedirs(outdir, exist_ok=True)
    report_path = os.path.join(outdir, "report.json")
    dump_json(table.payload(), report_path)
    return [report_path] + emit_plots(table, outdir)
