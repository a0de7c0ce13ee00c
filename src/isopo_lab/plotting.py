"""Self-contained SVG charts for run CSVs. No rendering dependencies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

from .harness import read_metrics_csv

WIDTH = 640
HEIGHT = 420
MARGIN_L = 70
MARGIN_R = 150  # room for the legend
MARGIN_T = 40
MARGIN_B = 50

PALETTE = (
    "#d62728",
    "#1f77b4",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#e377c2",
)


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]


def _axis_range(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.1 or 0.5
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str, series: list[Series]):
        self.parts: list[str] = []
        xs = [x for s in series for x in s.xs]
        ys = [y for s in series for y in s.ys]
        self.x_lo, self.x_hi = _axis_range(xs)
        self.y_lo, self.y_hi = _axis_range(ys)
        self._frame(title, xlabel, ylabel)

    def x_px(self, x: float) -> float:
        span = self.x_hi - self.x_lo
        return MARGIN_L + (x - self.x_lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y_px(self, y: float) -> float:
        span = self.y_hi - self.y_lo
        return HEIGHT - MARGIN_B - (y - self.y_lo) / span * (HEIGHT - MARGIN_T - MARGIN_B)

    def _frame(self, title: str, xlabel: str, ylabel: str) -> None:
        p = self.parts
        x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
        x1, y1 = WIDTH - MARGIN_R, MARGIN_T
        p.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
        p.append(
            f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
        )
        p.append(
            f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
        )
        p.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{escape(title)}</text>'
        )
        p.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-size="12">{escape(xlabel)}</text>'
        )
        p.append(
            f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{escape(ylabel)}</text>'
        )
        for i in range(5):
            frac = i / 4
            xv = self.x_lo + frac * (self.x_hi - self.x_lo)
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            xp = self.x_px(xv)
            yp = self.y_px(yv)
            p.append(f'<line x1="{xp:.1f}" y1="{y0}" x2="{xp:.1f}" y2="{y0 + 5}" stroke="black"/>')
            p.append(
                f'<text x="{xp:.1f}" y="{y0 + 18}" text-anchor="middle" '
                f'font-size="10">{xv:.4g}</text>'
            )
            p.append(f'<line x1="{x0 - 5}" y1="{yp:.1f}" x2="{x0}" y2="{yp:.1f}" stroke="black"/>')
            p.append(
                f'<text x="{x0 - 8}" y="{yp + 3:.1f}" text-anchor="end" '
                f'font-size="10">{yv:.4g}</text>'
            )

    def add_series(self, index: int, series: Series, lines: bool) -> None:
        color = PALETTE[index % len(PALETTE)]
        pts = [(self.x_px(x), self.y_px(y)) for x, y in zip(series.xs, series.ys)]
        if lines and len(pts) > 1:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            self.parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in pts:
            self.parts.append(
                f'<circle class="marker" cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>'
            )
        ly = MARGIN_T + 16 * index
        lx = WIDTH - MARGIN_R + 12
        self.parts.append(f'<rect x="{lx}" y="{ly}" width="10" height="10" fill="{color}"/>')
        self.parts.append(
            f'<text class="legend" x="{lx + 14}" y="{ly + 9}" '
            f'font-size="11">{escape(series.label)}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
        )


def _finite(series: Series) -> Series:
    """``series`` without its points that have a NaN or infinite coordinate,
    which no pixel position can show."""
    points = [(x, y) for x, y in zip(series.xs, series.ys) if math.isfinite(x) and math.isfinite(y)]
    return Series(series.label, [x for x, _ in points], [y for _, y in points])


def render_chart(
    series: list[Series], title: str, xlabel: str, ylabel: str, lines: bool = True
) -> str:
    """An SVG chart of ``series``; points with a non-finite coordinate are
    left out of the series and the axis ranges."""
    series = [_finite(s) for s in series]
    canvas = _Canvas(title, xlabel, ylabel, series)
    for i, s in enumerate(series):
        canvas.add_series(i, s, lines)
    return canvas.render()


def plot_runs(csv_paths, out_dir) -> dict[str, Path]:
    """Validation-vs-step curves plus a KL-vs-validation scatter of final rows."""
    curve_series: list[Series] = []
    final_by_algo: dict[str, Series] = {}
    for path in csv_paths:
        rows = read_metrics_csv(path)
        if not rows:
            continue
        algo = rows[0]["algo"]
        label = f"{algo} seed={rows[0]['seed']}"
        curve_series.append(
            Series(label, [r["step"] for r in rows], [r["validation"] for r in rows])
        )
        last = rows[-1]
        scatter = final_by_algo.setdefault(algo, Series(algo, [], []))
        scatter.xs.append(last["validation"])
        scatter.ys.append(last["kl_from_init"])

    out = Path(out_dir)  # made only once every CSV has been read
    out.mkdir(parents=True, exist_ok=True)
    outputs = {}
    curves = render_chart(curve_series, "validation vs step", "step", "validation")
    curve_path = out / "validation_vs_step.svg"
    curve_path.write_text(curves, encoding="utf-8")
    outputs["validation_vs_step"] = curve_path

    scatter = render_chart(
        list(final_by_algo.values()),
        "KL drift vs validation (final eval)",
        "validation",
        "kl_from_init",
        lines=False,
    )
    scatter_path = out / "kl_vs_validation.svg"
    scatter_path.write_text(scatter, encoding="utf-8")
    outputs["kl_vs_validation"] = scatter_path
    return outputs
