"""Plots and summaries rendered straight from stored run folders.

SVG is emitted directly (fixed 800x500 viewBox, no drawing library), so
the report step stays as deterministic as the runs it reads.  The PCA
projection uses two-component power iteration over a run's dumped
amplified vectors, which is where colluding cohorts become visible as a
separated cluster.
"""

from __future__ import annotations

import os

import numpy as np

from .data import format_float
from .errors import ReportError
from .harness import read_manifest, read_rounds_csv
from .seeding import rng_stream

_VIEW_W, _VIEW_H = 800, 500
_PCA_COMPONENTS, _PCA_ITERATIONS = 2, 200
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 40, 45
_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _px(v: float) -> str:
    return f"{v:.2f}"


def svg_line_plot(
    series: list[tuple[str, list[float], list[float]]], title: str, ylabel: str, path: str
) -> None:
    """Write a fixed-size line chart; y is clamped to [0, 1]."""
    if not series:
        raise ReportError("nothing to plot")
    xs_all = [x for _, xs, _ in series for x in xs]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    y_lo, y_hi = 0.0, 1.0
    plot_w = _VIEW_W - _MARGIN_L - _MARGIN_R
    plot_h = _VIEW_H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        y = min(max(y, y_lo), y_hi)
        return _MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<text x="{_VIEW_W // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    for i in range(5):
        frac = i / 4.0
        y = y_lo + frac * (y_hi - y_lo)
        py = sy(y)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_px(py)}" x2="{_VIEW_W - _MARGIN_R}" '
            f'y2="{_px(py)}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_px(py + 4)}" text-anchor="end" '
            f'font-size="11">{y:.2f}</text>'
        )
        x = x_lo + frac * (x_hi - x_lo)
        px = sx(x)
        out.append(
            f'<text x="{_px(px)}" y="{_VIEW_H - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-size="11">{x:.0f}</text>'
        )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_VIEW_H - _MARGIN_B}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_VIEW_H - _MARGIN_B}" x2="{_VIEW_W - _MARGIN_R}" '
        f'y2="{_VIEW_H - _MARGIN_B}" stroke="black"/>'
    )
    out.append(
        f'<text x="16" y="{_VIEW_H // 2}" font-size="12" '
        f'transform="rotate(-90 16 {_VIEW_H // 2})" text-anchor="middle">{ylabel}</text>'
    )
    out.append(
        f'<text x="{_VIEW_W // 2}" y="{_VIEW_H - 10}" text-anchor="middle" '
        f'font-size="12">round</text>'
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        points = " ".join(f"{_px(sx(x))},{_px(sy(y))}" for x, y in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>')
        ly = _MARGIN_T + 16 * idx + 8
        lx = _VIEW_W - _MARGIN_R - 180
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly + 4}" font-size="11">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(out) + "\n")


def pca_project(x: np.ndarray) -> np.ndarray:
    """Seeded power-iteration PCA; rows project onto the top two components,
    zero-padded when the rows are narrower than two."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ReportError("PCA needs at least two row vectors")
    centered = x - x.mean(axis=0)
    d = centered.shape[1]
    basis = []
    work = centered.copy()
    for c in range(min(_PCA_COMPONENTS, d)):
        v = rng_stream(90, c).normal(size=d)
        v /= np.linalg.norm(v)
        for _ in range(_PCA_ITERATIONS):
            v = work.T @ (work @ v)
            norm = np.linalg.norm(v)
            if norm == 0.0:
                break
            v /= norm
        basis.append(v)
        work = work - np.outer(work @ v, v)
    proj = centered @ np.stack(basis, axis=1)
    if proj.shape[1] < _PCA_COMPONENTS:
        proj = np.pad(proj, ((0, 0), (0, _PCA_COMPONENTS - proj.shape[1])))
    return proj


def _read_amplified(path: str) -> np.ndarray:
    rows: dict[int, dict[int, float]] = {}
    with open(path, "r", encoding="ascii") as fh:
        try:
            header = fh.readline().strip()
            if header != "client_id,index,value":
                raise ReportError(f"{path}: unexpected header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                try:
                    cid, idx, val = line.strip().split(",")
                    if int(idx) < 0:
                        raise ValueError(f"negative index {idx}")
                    rows.setdefault(int(cid), {})[int(idx)] = float(val)
                except ValueError as exc:
                    raise ReportError(f"{path}: line {lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ReportError(f"{path}: not ASCII text: {exc}") from exc
    if not rows:
        raise ReportError(f"{path}: no rows")
    clients = sorted(rows)
    width = 1 + max(max(v) for v in rows.values())
    out = np.zeros((len(clients), width))
    for i, cid in enumerate(clients):
        for j, v in rows[cid].items():
            out[i, j] = v
    return out


def report(manifest_paths: list[str], out_dir: str) -> list[str]:
    """Summary table plus accuracy/ASR plots for a set of stored runs.

    Emits report.csv, ta.svg, asr.svg (when any run measured attack
    success), and pca.csv from the first run that dumped amplified
    vectors.  Returns the written paths.
    """
    if not manifest_paths:
        raise ReportError("no manifests given")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    ta_series = []
    asr_series = []
    table_rows = []
    pca_source = None
    for path in manifest_paths:
        info = read_manifest(path)
        run_dir = os.path.dirname(path) or "."
        label = info.get("run.id", os.path.basename(run_dir))
        rounds_path = os.path.join(run_dir, info.get("artifact.rounds", "rounds.csv"))
        if not os.path.exists(rounds_path):
            raise ReportError(f"{path}: missing rounds table {rounds_path}")
        records = read_rounds_csv(rounds_path)
        xs = [float(r.round) for r in records]
        ta_series.append((label, xs, [r.test_accuracy for r in records]))
        if records and not any(np.isnan(r.asr) for r in records):
            asr_series.append((label, xs, [r.asr for r in records]))
        table_rows.append(
            ",".join(
                [
                    label,
                    str(len(records)),
                    format_float(records[-1].test_accuracy) if records else "nan",
                    format_float(records[-1].asr) if records else "nan",
                    info.get("metric.heterogeneity", "nan"),
                ]
            )
        )
        amp_path = os.path.join(run_dir, "amplified.csv")
        if pca_source is None and os.path.exists(amp_path):
            pca_source = amp_path

    table_path = os.path.join(out_dir, "report.csv")
    with open(table_path, "w", encoding="ascii", newline="") as fh:
        fh.write("run_id,checkpoints,final_ta,final_asr,heterogeneity\n")
        for row in table_rows:
            fh.write(row + "\n")
    written.append(table_path)

    ta_path = os.path.join(out_dir, "ta.svg")
    svg_line_plot(ta_series, "Test accuracy", "test accuracy", ta_path)
    written.append(ta_path)
    if asr_series:
        asr_path = os.path.join(out_dir, "asr.svg")
        svg_line_plot(asr_series, "Attack success rate", "attack success", asr_path)
        written.append(asr_path)
    if pca_source is not None:
        proj = pca_project(_read_amplified(pca_source))
        pca_path = os.path.join(out_dir, "pca.csv")
        with open(pca_path, "w", encoding="ascii", newline="") as fh:
            fh.write("client_id,pc1,pc2\n")
            for cid, (p1, p2) in enumerate(proj):
                fh.write(f"{cid},{format_float(p1)},{format_float(p2)}\n")
        written.append(pca_path)
    return written
