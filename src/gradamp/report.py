"""Plots and summaries rendered straight from stored run folders.

SVG is emitted directly (fixed 800x500 viewBox, no drawing library), so
the report step stays as deterministic as the runs it reads.  The PCA
projection uses two-component power iteration over a run's dumped
amplified vectors, which is where colluding cohorts become visible as a
separated cluster.

Every run is tabled with its ``run.status``; every run with a checkpoint
is drawn, whatever its status.  A file the report reads must match the
sha256 its manifest lists for it, and an amplified.csv must be dense:
each client holds the indices 0..L-1 once each, with one L for all.
Files are read through the harness's ``_read_rows`` and written through
its ``_write_lines``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .data import format_float
from .errors import ReportError
from .harness import _AMPLIFIED_COLUMNS, _read_rows, _write_lines, read_manifest, read_rounds_csv
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
    _write_lines(path, out)


def pca_project(x: np.ndarray) -> np.ndarray:
    """Seeded power-iteration PCA; rows project onto the top two components,
    zero-padded when the rows are narrower than two.  The rows are scaled
    by a power of two to a largest magnitude in [0.5, 1), so no product
    overflows, and the projection is scaled back; both scalings are exact."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ReportError("PCA needs at least two row vectors")
    if not np.isfinite(x).all():
        raise ReportError("PCA needs finite row vectors")
    exponent = int(np.frexp(np.abs(x).max())[1])
    x = np.ldexp(x, -exponent)
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
    return np.ldexp(proj, exponent)


def _checked(path: str, info: dict[str, str]) -> str:
    """``path``, once its bytes match the ``checksum.<name>`` that the
    manifest ``info`` lists for it; a manifest without one checks nothing."""
    digest = info.get(f"checksum.{os.path.basename(path)}")
    if digest is not None:
        with open(path, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                raise ReportError(f"{path}: sha256 does not match the manifest's checksum")
    return path


def _read_amplified(path: str) -> np.ndarray:
    """The dumped rows, one per client in client order; the file must be
    dense, which bounds the matrix by its line count."""
    rows = _read_rows(path, _AMPLIFIED_COLUMNS)
    if not rows:
        raise ReportError(f"{path}: no rows")
    slot = {cid: i for i, cid in enumerate(sorted({cid for cid, _, _ in rows}))}
    width = len(rows) // len(slot)
    out = np.zeros((len(slot), width))
    seen = np.zeros(out.shape, dtype=bool)
    for lineno, (cid, idx, val) in enumerate(rows, start=2):
        if not 0 <= idx < width or seen[slot[cid], idx]:
            raise ReportError(
                f"{path}: line {lineno}: index {idx} of client {cid} breaks the dense "
                f"layout ({len(slot)} clients, indices 0..{width - 1} once each)"
            )
        seen[slot[cid], idx] = True
        out[slot[cid], idx] = val
    return out


def report(manifest_paths: list[str], out_dir: str) -> list[str]:
    """Summary table plus accuracy/ASR plots for a set of stored runs.

    Emits report.csv, ta.svg (when any run has a checkpoint), asr.svg (when
    any run measured attack success), and pca.csv from the first run that
    dumped amplified vectors; an earlier report's outputs that this one
    does not write are removed.  Each run's rounds.csv is the one beside
    its manifest.  Returns the written paths.
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
        rounds_path = os.path.join(run_dir, "rounds.csv")
        if not os.path.exists(rounds_path):
            raise ReportError(f"{path}: missing rounds table {rounds_path}")
        records = read_rounds_csv(_checked(rounds_path, info))
        try:
            xs = [float(r.round) for r in records]
        except OverflowError as exc:
            raise ReportError(f"{rounds_path}: round: {exc}") from exc
        if records:
            ta_series.append((label, xs, [r.test_accuracy for r in records]))
            if not any(np.isnan(r.asr) for r in records):
                asr_series.append((label, xs, [r.asr for r in records]))
        table_rows.append(
            ",".join(
                [
                    label,
                    str(len(records)),
                    format_float(records[-1].test_accuracy) if records else "nan",
                    format_float(records[-1].asr) if records else "nan",
                    info.get("metric.heterogeneity", "nan"),
                    info.get("run.status", "unknown"),
                ]
            )
        )
        amp_path = os.path.join(run_dir, "amplified.csv")
        if pca_source is None and os.path.exists(amp_path):
            pca_source = _checked(amp_path, info)

    table_path = os.path.join(out_dir, "report.csv")
    _write_lines(table_path, ["run_id,checkpoints,final_ta,final_asr,heterogeneity,status", *table_rows])
    written.append(table_path)
    for series, name, title, ylabel in (
        (ta_series, "ta.svg", "Test accuracy", "test accuracy"),
        (asr_series, "asr.svg", "Attack success rate", "attack success"),
    ):
        if series:
            svg_line_plot(series, title, ylabel, os.path.join(out_dir, name))
            written.append(os.path.join(out_dir, name))
    if pca_source is not None:
        proj = pca_project(_read_amplified(pca_source))
        pca_path = os.path.join(out_dir, "pca.csv")
        _write_lines(
            pca_path,
            ["client_id,pc1,pc2"]
            + [f"{cid},{format_float(p1)},{format_float(p2)}" for cid, (p1, p2) in enumerate(proj)],
        )
        written.append(pca_path)
    for name in ("ta.svg", "asr.svg", "pca.csv"):
        path = os.path.join(out_dir, name)
        if path not in written and os.path.exists(path):
            os.remove(path)
    return written
