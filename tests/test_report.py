"""Reporting layer: SVG chart text, power-iteration PCA, and the
summary builder that reads finished run folders."""

import builtins
import io
import os
import shutil
import warnings

import numpy as np
import pytest

from gradamp.config import ExperimentConfig
from gradamp.errors import ReportError
from gradamp.harness import read_manifest, run_experiment
from gradamp.report import pca_project, report, svg_line_plot

FAST = {
    "dataset.per_class": 30,
    "dataset.spread": 1.0,
    "dataset.server_fraction": 0.2,
    "federation.clients": 6,
    "federation.rounds": 4,
    "federation.checkpoint_every": 2,
    "local.epochs": 1,
    "local.batch": 32,
    "model.hidden": 8,
    "validation.size": 12,
    "trust.size": 12,
}


def fast_config(base_dir, name, **extra):
    over = dict(FAST)
    over["output.dir"] = str(base_dir / name)
    over.update(extra)
    return ExperimentConfig.from_mapping(over)


# ---------------------------------------------------------------- svg


def test_svg_plot_structure(tmp_path):
    path = str(tmp_path / "chart.svg")
    series = [
        ("alpha", [0.0, 1.0, 2.0], [0.1, 0.5, 0.9]),
        ("beta", [0.0, 1.0, 2.0], [0.9, 0.4, 0.2]),
    ]
    svg_line_plot(series, "Demo", "value", path)
    with open(path) as fh:
        text = fh.read()
    assert text.startswith("<svg ")
    assert 'viewBox="0 0 800 500"' in text
    assert text.count("<polyline") == 2
    assert text.rstrip().endswith("</svg>")
    # Legend carries the series names.
    assert ">alpha</text>" in text
    assert ">beta</text>" in text
    assert ">Demo</text>" in text


def test_svg_plot_clamps_values_to_the_y_range(tmp_path):
    # Plot area: x spans 60..780, y spans 40 (top, y=1) to 455 (bottom,
    # y=0).  Out-of-range values must pin to those edges.
    path = str(tmp_path / "c.svg")
    svg_line_plot([("s", [0.0, 1.0], [7.5, -2.0])], "t", "y", path)
    with open(path) as fh:
        text = fh.read()
    assert 'points="60.00,40.00 780.00,455.00"' in text


def test_svg_plot_rejects_empty_series(tmp_path):
    with pytest.raises(ReportError, match="nothing to plot"):
        svg_line_plot([], "t", "y", str(tmp_path / "x.svg"))


def test_svg_plot_is_byte_deterministic(tmp_path):
    series = [("s", [0.0, 1.0, 2.0, 3.0], [0.2, 0.3, 0.25, 0.7])]
    a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    svg_line_plot(series, "t", "y", a)
    svg_line_plot(series, "t", "y", b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_svg_plot_handles_a_single_checkpoint(tmp_path):
    # One x value would make the x scale degenerate; the plot still
    # renders rather than dividing by zero.
    path = str(tmp_path / "one.svg")
    svg_line_plot([("s", [0.0], [0.5])], "t", "y", path)
    with open(path) as fh:
        assert "<polyline" in fh.read()


# ---------------------------------------------------------------- pca


def _spectrum_matrix(rng, n=12, d=6):
    # Known well-separated spectrum so power iteration converges hard.
    u, _ = np.linalg.qr(rng.normal(size=(n, d)))
    vt, _ = np.linalg.qr(rng.normal(size=(d, d)))
    s = np.array([9.0, 5.0, 2.0, 1.0, 0.5, 0.2])
    return u @ np.diag(s) @ vt.T + rng.normal(size=d)


def test_pca_matches_svd_projection():
    rng = np.random.default_rng(7)
    x = _spectrum_matrix(rng)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    expected = centered @ vt[:2].T
    got = pca_project(x)
    assert got.shape == (12, 2)
    for j in range(2):
        # Each principal axis is defined only up to sign.
        if float(got[:, j] @ expected[:, j]) < 0.0:
            expected[:, j] = -expected[:, j]
        np.testing.assert_allclose(got[:, j], expected[:, j], rtol=1e-6, atol=1e-8)


def test_pca_separates_antipodal_clusters():
    rng = np.random.default_rng(3)
    up = np.array([10.0, 0.0, 0.0, 0.0])
    x = np.vstack(
        [up + 0.1 * rng.normal(size=4) for _ in range(5)]
        + [-up + 0.1 * rng.normal(size=4) for _ in range(5)]
    )
    proj = pca_project(x)
    signs = np.sign(proj[:, 0])
    assert len(set(signs[:5])) == 1
    assert len(set(signs[5:])) == 1
    assert signs[0] != signs[5]


def test_pca_rejects_fewer_than_two_rows():
    with pytest.raises(ReportError, match="two row"):
        pca_project(np.ones((1, 4)))


def test_pca_pads_missing_components_with_zeros():
    x = np.array([[1.0], [2.0], [4.0]])
    proj = pca_project(x)
    assert proj.shape == (3, 2)
    assert np.all(proj[:, 1] == 0.0)
    # The single real component keeps the data's spread.
    assert proj[:, 0].std() > 0.0


def test_pca_is_translation_invariant():
    rng = np.random.default_rng(11)
    x = _spectrum_matrix(rng)
    shifted = x + np.arange(x.shape[1], dtype=np.float64)
    np.testing.assert_allclose(pca_project(x), pca_project(shifted), atol=1e-8)


def test_pca_projects_large_finite_rows_without_overflow():
    x = np.array([[1e200, 0.0], [0.0, 1e200], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proj = pca_project(x)
    assert np.isfinite(proj).all()
    # the first two rows lie sqrt(2) * 1e200 apart in the plane they span
    np.testing.assert_allclose(np.hypot(*(proj[0] - proj[1])), np.sqrt(2.0) * 1e200, rtol=1e-12)


# ------------------------------------------------------------- report


@pytest.fixture(scope="module")
def run_folders(tmp_path_factory):
    """Three finished runs: plain, targeted, and one with an amplified
    vector dump."""
    base = tmp_path_factory.mktemp("runs")
    plain = run_experiment(fast_config(base, "plain"))
    targeted = run_experiment(
        fast_config(
            base,
            "targeted",
            **{
                "attack.kind": "scale",
                "attack.start_round": 0,
                "attack.target_label": 1,
                "attack.malicious_fraction": 0.34,
            },
        )
    )
    dumped = run_experiment(
        fast_config(base, "dumped", **{"output.dump_amplified_round": 2})
    )
    return plain, targeted, dumped


def test_report_table_and_accuracy_plot(run_folders, tmp_path):
    plain, _, _ = run_folders
    out = str(tmp_path / "rep")
    written = report([plain.path], out)
    table = os.path.join(out, "report.csv")
    assert table in written
    with open(table) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "run_id,checkpoints,final_ta,final_asr,heterogeneity,status"
    fields = lines[1].split(",")
    assert fields[0] == plain.run_id
    assert fields[1] == "3"  # checkpoints 0, 2, 4
    assert 0.0 <= float(fields[2]) <= 1.0
    assert float(fields[4]) > 0.0
    assert fields[5] == "ok"
    assert os.path.exists(os.path.join(out, "ta.svg"))
    # Untargeted runs have no attack-success series to draw.
    assert not os.path.exists(os.path.join(out, "asr.svg"))
    assert not os.path.exists(os.path.join(out, "pca.csv"))


def test_report_draws_asr_only_when_measured(run_folders, tmp_path):
    plain, targeted, _ = run_folders
    out = str(tmp_path / "rep")
    written = report([plain.path, targeted.path], out)
    asr_path = os.path.join(out, "asr.svg")
    assert asr_path in written
    with open(asr_path) as fh:
        text = fh.read()
    # Only the targeted run contributes a line.
    assert text.count("<polyline") == 1
    assert f">{targeted.run_id}</text>" in text
    with open(os.path.join(out, "ta.svg")) as fh:
        assert fh.read().count("<polyline") == 2


def test_report_projects_the_first_amplified_dump(run_folders, tmp_path):
    plain, _, dumped = run_folders
    out = str(tmp_path / "rep")
    written = report([plain.path, dumped.path], out)
    pca_path = os.path.join(out, "pca.csv")
    assert pca_path in written
    with open(pca_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "client_id,pc1,pc2"
    assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(6))
    for line in lines[1:]:
        _, p1, p2 = line.split(",")
        float(p1), float(p2)  # repr round-trip


def test_report_removes_the_outputs_it_does_not_write(run_folders, tmp_path):
    plain, targeted, dumped = run_folders
    out = str(tmp_path / "rep")
    assert len(report([targeted.path, dumped.path], out)) == 4
    written = report([plain.path], out)
    assert written == [os.path.join(out, "report.csv"), os.path.join(out, "ta.svg")]
    assert sorted(os.listdir(out)) == ["report.csv", "ta.svg"]


def test_report_reads_the_rounds_table_beside_the_manifest(run_folders, tmp_path):
    plain, _, _ = run_folders
    run_dir = tmp_path / "run"
    shutil.copytree(plain.run_dir, run_dir)
    assert not any(key.startswith("artifact.") for key in read_manifest(str(run_dir / "manifest.txt")))
    # a hand-edited manifest that names another rounds file is not followed
    (run_dir / "other.csv").write_text("round,test_accuracy,asr\n9,0.5,nan\n")
    with open(run_dir / "manifest.txt", "a") as fh:
        fh.write("artifact.rounds = other.csv\n")
    out = tmp_path / "rep"
    report([str(run_dir / "manifest.txt")], str(out))
    assert (out / "report.csv").read_text().splitlines()[1].split(",")[1] == "3"


def test_report_rejects_an_empty_manifest_list(tmp_path):
    with pytest.raises(ReportError, match="no manifests"):
        report([], str(tmp_path / "rep"))


def test_report_requires_the_rounds_table(run_folders, tmp_path):
    plain, _, _ = run_folders
    orphan_dir = tmp_path / "orphan"
    orphan_dir.mkdir()
    orphan = str(orphan_dir / "manifest.txt")
    shutil.copy(plain.path, orphan)
    with pytest.raises(ReportError, match="missing rounds table"):
        report([orphan], str(tmp_path / "rep"))


def test_report_requires_the_amplified_dump_its_manifest_lists(run_folders, tmp_path):
    _, _, dumped = run_folders
    run_dir = tmp_path / "run"
    shutil.copytree(dumped.run_dir, run_dir)
    assert "checksum.amplified.csv" in read_manifest(str(run_dir / "manifest.txt"))
    (run_dir / "amplified.csv").unlink()
    with pytest.raises(ReportError, match="missing amplified dump"):
        report([str(run_dir / "manifest.txt")], str(tmp_path / "rep"))


def _setup_failure(base):
    """A run that ends ``error`` at setup: fltrust's biased trust draw fits
    the server pool but not its class-1 samples, so no checkpoint exists."""
    cfg = fast_config(
        base,
        "failed",
        **{"defense.family": "fltrust", "trust.mode": "biased", "trust.theta": 1.0, "trust.size": 18},
    )
    with pytest.raises(Exception):
        run_experiment(cfg)
    return str(base / "failed" / "manifest.txt")


def test_report_tables_a_run_without_checkpoints_and_does_not_draw_it(run_folders, tmp_path):
    plain, _, _ = run_folders
    failed = _setup_failure(tmp_path)
    out = str(tmp_path / "alone")
    assert report([failed], out) == [os.path.join(out, "report.csv")]
    with open(os.path.join(out, "report.csv")) as fh:
        row = fh.read().splitlines()[1].split(",")
    assert row[1:4] == ["0", "nan", "nan"] and row[5] == "error"
    assert not os.path.exists(os.path.join(out, "ta.svg"))
    out = str(tmp_path / "mixed")
    report([failed, plain.path], out)
    with open(os.path.join(out, "ta.svg")) as fh:
        text = fh.read()
    assert text.count("<polyline") == 1 and f">{plain.run_id}</text>" in text


@pytest.mark.parametrize("name", ["rounds.csv", "amplified.csv"])
def test_report_rejects_a_file_that_differs_from_its_checksum(run_folders, tmp_path, name):
    _, _, dumped = run_folders
    shutil.copytree(dumped.run_dir, tmp_path / "run")
    with open(tmp_path / "run" / name, "a") as fh:
        fh.write("0,0,0.5\n" if name == "amplified.csv" else "9,0.5,nan\n")
    with pytest.raises(ReportError, match=f"{name}: sha256"):
        report([str(tmp_path / "run" / "manifest.txt")], str(tmp_path / "rep"))


def test_report_tables_only_the_verified_bytes(run_folders, tmp_path, monkeypatch):
    # a rounds.csv that changes between two opens: the report may table only
    # the bytes that matched the manifest's checksum, or refuse the run
    plain, _, _ = run_folders
    rounds_path = os.path.join(plain.run_dir, "rounds.csv")
    with open(rounds_path) as fh:
        lines = fh.read().splitlines()
    final_ta = lines[-1].split(",")[1]
    altered = "\n".join(lines[:-1] + [lines[-1].split(",")[0] + ",-1.0,nan", ""])
    real_open = builtins.open
    opened = []

    def swapping_open(file, mode="r", *args, **kwargs):
        if isinstance(file, str) and os.path.abspath(file) == os.path.abspath(rounds_path):
            opened.append(mode)
            if len(opened) > 1:
                return io.BytesIO(altered.encode()) if "b" in mode else io.StringIO(altered)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", swapping_open)
    out = tmp_path / "rep"
    try:
        report([plain.path], str(out))
    except ReportError:
        return
    finally:
        monkeypatch.undo()
    assert (out / "report.csv").read_text().splitlines()[1].split(",")[2] == final_ta


def test_pca_rejects_non_finite_rows():
    x = np.ones((3, 4))
    x[1, 2] = np.inf
    with pytest.raises(ReportError, match="finite"):
        pca_project(x)
