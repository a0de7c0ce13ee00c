from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET

from isopo_lab import harness, plotting
from isopo_lab.config import RunConfig

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(path):
    root = ET.fromstring(path.read_text())
    markers = [e for e in root.iter(f"{SVG_NS}circle") if e.get("class") == "marker"]
    legends = [e for e in root.iter(f"{SVG_NS}text") if e.get("class") == "legend"]
    axes = [e for e in root.iter(f"{SVG_NS}line") if e.get("class") == "axis"]
    polylines = list(root.iter(f"{SVG_NS}polyline"))
    return root, markers, legends, axes, polylines


def write_csv(path, rows, algo="reinforce", seed=0):
    header = ",".join([*harness.FIXED_COLUMNS, "l0_mean_F_norm", "l0_mean_grad_norm"])
    lines = [header]
    for step, val, kl in rows:
        lines.append(
            f"{step},{algo},seqtask,{seed},0.5,{val:.17g},{kl:.17g},0,0.1,0.2"
        )
    path.write_text("\n".join(lines) + "\n")


def test_empty_metrics_renders_axes_only(tmp_path):
    csv = tmp_path / "metrics.csv"
    write_csv(csv, [])
    out = plotting.plot_runs([csv], tmp_path / "plots")
    for path in out.values():
        _, markers, _, axes, polylines = parse_svg(path)
        assert len(axes) == 2
        assert markers == []
        assert polylines == []


def test_single_point_marker_at_expected_coordinates(tmp_path):
    csv = tmp_path / "metrics.csv"
    write_csv(csv, [(10, 0.25, 0.5)])
    out = plotting.plot_runs([csv], tmp_path / "plots")
    _, markers, legends, _, polylines = parse_svg(out["validation_vs_step"])
    assert len(markers) == 1
    assert polylines == []  # a single point draws no line
    # recompute the expected pixel transform for degenerate (single value) ranges
    series = plotting.Series("x", [10.0], [0.25])
    canvas = plotting._Canvas("t", "x", "y", [series])
    assert float(markers[0].get("cx")) == round(canvas.x_px(10.0), 2)
    assert float(markers[0].get("cy")) == round(canvas.y_px(0.25), 2)
    assert legends[0].text == "reinforce seed=0"


def test_two_runs_get_distinct_colors_and_legend(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, [(0, 0.1, 0.0), (5, 0.3, 0.2)], algo="reinforce", seed=0)
    write_csv(b, [(0, 0.05, 0.0), (5, 0.6, 0.9)], algo="isopo-ni", seed=1)
    out = plotting.plot_runs([a, b], tmp_path / "plots")
    _, markers, legends, _, polylines = parse_svg(out["kl_vs_validation"])
    labels = {e.text for e in legends}
    assert labels == {"reinforce", "isopo-ni"}
    colors = {m.get("fill") for m in markers}
    assert len(colors) == 2
    # curves chart: one polyline per run, legend per run
    _, _, legends2, _, polylines2 = parse_svg(out["validation_vs_step"])
    assert len(polylines2) == 2
    assert {e.text for e in legends2} == {"reinforce seed=0", "isopo-ni seed=1"}


def test_plot_runs_on_real_training_output(tmp_path):
    cfg = RunConfig(steps=2, eval_every=1, seed=0, group_size=4, groups_per_microbatch=2)
    res = harness.train(cfg, tmp_path / "run")
    out = plotting.plot_runs([res.csv_path], tmp_path / "plots")
    for path in out.values():
        root, *_ = parse_svg(path)
        assert root.tag == f"{SVG_NS}svg"


def numbers_in(root):
    """Every number written in an attribute or a text of the SVG, NaN and
    infinities included."""
    found = []
    for element in root.iter():
        for text in [*element.attrib.values(), element.text or ""]:
            for token in re.split(r"[\s,()]+", text):
                try:
                    found.append(float(token))
                except ValueError:
                    pass
    return found


def test_non_finite_points_are_left_out(tmp_path):
    # a diverging run aborts with kl_from_init = nan in its last row; a
    # synthetic run adds infinities. Every number the SVGs hold is finite,
    # and each finite point keeps its marker.
    cfg = RunConfig(algo="reinforce", task="bandit", optimizer="adamw", lr=1e307, steps=10,
                    eval_every=3)
    res = harness.train(cfg, tmp_path / "runs" / "nan")
    assert res.aborted and math.isnan(res.rows[-1]["kl_from_init"])
    write_csv(tmp_path / "runs" / "inf.csv",
              [(0, 0.1, 0.0), (3, math.inf, 0.2), (6, 0.3, -math.inf)], seed=1)
    out = plotting.plot_runs([res.csv_path, tmp_path / "runs" / "inf.csv"], tmp_path / "plots")
    for path in out.values():
        root, *_ = parse_svg(path)
        numbers = numbers_in(root)
        assert numbers and all(math.isfinite(x) for x in numbers)
    _, markers, *_ = parse_svg(out["validation_vs_step"])
    assert len(markers) == len(res.rows) + 2  # the inf validation at step 3 is left out
    _, markers, *_ = parse_svg(out["kl_vs_validation"])
    assert len(markers) == 0  # both final rows hold a non-finite value
