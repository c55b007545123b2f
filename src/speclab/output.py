"""Table serialization and plot rendering for probe results.

CSV and JSON payloads are timestamp-free and formatted so that identical
probe results produce identical bytes; floats round-trip exactly (17
significant digits in CSV, repr-shortest in JSON).  JSON is strict: a NaN or
an infinity, which JSON cannot hold, is refused with NumericError.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import DomainError, NumericError, ResourceLimitError
from .probes import ProbeResult, ScalingFit

__all__ = [
    "format_float",
    "write_csv",
    "write_json",
    "render_plot",
    "write_svg",
    "summary_payload",
    "write_summary",
]

CSV_HEADER = "abscissa,raw,ratio,predicted"


def format_float(x: float) -> str:
    """Decimal with 17 significant digits: exact binary64 round trip."""
    return f"{x:.17g}"


def _csv_cell(x: float | None) -> str:
    return "" if x is None else format_float(x)


def write_csv(result: ProbeResult, path) -> Path:
    if not result.rows:
        raise DomainError("refusing to write an empty probe table")
    path = Path(path)
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(
            ",".join(
                (
                    format_float(row.abscissa),
                    format_float(row.raw),
                    _csv_cell(row.ratio),
                    _csv_cell(result.predicted_limit),
                )
            )
        )
    _write_text(path, "\n".join(lines) + "\n")
    return path


def _result_payload(result: ProbeResult) -> dict:
    return {
        "probe": result.probe,
        "params": result.params,
        "predicted_limit": result.predicted_limit,
        "predicted_exponent": result.predicted_exponent,
        "rows": [[r.abscissa, r.raw, r.ratio] for r in result.rows],
        "extra": result.extra,
    }


def write_json(result: ProbeResult, path) -> Path:
    if not result.rows:
        raise DomainError("refusing to write an empty probe table")
    path = Path(path)
    _write_json_text(path, _result_payload(result))
    return path


def summary_payload(result: ProbeResult, fit: ScalingFit | None) -> dict:
    last = result.rows[-1]
    payload = {
        "probe": result.probe,
        "params": result.params,
        "predicted_limit": result.predicted_limit,
        "predicted_exponent": result.predicted_exponent,
        "fit": None
        if fit is None
        else {
            "exponent": fit.exponent,
            "log_constant": fit.log_constant,
            "max_residual": fit.max_residual,
            "n_points": fit.n_points,
        },
        "final_abscissa": last.abscissa,
        "final_raw": last.raw,
        "final_ratio": last.ratio,
        "relative_deviation": None,
    }
    if result.predicted_limit not in (None, 0.0) and last.ratio is not None:
        payload["relative_deviation"] = abs(last.ratio - result.predicted_limit) / abs(
            result.predicted_limit
        )
    return payload


def write_summary(result: ProbeResult, fit: ScalingFit | None, path) -> Path:
    path = Path(path)
    _write_json_text(path, summary_payload(result, fit))
    return path


def _write_json_text(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:  # by default json writes NaN and Infinity, which are not JSON
        raise NumericError(f"cannot write {path}: {exc}") from None
    _write_text(path, text + "\n")


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ResourceLimitError(f"cannot write {path}: {exc}") from exc


# --------------------------------------------------------------------------
# SVG rendering: self-contained SVG 1.1, no external assets


_W, _H = 920, 430
_PANEL = {"left": (70, 40, 420, 360), "right": (540, 40, 890, 360)}  # x0, y0, x1, y1


def _scale(vals, lo_px, hi_px, log: bool):
    finite = [v for v in vals if v > 0.0] if log else list(vals)
    vmin, vmax = min(finite), max(finite)
    if log:
        vmin, vmax = math.log10(vmin), math.log10(vmax)
    if vmax == vmin:
        vmin, vmax = vmin - 0.5, vmax + 0.5
    if vmax == vmin:  # from |v| = 2^52 the 0.5 pad can round away
        vmin, vmax = vmin - math.ulp(vmin), vmax + math.ulp(vmax)
    span = vmax - vmin

    def to_px(v: float) -> float:
        t = (math.log10(v) if log else v) - vmin
        return lo_px + (hi_px - lo_px) * (t / span)

    return to_px, vmin, vmax


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_plot(result: ProbeResult, fit: ScalingFit | None = None) -> str:
    """Two-panel SVG: log-log raw scatter with fitted line, and the ratio trace.

    The ratio panel draws a horizontal reference line at the predicted limit
    when one exists; probes without ratios fall back to raw values there.
    """
    abscissae = result.abscissae()
    raws = result.raw_values()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="20" y="24" font-family="monospace" font-size="15">{result.probe}'
        f" | exponent fit: {_fmt(fit.exponent) if fit else 'n/a'}"
        f" | predicted: {_fmt(result.predicted_exponent) if result.predicted_exponent is not None else 'n/a'}</text>",
    ]

    # left panel: log-log scatter of positive raw values, with the fitted line
    x0, y0, x1, y1 = _PANEL["left"]
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" fill="none" stroke="black"/>'
    )
    pos = [(a, v) for a, v in zip(abscissae, raws) if a > 0.0 and v > 0.0]
    if pos:
        ax, fx_min, fx_max = _scale([a for a, _ in pos], x0, x1, log=True)
        ay, fy_min, fy_max = _scale([v for _, v in pos], y1, y0, log=True)
        for a, v in pos:
            parts.append(f'<circle cx="{ax(a):.2f}" cy="{ay(v):.2f}" r="3" fill="steelblue"/>')
        if fit is not None:
            xs = (10.0 ** fx_min, 10.0 ** fx_max)
            ys = tuple(math.exp(fit.log_constant) * x ** fit.exponent for x in xs)
            if all(10.0 ** fy_min * 1e-12 < y < 10.0 ** fy_max * 1e12 for y in ys):
                parts.append(
                    f'<line x1="{ax(xs[0]):.2f}" y1="{ay(ys[0]):.2f}" '
                    f'x2="{ax(xs[1]):.2f}" y2="{ay(ys[1]):.2f}" stroke="crimson"/>'
                )
        parts.append(
            f'<text x="{x0}" y="{y1 + 22}" font-family="monospace" font-size="12">'
            f"raw vs abscissa (log-log), [{_fmt(pos[0][0])}, {_fmt(pos[-1][0])}]</text>"
        )

    # right panel: ratio trace (raw trace when ratios are suppressed)
    x0, y0, x1, y1 = _PANEL["right"]
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" fill="none" stroke="black"/>'
    )
    ratios = [r.ratio for r in result.rows]
    series = raws if any(q is None for q in ratios) else ratios
    label = "raw" if any(q is None for q in ratios) else "ratio"
    ax, _, _ = _scale(abscissae, x0, x1, log=True)
    ref = result.predicted_limit if (label == "ratio" and result.predicted_limit) else None
    span_vals = list(series) + ([ref] if ref is not None else [])
    ay, _, _ = _scale(span_vals, y1, y0, log=False)
    pts = " ".join(f"{ax(a):.2f},{ay(v):.2f}" for a, v in zip(abscissae, series))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue"/>')
    for a, v in zip(abscissae, series):
        parts.append(f'<circle cx="{ax(a):.2f}" cy="{ay(v):.2f}" r="3" fill="steelblue"/>')
    if ref is not None:
        parts.append(
            f'<line x1="{x0}" y1="{ay(ref):.2f}" x2="{x1}" y2="{ay(ref):.2f}" '
            f'stroke="crimson" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{x0}" y="{y0 - 8}" font-family="monospace" font-size="12">'
            f"reference: {_fmt(ref)}</text>"
        )
    parts.append(
        f'<text x="{x0}" y="{y1 + 22}" font-family="monospace" font-size="12">{label} vs abscissa</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(result: ProbeResult, fit: ScalingFit | None, path) -> Path:
    path = Path(path)
    _write_text(path, render_plot(result, fit))
    return path
