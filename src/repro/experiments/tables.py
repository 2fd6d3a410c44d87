"""Table 3 / Table 4 renderers, with the paper's numbers for side-by-side diff.

``render_table`` prints the same rows the paper reports (running time,
memory, hit rate, relative error × the 12 algorithm columns) with the
paper's value next to each measured value, ready to paste into
EXPERIMENTS.md.
"""
from __future__ import annotations

from repro.experiments.harness import ALGORITHMS

# Table 3: synthetic data, default setting (paper page 9)
PAPER_TABLE3 = {
    ("FPQ", ""): dict(running_time_ms=584, memory_kb=115, hit_rate_pct=98, relative_error=4.37e-08),
    ("FPQ", "-G"): dict(running_time_ms=585, memory_kb=112, hit_rate_pct=98, relative_error=4.37e-08),
    ("FPQ", "-PP"): dict(running_time_ms=208, memory_kb=111, hit_rate_pct=98, relative_error=4.37e-08),
    ("FPQ", "-NT"): dict(running_time_ms=25, memory_kb=12, hit_rate_pct=95, relative_error=8.09e-08),
    ("FPQ", "-GTG"): dict(running_time_ms=2857, memory_kb=278, hit_rate_pct=98, relative_error=4.37e-08),
    ("FPQ", "-A"): dict(running_time_ms=189, memory_kb=14, hit_rate_pct=94, relative_error=0.1233),
    ("LCPQ", ""): dict(running_time_ms=446, memory_kb=182, hit_rate_pct=83, relative_error=0.0128),
    ("LCPQ", "-G"): dict(running_time_ms=461, memory_kb=192, hit_rate_pct=83, relative_error=0.0128),
    ("LCPQ", "-PP"): dict(running_time_ms=131, memory_kb=144, hit_rate_pct=83, relative_error=0.0129),
    ("LCPQ", "-NT"): dict(running_time_ms=20, memory_kb=7, hit_rate_pct=60, relative_error=0.1113),
    ("LCPQ", "-GTG"): dict(running_time_ms=2532, memory_kb=257, hit_rate_pct=83, relative_error=0.0128),
    ("LCPQ", "-A"): dict(running_time_ms=163, memory_kb=8, hit_rate_pct=87, relative_error=0.1256),
}

# Table 4: real data (paper page 11)
PAPER_TABLE4 = {
    ("FPQ", ""): dict(running_time_ms=1900, memory_kb=367, hit_rate_pct=99, relative_error=1.86e-15),
    ("FPQ", "-G"): dict(running_time_ms=1997, memory_kb=393, hit_rate_pct=99, relative_error=1.86e-15),
    ("FPQ", "-PP"): dict(running_time_ms=67, memory_kb=61, hit_rate_pct=99, relative_error=1.86e-15),
    ("FPQ", "-NT"): dict(running_time_ms=11, memory_kb=1, hit_rate_pct=98, relative_error=4.38e-14),
    ("FPQ", "-GTG"): dict(running_time_ms=25559, memory_kb=669, hit_rate_pct=99, relative_error=1.86e-15),
    ("FPQ", "-A"): dict(running_time_ms=53, memory_kb=2, hit_rate_pct=98, relative_error=0.1492),
    ("LCPQ", ""): dict(running_time_ms=992, memory_kb=307, hit_rate_pct=88, relative_error=0.0546),
    ("LCPQ", "-G"): dict(running_time_ms=1047, memory_kb=341, hit_rate_pct=88, relative_error=0.0546),
    ("LCPQ", "-PP"): dict(running_time_ms=28, memory_kb=30, hit_rate_pct=88, relative_error=0.0546),
    ("LCPQ", "-NT"): dict(running_time_ms=10, memory_kb=1, hit_rate_pct=67, relative_error=0.6606),
    ("LCPQ", "-GTG"): dict(running_time_ms=13895, memory_kb=568, hit_rate_pct=88, relative_error=0.0546),
    ("LCPQ", "-A"): dict(running_time_ms=45, memory_kb=2, hit_rate_pct=90, relative_error=0.062),
}

_METRICS = (
    ("running_time_ms", "Running Time (ms)", "{:.0f}"),
    ("memory_kb", "Memory (KB)", "{:.0f}"),
    ("hit_rate_pct", "Hit Rate (%)", "{:.0f}"),
    ("relative_error", "Relative Error", "{:.3g}"),
)


def rows_to_dict(agg) -> dict[tuple[str, str], dict[str, float]]:
    """``aggregate_table`` output as ``{(qt, alg): {metric: value}}``."""
    return {
        (r["qt"], r["alg"]): {key: r[key] for key, _, _ in _METRICS}
        for r in agg.collect()
    }


def render_table(
    measured: dict[tuple[str, str], dict[str, float]],
    paper: dict[tuple[str, str], dict[str, float]],
    title: str,
) -> str:
    """Markdown: one row per metric, paper value / measured value per cell."""
    cols = [(qt, alg) for qt in ("FPQ", "LCPQ") for alg in ALGORITHMS]
    lines = [f"### {title}", ""]
    header = "| Metric | " + " | ".join(f"{qt}{alg}" for qt, alg in cols) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(cols) + 1))
    for key, label, fmt in _METRICS:
        cells = []
        for col in cols:
            p = paper[col][key]
            got = measured.get(col, {}).get(key)
            cells.append(
                f"{fmt.format(p)} / " + (fmt.format(got) if got is not None else "—")
            )
        lines.append(f"| {label} (paper / ours) | " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)
