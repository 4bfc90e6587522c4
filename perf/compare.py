"""``python3 -m perf compare BEFORE.json AFTER.json``: one verdict per row.

A result file is one *set*: ``perf run --repeat N --out F`` runs every
workload N times, each time in fresh processes, and keeps every run.
The noise gauge is the spread between those runs: the distance between
the quartiles of a metric's per-run values, as a share of their median.
Rows are workload x metric:

* each end-to-end metric, judged with its bound in ``BENCHMARK.json``:
  ``unresolved`` when either side has fewer than ``MIN_RUNS`` runs or a
  spread wider than the bound, unless every run of AFTER reads better
  than every run of BEFORE (``better``); otherwise ``worse`` /
  ``better`` when the medians differ by more than the bound, ``same``
  when they do not;
* each host-time metric of the warm work (``runner.TIMING``), which
  holds no bound on a shared VM: medians, change and spread, verdict
  ``info``;
* three exact rows: ``sim_cycles`` (the modelled design's result) and
  ``fail_ratio`` (any rise is ``worse``), and the deterministic
  ``digest`` (a change is flagged ``CHANGED``: the simulated behaviour
  changed).  Runs of one set that disagree on them are ``UNSTABLE``.

Sets measured with different seeds, trace settings or amounts of work
are refused.  The exit code is 1 when any row is ``worse`` or
``UNSTABLE``.
"""

from __future__ import annotations

import statistics
from typing import Any

from .runner import TIMING
from .stats import relative_iqr

#: Runs per side below which no spread, and so no verdict, is known.
MIN_RUNS = 3


class CompareError(ValueError):
    """The two sets were not measured alike."""


def _verdict(
    before: list[float], after: list[float], *, bound: float | None,
    higher_is_better: bool,
) -> tuple[str, float, float]:
    """``(verdict, gain, spread)``; a metric without a bound is ``info``."""
    b_med, a_med = statistics.median(before), statistics.median(after)
    sign = 1.0 if higher_is_better else -1.0
    gain = sign * (a_med - b_med) / b_med
    spread = max(relative_iqr(before), relative_iqr(after))
    if bound is None:
        return "info", gain, spread
    if min(len(before), len(after)) < MIN_RUNS:
        return "unresolved", gain, spread
    if spread > bound:
        if higher_is_better:
            clear_win = min(after) > max(before)
        else:
            clear_win = max(after) < min(before)
        return ("better" if clear_win else "unresolved"), gain, spread
    if gain < -bound:
        return "worse", gain, spread
    if gain > bound:
        return "better", gain, spread
    return "same", gain, spread


def _check_alike(before: dict[str, Any], after: dict[str, Any]) -> list[str]:
    for key in ("seed", "trace"):
        if before[key] != after[key]:
            raise CompareError(
                f"{key} differs: {before[key]!r} before, {after[key]!r} after"
            )
    common = sorted(set(before["workloads"]) & set(after["workloads"]))
    if not common:
        raise CompareError("the two sets share no workload")
    for workload in common:
        shapes = {
            (run["rounds"], run["samples"])
            for side in (before, after) for run in side["workloads"][workload]
        }
        if len(shapes) > 1:
            raise CompareError(
                f"{workload}: runs measured different amounts of work "
                f"(rounds, samples): {sorted(shapes)}"
            )
    return common


def _exact(b_values: set[Any], a_values: set[Any], *, lower_is_better: bool) -> str:
    """The verdict on a value every run of a set must repeat exactly."""
    if len(b_values) > 1 or len(a_values) > 1:
        return "UNSTABLE"
    (b,), (a,) = b_values, a_values
    if not lower_is_better:
        return "same" if a == b else "CHANGED"
    return "worse" if a > b else "better" if a < b else "same"


def compare(
    before: dict[str, Any], after: dict[str, Any], benchmark: dict[str, Any]
) -> tuple[list[dict[str, Any]], bool]:
    """Judge AFTER against BEFORE; ``(rows, any row failing)``."""
    directions = {
        m["name"]: m["better"] == "higher"
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    rows: list[dict[str, Any]] = []
    for workload in _check_alike(before, after):
        b_runs = before["workloads"][workload]
        a_runs = after["workloads"][workload]

        def values(runs: list[dict[str, Any]], name: str) -> list[float]:
            return [run["metrics"][name] for run in runs]

        judged = [(m["name"], m["bound"]) for m in benchmark["end_to_end"]]
        for name, bound in judged + [(name, None) for name in TIMING]:
            b_values, a_values = values(b_runs, name), values(a_runs, name)
            verdict, gain, spread = _verdict(
                b_values, a_values, bound=bound,
                higher_is_better=directions[name],
            )
            rows.append({
                "workload": workload, "metric": name,
                "before": statistics.median(b_values),
                "after": statistics.median(a_values),
                "gain": gain, "spread": spread, "bound": bound,
                "verdict": verdict,
            })
        rows.append({
            "workload": workload, "metric": "sim_cycles",
            "before": b_runs[0]["metrics"]["sim_cycles"],
            "after": a_runs[0]["metrics"]["sim_cycles"],
            "verdict": _exact(
                set(values(b_runs, "sim_cycles")),
                set(values(a_runs, "sim_cycles")), lower_is_better=True,
            ),
        })
        # Failures are judged by each set's worst run.
        b_fail = max(values(b_runs, "fail_ratio"))
        a_fail = max(values(a_runs, "fail_ratio"))
        rows.append({
            "workload": workload, "metric": "fail_ratio",
            "before": b_fail, "after": a_fail,
            "verdict": _exact({b_fail}, {a_fail}, lower_is_better=True),
        })
        rows.append({
            "workload": workload, "metric": "digest",
            "before": b_runs[0]["digest"][:12], "after": a_runs[0]["digest"][:12],
            "verdict": _exact(
                {run["digest"] for run in b_runs},
                {run["digest"] for run in a_runs}, lower_is_better=False,
            ),
        })
    failing = any(row["verdict"] in ("worse", "UNSTABLE") for row in rows)
    return rows, failing


def _fmt(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def render(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<13} {'before':>13} {'after':>13} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        change = f"{row['gain']:+.1%}" if "gain" in row else ""
        spread = f"{row['spread']:.1%}" if "spread" in row else ""
        if "gain" not in row:
            bound = "exact"
        else:
            bound = f"{row['bound']:.0%}" if row["bound"] is not None else "-"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<13} "
            f"{_fmt(row['before']):>13} {_fmt(row['after']):>13} "
            f"{change:>8} {spread:>7} {bound:>6}  {row['verdict']}"
        )
    return "\n".join(lines)
