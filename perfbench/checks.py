"""Output checks applied to every closed-loop run the benchmark makes."""

from __future__ import annotations

import hashlib
import math

BALANCE_TOL_KW = 1e-9


def check_trace(trace, battery) -> list[str]:
    """Problems found in one DispatchTrace; an empty list means it passed.

    Every hour must close the energy balance to BALANCE_TOL_KW and keep the
    SOC inside the battery band, and total_cost must equal the sum of the
    hourly costs.  Comparisons are written so that NaN fails them.
    """
    problems = []
    hourly_sum = 0.0
    for r in trace.records:
        residual = r.renewable_used + r.p_dis + r.backup - r.p_ch - r.load
        if not abs(residual) <= BALANCE_TOL_KW:
            problems.append(f"hour {r.hour}: energy balance off by {residual!r} kW")
        if not battery.soc_min <= r.soc <= battery.soc_max:
            problems.append(f"hour {r.hour}: soc {r.soc!r} outside "
                            f"[{battery.soc_min}, {battery.soc_max}]")
        hourly_sum += r.cost.total
    if not math.isclose(trace.total_cost, hourly_sum, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"total_cost {trace.total_cost!r} != sum of hourly "
                        f"costs {hourly_sum!r}")
    return problems


def trace_digest(trace) -> str:
    """SHA-256 over every field of the trace, floats at full precision."""
    h = hashlib.sha256()
    h.update(repr((trace.strategy.value, trace.soc_start, trace.total_cost,
                   trace.total_backup_kwh, trace.total_curtailed_kwh,
                   trace.convergence)).encode())
    for r in trace.records:
        h.update(repr(r).encode())
    return h.hexdigest()
