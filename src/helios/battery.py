"""Battery state-of-charge dynamics and the plant's limits on an applied hour.

The SOC transition is deliberately unclamped: candidate plans are allowed to
leave [soc_min, soc_max] and pay penalty costs, which gives search methods a
useful gradient toward the feasible band. clip_feasible alone applies the
plant's limits: the engine passes each hour's action through it once.
"""

from __future__ import annotations

from .core import BatteryParams, ControlAction


def soc_after(p: BatteryParams, soc, p_ch, p_dis):
    """Next SOC in kWh after one step: soc + eta_ch*p_ch*dt - (p_dis/eta_dis)*dt.

    The one SOC update of the package. Works on floats and on numpy arrays
    that broadcast against each other. No clamping; see module docstring.
    """
    return soc + p.eta_ch * p_ch * p.dt - (p_dis / p.eta_dis) * p.dt


def max_charge_kw(p: BatteryParams, soc: float, renewable_surplus: float,
                  allow_backup_charging: bool = False) -> float:
    """Largest feasible charging power from the current state.

    Bounded by the rate limit, the SOC headroom, and (unless backup charging
    is enabled) the renewable surplus at the bus.
    """
    headroom = max(0.0, (p.soc_max - soc) / (p.eta_ch * p.dt))
    limit = min(p.p_ch_max, headroom)
    if not allow_backup_charging:
        limit = min(limit, max(0.0, renewable_surplus))
    return limit


def max_discharge_kw(p: BatteryParams, soc: float) -> float:
    """Largest feasible discharging power from the current state."""
    available = max(0.0, (soc - p.soc_min) * p.eta_dis / p.dt)
    return min(p.p_dis_max, available)


def clip_feasible(p: BatteryParams, soc: float, a: ControlAction, load: float,
                  renewable: float,
                  allow_backup_charging: bool = False) -> ControlAction:
    """Componentwise-largest action a' <= a that the plant can apply.

    Keeps the next SOC in [soc_min, soc_max] and the rate limits; charging
    draws only from the renewable surplus unless allow_backup_charging is
    set, and discharge never exceeds the load (no dump load is modeled).
    Feasible inputs are returned unchanged.
    """
    surplus = max(0.0, renewable - load)
    p_ch = min(a.p_ch, max_charge_kw(p, soc, surplus, allow_backup_charging))
    p_dis = min(a.p_dis, max_discharge_kw(p, soc), load)
    if p_ch == a.p_ch and p_dis == a.p_dis:
        return a  # min() kept both fields, so this is the action it would rebuild
    return ControlAction(p_ch=p_ch, p_dis=p_dis)
