"""Turn a solved volume plan into timed deliveries and a stock trajectory.

Batches are delivered back to back: each one arrives exactly when the previous
batch has been consumed, so stock is zero at every delivery instant and the
trajectory is a run of triangles.  Any delivery order yields the same total
cost; the builder uses supplier index, then larger batches first.  A timeline
keeps the intensity it was built with, so reading it back (``stock_at``,
``holding_integral``) needs no second copy of ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

from .model import Solution, as_rational


@dataclass(frozen=True)
class TimelineEvent:
    time: Fraction
    supplier_index: int
    volume: Fraction


@dataclass(frozen=True)
class Timeline:
    events: tuple[TimelineEvent, ...]
    horizon: Fraction  # total delivered volume / intensity
    lam: Fraction  # consumption intensity, units per time


def schedule_deliveries(deliveries, lam) -> Timeline:
    """Lay out deliveries back to back in the order given."""
    lam = as_rational(lam)
    if lam <= 0:
        raise ValueError("consumption intensity must be positive")
    t = Fraction(0)
    events = []
    for d in deliveries:
        events.append(TimelineEvent(t, d.supplier_index, d.volume))
        t += d.volume / lam
    return Timeline(tuple(events), t, lam)


def build_schedule(sol: Solution, lam) -> Timeline:
    ordered = sorted(sol.deliveries, key=lambda d: (d.supplier_index, -d.volume))
    return schedule_deliveries(ordered, lam)


def stock_at(timeline: Timeline, t) -> Fraction:
    """Stock level at time t; returns the level just after a coincident event."""
    t = as_rational(t)
    if t < 0 or t > timeline.horizon:
        raise ValueError(f"time {t} outside the horizon [0, {timeline.horizon}]")
    current = None
    for e in timeline.events:
        if e.time <= t:
            current = e
        else:
            break
    if current is None:
        return Fraction(0)
    return current.volume - timeline.lam * (t - current.time)


def holding_integral(timeline: Timeline, c_hold) -> Fraction:
    """c_hold times the exact integral of the stock level over the horizon.

    Each piece of the trajectory is linear, so the trapezoid rule is exact;
    this deliberately avoids the per-batch closed form so the two can be
    checked against each other.
    """
    times = [e.time for e in timeline.events] + [timeline.horizon]
    area = Fraction(0)
    for e, (t0, t1) in zip(timeline.events, pairwise(times)):
        start = e.volume
        end = e.volume - timeline.lam * (t1 - t0)
        area += (start + end) * (t1 - t0) / 2
    return area * c_hold

