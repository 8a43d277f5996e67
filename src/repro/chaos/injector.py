"""The fault injector: a DES process that executes a fault schedule.

Determinism contract: the injector walks the schedule in ``(at_ms,
insertion order)`` order, sleeping to each event's absolute fire time and
executing it synchronously within one simulation instant (node recovery
may itself take simulated time — fragment copies, journal replays — in
which case later events fire no earlier than the recovery completes).
Elastic membership actions (``add_namenode`` / ``decommission_namenode``
/ ``preempt_namenode``) return immediately: drains and preemption
warnings run as background deployment processes so a churn storm never
skews the fire times of later schedule events.
It draws from no RNG, so the same schedule against the same seeded
deployment reproduces a bit-identical kernel dispatch sequence; with
tracing attached it only *records* (``chaos.fault`` spans and per-action
counters), never schedules, keeping traced runs schedule-neutral.
"""

from __future__ import annotations

from ..errors import ReproError
from .schedule import FaultEvent, FaultSchedule, parse_node

__all__ = ["FaultInjector"]


class FaultInjector:
    """Executes a :class:`FaultSchedule` against a setup's harness.

    ``target`` is a :class:`~repro.experiments.setups.Harness`; every
    event goes through its fault surface.
    """

    def __init__(self, target, schedule: FaultSchedule):
        self.target = target
        self.schedule = schedule
        self.env = target.env
        # The executed fault trace: (fire time, action, description).
        self.trace: list[tuple[float, str, str]] = []
        self.process = None

    def start(self):
        """Spawn the injector process; returns it (yieldable to await)."""
        self.process = self.env.process(self.run(), name="chaos-injector")
        return self.process

    def run(self):
        # Event times are relative to injector start: "t=60ms" means 60ms
        # after the load began, regardless of how long election/preload took.
        origin = self.env.now
        for event in self.schedule.events:
            delay = origin + event.at_ms - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            yield from self._execute(event)

    def _execute(self, event):
        obs = self.env.obs
        span = None
        if obs is not None:
            span = obs.tracer.start(
                "chaos.fault",
                action=event.action,
                detail=event.describe(),
                scheduled_ms=event.at_ms,
            )
            obs.registry.counter(f"chaos.fault.{event.action}").inc()
        try:
            detail = yield from self._apply(event)
        finally:
            if obs is not None:
                obs.tracer.finish(span)
        self.trace.append((self.env.now, event.action, detail))

    def _addrs_in_az(self, az: int) -> list:
        az_of = self.target.network.topology.az_of
        return [a for a in self.target.managed_addrs() if az_of(a) == az]

    def _apply(self, event: FaultEvent):
        """Generator: execute one fault event; returns a description string."""
        target = self.target
        action = event.action
        if action == "crash_node":
            addr = parse_node(event.node)
            target.crash(addr)
            yield self.env.timeout(0)
            return f"crashed {addr}"
        if action == "recover_node":
            addr = parse_node(event.node)
            yield from target.recover(addr)
            return f"recovered {addr}"
        if action == "az_outage":
            crashed = []
            for addr in self._addrs_in_az(event.az):
                if target.is_running(addr):
                    target.crash(addr)
                    crashed.append(str(addr))
            yield self.env.timeout(0)
            return f"az{event.az} down: {','.join(crashed)}"
        if action == "az_heal":
            recovered = []
            for addr in self._addrs_in_az(event.az):
                if not target.is_running(addr):
                    yield from target.recover(addr)
                    recovered.append(str(addr))
            yield self.env.timeout(0)
            return f"az{event.az} healed: {','.join(recovered)}"
        if action == "partition":
            target.network.partition_azs(*event.groups)
            yield self.env.timeout(0)
            a, b = event.groups
            return f"partitioned az{list(a)} | az{list(b)}"
        if action == "heal":
            target.network.heal_partitions()
            target.on_heal()
            yield self.env.timeout(0)
            return "healed partitions"
        if action == "degrade_link":
            az_a, az_b = event.az_pair
            target.network.degrade_link(az_a, az_b, event.extra_ms)
            yield self.env.timeout(0)
            return f"degraded az{az_a}-az{az_b} by {event.extra_ms}ms"
        if action == "restore_links":
            target.network.restore_links()
            yield self.env.timeout(0)
            return "restored links"
        if action == "recover_all":
            recovered = []
            for addr in target.managed_addrs():
                if not target.is_running(addr):
                    yield from target.recover(addr)
                    recovered.append(str(addr))
            yield self.env.timeout(0)
            return f"recovered all: {','.join(recovered) or '(none down)'}"
        # Elastic membership actions return immediately: drains and warning
        # windows run as background processes so a churn storm never skews
        # the firing times of later schedule events.
        if action == "add_namenode":
            detail = target.add_namenode(event.az)
            yield self.env.timeout(0)
            return detail
        if action == "decommission_namenode":
            detail = target.decommission_namenode(parse_node(event.node))
            yield self.env.timeout(0)
            return detail
        if action == "preempt_namenode":
            detail = target.preempt_namenode(parse_node(event.node), event.extra_ms)
            yield self.env.timeout(0)
            return detail
        raise ReproError(f"unknown fault action {action!r}")
