"""Heartbeat membership and failure detection for shard clusters.

A :class:`MembershipTable` is the cluster's view of which shards are
alive.  Every shard (or a supervisor on its behalf) calls
:meth:`MembershipTable.heartbeat` periodically; :meth:`sweep` marks any
member silent for longer than ``failure_timeout_s`` as dead and reports
the transitions so the caller can react — shrink the routing ring,
flip a readiness probe.

Time is always an explicit ``now`` argument, the same convention as
:class:`repro.core.rs.RepositoryStore`: the simulator passes ``sim.now``,
the live deployment passes its monotonic clock, and the semantics are
identical on either substrate.  The table itself never reads a clock and
never spawns a timer — the substrate owns the cadence.  Only the
simulator has one: a sharded :class:`~repro.core.system.P3SSystem` runs
a daemon heartbeat process; the live services run none, so failure
detection is simulator-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Member", "MembershipTable"]


@dataclass
class Member:
    """One shard's liveness record."""

    name: str
    role: str  # "ds" | "rs"
    joined_at: float
    last_heartbeat: float
    alive: bool = True
    # bookkeeping for flap diagnostics
    failures: int = 0
    recoveries: int = 0


@dataclass
class MembershipTable:
    """Heartbeat bookkeeping + timeout-based failure detection.

    ``failure_timeout_s`` should comfortably exceed the heartbeat
    interval (3–4× is conventional) so one delayed beat does not flap
    the member; the chaos partition windows are longer than that, so a
    genuinely partitioned shard *is* detected.
    """

    failure_timeout_s: float = 3.0
    members: dict[str, Member] = field(default_factory=dict)

    def join(self, name: str, role: str, now: float) -> Member:
        member = self.members.get(name)
        if member is None:
            member = Member(name=name, role=role, joined_at=now, last_heartbeat=now)
            self.members[name] = member
        else:
            member.last_heartbeat = now
        return member

    def heartbeat(self, name: str, now: float) -> None:
        member = self.members.get(name)
        if member is None:
            raise KeyError(f"heartbeat from unknown member {name!r}")
        member.last_heartbeat = now
        if not member.alive:
            member.alive = True
            member.recoveries += 1

    def sweep(self, now: float) -> list[str]:
        """Mark silent members dead; returns the names that died *now*."""
        died: list[str] = []
        for member in self.members.values():
            if member.alive and now - member.last_heartbeat > self.failure_timeout_s:
                member.alive = False
                member.failures += 1
                died.append(member.name)
        return died

    # -- queries ---------------------------------------------------------------

    def is_alive(self, name: str) -> bool:
        member = self.members.get(name)
        return member is not None and member.alive

    def alive(self, role: str | None = None) -> list[str]:
        return [
            m.name
            for m in self.members.values()
            if m.alive and (role is None or m.role == role)
        ]

    def snapshot(self, now: float) -> list[dict]:
        """JSON-friendly membership view for `repro cluster status`."""
        return [
            {
                "name": m.name,
                "role": m.role,
                "alive": m.alive,
                "age_s": round(now - m.joined_at, 3),
                "silence_s": round(now - m.last_heartbeat, 3),
                "failures": m.failures,
                "recoveries": m.recoveries,
            }
            for m in sorted(self.members.values(), key=lambda m: (m.role, m.name))
        ]
