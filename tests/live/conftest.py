"""Shared helpers for the live-transport battery.

Every test here touches real sockets, so two conventions apply
throughout:

* **ephemeral ports** — services bind port 0 and report what they got;
  nothing assumes a free fixed port;
* **per-test timeouts** — all async work runs through :func:`run_async`,
  which wraps the coroutine in ``asyncio.wait_for``; a wedged handshake
  or lost frame fails the test instead of hanging the suite.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import P3SConfig
from repro.pbe.schema import AttributeSpec, MetadataSchema

DEFAULT_TIMEOUT_S = 120.0


def run_async(coro, timeout_s: float = DEFAULT_TIMEOUT_S):
    """Run one test coroutine in a fresh event loop, with a hard timeout."""
    return asyncio.run(asyncio.wait_for(coro, timeout_s))


async def scrape(deployment, aggregator=None):
    """One operator telemetry sweep of ``deployment`` over a short-lived
    client; pass an aggregator to keep state across sweeps."""
    client = deployment.telemetry_client()
    try:
        return await client.scrape(aggregator)
    finally:
        await client.close()


def small_config(**overrides) -> P3SConfig:
    """A deployment config sized for fast tests (2-attribute schema)."""
    schema = MetadataSchema(
        [
            AttributeSpec("topic", ("a", "b", "c", "d")),
            AttributeSpec("prio", ("lo", "hi")),
        ]
    )
    return P3SConfig(schema=schema, **overrides)


@pytest.fixture(scope="session")
def group():
    from repro.crypto.group import PairingGroup

    return PairingGroup("TOY")
