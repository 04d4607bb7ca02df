"""Parity fixture: the oracle engine and the default engine agree.

Bit-for-bit parity with ``engine="python"`` is the repo's non-negotiable
gate (ROADMAP aim 3), so a benchmark number is only worth reading if the
program that produced it still passes it.  One small population, the
same requests on both engines, one digest each over everything a user
or the Figure-10 meter can observe.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.core.config import HyRecConfig

import program
from spec import Sizes


def digest(engine: str, fixture: Sizes, seed: int) -> str:
    system, _ = program.load(fixture, HyRecConfig(engine=engine))
    sha = hashlib.sha256()
    try:
        for uid in program.draw_pool(system, fixture, seed):
            outcome = system.request(uid)
            sha.update(
                repr(
                    (
                        uid,
                        outcome.result.neighbor_tokens,
                        outcome.recommendations,
                        system.server.meter.total_wire_bytes,
                    )
                ).encode("ascii")
            )
    finally:
        system.close()
    return sha.hexdigest()


def parity_check(sizes: Sizes, seed: int) -> dict:
    users, catalog, writes, requests = sizes.parity
    fixture = dataclasses.replace(
        sizes, users=users, catalog=catalog, writes=writes, pool=requests
    )
    oracle = digest("python", fixture, seed)
    default = digest("vectorized", fixture, seed)
    return {
        "name": "engine_parity",
        "ok": oracle == default,
        "detail": f"sha256 over neighbours, recommendations and wire bytes of "
        f"{requests} requests: python {oracle[:16]}, vectorized {default[:16]}",
    }
