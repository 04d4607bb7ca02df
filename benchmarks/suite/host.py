"""Child process that hosts the program under test for one set-up.

A fresh interpreter per set-up keeps ``ru_maxrss`` and every lazy cache
honest.  Protocol, one JSON object per line: the parent writes the
parameters to stdin, the child does the whole set-up and answers with a
``ready`` line (that line *is* the readiness signal -- nobody sleeps),
then serves commands until ``stop`` or end of input:

* ``{"cmd": "run", "users": [...], "rate": null | 1/s}`` -- one
  in-process window (``InprocLoad.run``) over the hosted system;
* ``{"cmd": "stop"}`` -- stop the front door, report ``peak_rss_mb``.

Set-up, timed inside the child on the system-wide monotonic clock:
load the population through ``record_rating``; serve the cold wave
(largest profiles first, each request timed); for the warm workloads,
one warm-up pass over the pool; for the HTTP workloads, start the
front door.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

import program  # noqa: E402
from loadgen import InprocLoad  # noqa: E402
from spec import Sizes  # noqa: E402


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    params = json.loads(sys.stdin.readline())
    workload, seed = params["workload"], params["seed"]
    sizes = Sizes(**params["sizes"])

    system, load_s = program.load(sizes)
    loaded_at = time.perf_counter()
    load = InprocLoad(system)
    cold_users = program.largest_profiles(system, sizes.cold_wave, seed)
    ready = {
        "load_s": load_s,
        "loaded_at": loaded_at,
        "cold_users": cold_users,
        "cold_wave": load.run(cold_users),
    }
    front = None
    if workload != "cold_ingest":
        pool = program.draw_pool(system, sizes, seed)
        bodies = program.warm(system, pool)
        ready["pool"] = pool
        if workload == "http_roundtrip":
            ready["bodies"] = [bodies[uid] for uid in pool]
        if workload == "http_reads":
            ready["ranked"] = program.by_activity(system)
        if workload.startswith("http"):
            front = program.front_door(system)
            ready["port"] = front.start()
    ready["ready_at"] = time.perf_counter()
    emit(ready)

    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "stop":
                break
            emit(load.run(command["users"], command["rate"]))
    finally:
        if front is not None:
            front.stop()
        system.close()
    emit(
        {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
