"""``WebApi.online`` renders from integer ids on every engine.

The HTTP ``/online`` endpoint builds the integer job
(``handle_engine_request``) and renders it with
``render_engine_response`` -- the path the in-process array engines
take -- instead of the generic ``handle_online_request``, whose job
carries a ``{str(item): value}`` dict per candidate.  Twin servers pin
the switch: one request sequence, served the old way on one twin and
through ``WebApi.online`` on the other, must give identical bodies and
identical wire metering, with the sampler, anonymizer and meter state
advancing in the same order (``reshuffle_every=3`` puts several token
epochs inside the sequence).
"""

from __future__ import annotations

import pytest

from repro.core.api import WebApi
from repro.core.client import HyRecWidget
from repro.core.config import HyRecConfig
from repro.core.jobs import PersonalizationJob
from repro.core.server import HyRecServer
from repro.datasets.synthetic import StreamingLoader, SyntheticSpec
from repro.messages import encode_json

ENGINES = [
    pytest.param({"engine": "python"}, id="python"),
    pytest.param({"engine": "vectorized"}, id="vectorized"),
    pytest.param(
        {"engine": "sharded", "num_shards": 2, "executor": "serial"},
        id="sharded-serial",
    ),
]


def build_server(compress: bool, **overrides: object) -> HyRecServer:
    """A 60-user zipf population: profiles on both sides of the splice
    threshold, so the gzip bodies hold inline and spliced members."""
    server = HyRecServer(
        HyRecConfig(k=4, r=4, compress=compress, reshuffle_every=3, **overrides),
        seed=5,
    )
    spec = SyntheticSpec(num_users=60, catalog=90, total_writes=1800, seed=5)
    StreamingLoader(spec).load_into(server)
    return server


def sequence(server: HyRecServer) -> list[int]:
    users = sorted(server.profiles.users())
    return users + users[::-1]


def meter_readings(server: HyRecServer) -> dict[str, tuple[int, int, int]]:
    return {
        channel: (reading.messages, reading.raw_bytes, reading.wire_bytes)
        for channel, reading in server.meter.channels.items()
    }


def payload_dicts(server: HyRecServer) -> list[int]:
    """Users whose profile holds a cached ``to_payload()`` dict."""
    return [
        uid
        for uid in server.profiles.users()
        if server.profiles.get(uid)._payload_cache is not None
    ]


@pytest.mark.parametrize("compress", [True, False], ids=["gzip", "plain"])
@pytest.mark.parametrize("engine_kwargs", ENGINES)
def test_online_renders_the_generic_paths_bytes(engine_kwargs, compress):
    generic = build_server(compress, **engine_kwargs)
    served = build_server(compress, **engine_kwargs)
    api = WebApi(served)
    widget = HyRecWidget()
    try:
        for uid in sequence(generic):
            job = generic.handle_online_request(uid)
            old_body = generic.render_online_response(job)
            new_body = api.online(uid)
            assert new_body == old_body
            # The KNN update moves both twins on, so later samples (and
            # their two-hop candidates) depend on the earlier responses.
            result = widget.process_job(job)
            generic.handle_knn_update(uid, result)
            served_result = widget.process_job(
                PersonalizationJob.from_payload(api.decode(new_body))
            )
            api.neighbors_from_body(uid, encode_json(served_result.to_payload()))
        assert meter_readings(served) == meter_readings(generic)
        assert served.stats.reshuffles == generic.stats.reshuffles > 1
        assert served.knn_table.as_dict() == generic.knn_table.as_dict()
        # No payload dict is built on the way: every profile travelled
        # as its cached fragment only.
        assert payload_dicts(served) == []
    finally:
        generic.close()
        served.close()


def test_anonymized_items_still_travel_as_tokens():
    server = build_server(True, anonymize_items=True)
    api = WebApi(server)
    body = api.decode(api.online(0))
    profiles = [body["p"], *body["c"].values()]
    keys = [key for profile in profiles for key in profile]
    assert keys
    assert all(key.startswith("i") for key in keys)
    # Each token resolves to an item the profile really rated.
    resolve = server.anonymizer.resolve_item
    assert {resolve(key) for key in body["p"]} == set(
        server.profiles.get(0).rated_items()
    )
