"""HTTP widget client: the JavaScript widget's Python twin.

Fetches a personalization job from a running
:class:`~repro.web.async_server.AsyncHyRecServer`, executes it with the real
:class:`~repro.core.client.HyRecWidget`, and reports the new KNN back
-- one full Figure 1 (bottom) round trip over actual sockets.
"""

from __future__ import annotations

import urllib.parse
import urllib.request
from dataclasses import dataclass

from repro.core.client import HyRecWidget
from repro.core.jobs import JobResult, PersonalizationJob
from repro.messages import decode_json, gzip_decompress


@dataclass
class RoundTripOutcome:
    """Everything one widget round trip produced."""

    job: PersonalizationJob
    result: JobResult
    recommendations: list[int]
    request_bytes: int
    response_bytes: int


class HttpWidgetClient:
    """A stateless browser widget speaking the Table 1 API over HTTP."""

    def __init__(self, base_url: str, widget: HyRecWidget | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.widget = widget if widget is not None else HyRecWidget()

    def _get(self, path: str) -> tuple[bytes, int]:
        url = f"{self.base_url}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read()
            if response.headers.get("Content-Encoding") == "gzip":
                return gzip_decompress(body), len(body)
            return body, len(body)

    def fetch_job(self, uid: int) -> tuple[PersonalizationJob, int]:
        """GET ``/online/?uid=`` and decode the personalization job."""
        body, wire = self._get(f"/online/?uid={uid}")
        return PersonalizationJob.from_payload(decode_json(body)), wire

    def push_result(self, uid: int, result: JobResult) -> tuple[list[int], int]:
        """GET ``/neighbors/?uid=&id0=..`` with the widget's KNN."""
        params: list[tuple[str, str]] = [("uid", str(uid))]
        for index, token in enumerate(result.neighbor_tokens):
            params.append((f"id{index}", token))
        for index, item in enumerate(result.recommended_items):
            params.append((f"rec{index}", item))
        query = urllib.parse.urlencode(params)
        body, wire = self._get(f"/neighbors/?{query}")
        decoded = decode_json(body)
        return list(decoded.get("recommended", [])), wire

    def round_trip(self, uid: int) -> RoundTripOutcome:
        """Fetch a job, run it in the widget, push the result back."""
        job, response_bytes = self.fetch_job(uid)
        result = self.widget.process_job(job)
        recommendations, request_bytes = self.push_result(uid, result)
        return RoundTripOutcome(
            job=job,
            result=result,
            recommendations=recommendations,
            request_bytes=request_bytes,
            response_bytes=response_bytes,
        )

    def stats(self) -> dict:
        """GET ``/stats/`` (demo/test helper)."""
        body, _ = self._get("/stats/")
        return decode_json(body)
