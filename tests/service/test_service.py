"""The experiment service: HTTP/JSON round-trips over one scheduler.

An in-process :class:`~repro.service.server.ExperimentService` on an
ephemeral port, driven through the real :class:`ServiceClient` — the
same stack ``repro serve`` / ``repro submit`` use, minus the argparse.
"""

import json

import pytest

from repro.core.executor import (
    EngineError,
    MachineConfig,
    RunSpec,
    execute_spec,
)
from repro.service import api
from repro.service.client import ClientError, ServiceClient
from repro.service.server import ExperimentService

SPEC = dict(workload="educational", instructions=900, warmup_instructions=200)


@pytest.fixture(scope="module")
def service():
    svc = ExperimentService(concurrency=2).start_in_thread()
    yield svc
    svc.shutdown()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient("http://127.0.0.1:{}".format(service.port))


@pytest.fixture(scope="module")
def golden():
    return execute_spec(RunSpec(**SPEC))


class TestWireFormat:
    def test_spec_round_trip(self):
        spec = RunSpec(
            workload="educational",
            instructions=1000,
            warmup_instructions=100,
            seed_offset=3,
            config=MachineConfig(cache_size_bytes=4096, decode_overlap=True),
            label="ablated",
        )
        clone = api.spec_from_payload(
            json.loads(json.dumps(api.spec_to_payload(spec)))
        )
        assert clone == spec

    def test_configure_callable_is_refused(self):
        spec = RunSpec(workload="educational", configure=lambda machine: None)
        with pytest.raises(api.ApiError, match="configure"):
            api.spec_to_payload(spec)

    def test_unknown_spec_fields_are_refused(self):
        with pytest.raises(api.ApiError, match="unknown"):
            api.spec_from_payload({"workload": "educational", "bogus": 1})

    def test_run_round_trip_is_lossless(self, golden):
        payload = json.loads(json.dumps(api.run_to_payload(golden)))
        clone = api.run_from_payload(payload)
        # The decoded run re-encodes to the identical JSON document —
        # the byte-identity the concurrent-client differential rests on.
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            api.run_to_payload(clone), sort_keys=True
        )
        assert clone.histogram == golden.histogram
        assert clone.result.instructions == golden.result.instructions
        assert clone.result.cpi == golden.result.cpi
        assert clone.result.events.opcode_counts == golden.result.events.opcode_counts
        assert clone.result.events.specifier_counts == (
            golden.result.events.specifier_counts  # tuple keys survived
        )
        assert clone.manifest.config_hash == golden.manifest.config_hash
        # reduce_histogram links the events into the reduction; the
        # decoded object graph keeps that identity.
        assert clone.result.reduction.events is clone.result.events


class TestRoutes:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True}

    def test_submit_wait_fetch(self, client, golden):
        accepted = client.submit_sweep([RunSpec(**SPEC)])
        assert accepted["job"].startswith("j-")
        record = client.wait(accepted["job"])
        assert record["state"] == "done"
        assert len(record["runs"]) == 1
        summary = record["runs"][0]
        assert summary["digest"] == accepted["digests"][0]
        assert summary["instructions"] == golden.result.instructions
        run = client.result(summary["digest"])
        assert run.histogram == golden.histogram
        assert json.dumps(api.result_to_payload(run.result), sort_keys=True) == (
            json.dumps(api.result_to_payload(golden.result), sort_keys=True)
        )

    def test_duplicate_sweep_attaches_not_reexecutes(self, client):
        first = client.wait(client.submit_sweep([RunSpec(**SPEC)])["job"])
        again = client.wait(client.submit_sweep([RunSpec(**SPEC)])["job"])
        summary = again["runs"][0]
        assert summary["attached_to"] == first["runs"][0]["digest"]
        assert summary["wall_seconds"] == 0.0
        stats = client.stats()
        counters = stats["metrics"]["counters"]
        assert counters["scheduler.specs.executed"] == 1
        assert counters["scheduler.specs.resolved_index"] >= 1

    def test_job_listing_and_stats_shape(self, client):
        jobs = client.jobs()
        assert jobs and all(job["job"].startswith("j-") for job in jobs)
        stats = client.stats()
        assert set(stats) >= {"inflight", "result_index", "jobs", "metrics"}

    def test_unknown_job_404(self, client):
        with pytest.raises(ClientError) as caught:
            client.job("j-999999")
        assert caught.value.status == 404

    def test_unknown_digest_404(self, client):
        with pytest.raises(ClientError) as caught:
            client.result_payload("f" * 64)
        assert caught.value.status == 404

    def test_unknown_route_404(self, client):
        with pytest.raises(ClientError) as caught:
            client.request("GET", "/nope")
        assert caught.value.status == 404

    def test_malformed_body_400(self, client):
        with pytest.raises(ClientError) as caught:
            client.request("POST", "/sweeps", {"specs": []})
        assert caught.value.status == 400
        for spec in (
            {"bogus": 1},
            {"workload": "nosuch"},
            {"workload": "educational", "instructions": -5},
            {"workload": "educational", "instructions": "100"},
        ):
            with pytest.raises(ClientError) as caught:
                client.request("POST", "/sweeps", {"specs": [spec]})
            assert caught.value.status == 400, spec

    def test_get_on_sweeps_405(self, client):
        with pytest.raises(ClientError) as caught:
            client.request("GET", "/sweeps")
        assert caught.value.status == 405


#: A spec the API accepts but the machine refuses at build time: the
#: cache size is not a multiple of ways * block size.
BROKEN = RunSpec(
    workload="educational",
    instructions=100,
    config=MachineConfig(cache_size_bytes=1000),
    label="broken-cache",
)


class TestErrorEnvelope:
    def test_failed_job_reconstructs_engine_error(self, client):
        accepted = client.submit_sweep([BROKEN])
        record = client.wait(accepted["job"])
        assert record["state"] == "failed"
        envelope = record["error"]
        assert envelope["type"] == "EngineError"
        error = api.error_from_envelope(envelope)
        assert isinstance(error, EngineError)
        assert error.spec_name == "broken-cache"
        assert error.worker_traceback  # the server-side traceback survives
        # The job counter tells the failure story too.
        assert client.stats()["metrics"]["counters"]["service.jobs.failed"] >= 1

    def test_collect_mode_reports_instead_of_failing(self, client):
        accepted = client.submit_sweep(
            [BROKEN, RunSpec(**SPEC)],
            on_error="collect",
        )
        record = client.wait(accepted["job"])
        assert record["state"] == "done"
        assert record["report"]["total"] == 2
        assert [f["name"] for f in record["report"]["failures"]] == [
            "broken-cache"
        ]
        assert [run["name"] for run in record["runs"]] == ["educational"]
