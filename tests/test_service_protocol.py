"""JobSpec wire parsing, canonicalisation, digests and the schema."""

from __future__ import annotations

import pytest

from repro.service.protocol import (
    JobSpec,
    ProtocolError,
    config_label,
    resolve_config,
    validate_spec,
    validate_status,
)

CELL = {
    "kind": "cell",
    "benchmark": "126.gcc",
    "config": {"scheduling": "NAS", "policy": "NAV",
               "window": 128, "latency": 0},
    "settings": {"timing": 2000, "warmup": 1000, "seed": 0},
}


class TestFromWire:
    def test_singular_sugar_canonicalises(self):
        spec = JobSpec.from_wire(CELL)
        assert spec.benchmarks == ("126.gcc",)
        assert len(spec.configs) == 1
        assert spec.configs[0]["policy"] == "NAV"

    def test_roundtrips_through_wire(self):
        spec = JobSpec.from_wire(CELL)
        again = JobSpec.from_wire(spec.to_wire())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_canonical_wire_passes_schema(self):
        spec = JobSpec.from_wire(CELL)
        assert validate_spec(spec.to_wire()) == []

    @pytest.mark.parametrize("mutation, message", [
        ({"kind": "banquet"}, "kind"),
        ({"benchmark": "999.nope"}, "benchmark"),
        ({"benchmark": None}, "benchmark"),
        ({"config": {"policy": "YOLO"}}, "YOLO"),
        ({"config": {"window": 96}}, "window"),
        ({"settings": {"timing": 0}}, "timing"),
        ({"settings": {"timing": "soon"}}, "timing"),
        ({"backend": "quantum"}, "backend"),
        ({"workers": 0}, "workers"),
        ({"surprise": 1}, "unknown"),
        ({"backend": "eventsim"}, "backend"),
    ])
    def test_bad_documents_rejected(self, mutation, message):
        doc = dict(CELL)
        doc.update(mutation)
        if "settings" in mutation:
            merged = dict(CELL["settings"])
            merged.update(mutation["settings"])
            doc["settings"] = merged
        if "config" in mutation:
            merged = dict(CELL["config"])
            merged.update(mutation["config"])
            doc["config"] = merged
        with pytest.raises(ProtocolError, match=message):
            JobSpec.from_wire(doc)

    def test_cell_job_takes_exactly_one_benchmark(self):
        doc = dict(CELL)
        doc.pop("benchmark")
        doc["benchmarks"] = ["126.gcc", "099.go"]
        with pytest.raises(ProtocolError):
            JobSpec.from_wire(doc)

    def test_kernel_benchmarks_accepted(self):
        doc = dict(CELL)
        doc["benchmark"] = "recurrence"
        assert JobSpec.from_wire(doc).benchmarks == ("recurrence",)


class TestDigest:
    def test_work_identity_only(self):
        """Priority, client and workers never change the digest."""
        base = JobSpec.from_wire(CELL)
        hot = JobSpec.from_wire(
            {**CELL, "priority": 99.0, "client": "vip", "workers": 8}
        )
        assert hot.digest() == base.digest()

    @pytest.mark.parametrize("mutation", [
        {"benchmark": "099.go"},
        {"settings": {"timing": 2000, "warmup": 1000, "seed": 7}},
        {"config": {"scheduling": "NAS", "policy": "SYNC",
                    "window": 128, "latency": 0}},
    ])
    def test_different_work_different_digest(self, mutation):
        other = dict(CELL)
        other.update(mutation)
        assert (JobSpec.from_wire(other).digest()
                != JobSpec.from_wire(CELL).digest())


class TestConfigs:
    def test_resolve_config_matches_presets(self):
        from repro.config import (
            SchedulingModel, SpeculationPolicy, continuous_window_128,
        )

        doc = {"scheduling": "AS", "policy": "NO",
               "window": 128, "latency": 1}
        assert resolve_config(doc) == continuous_window_128(
            SchedulingModel.AS, SpeculationPolicy.NO,
            addr_scheduler_latency=1,
        )

    def test_labels(self):
        assert config_label({"scheduling": "NAS", "policy": "NAV",
                             "window": 128, "latency": 0}) == "NAS/NAV@128"
        assert config_label({"scheduling": "AS", "policy": "NO",
                             "window": 64, "latency": 2}) == "AS/NO+2cy@64"

    def test_labelled_configs_distinct(self):
        spec = JobSpec.from_wire({
            "kind": "sweep", "benchmarks": ["126.gcc"],
            "configs": [
                {"scheduling": "NAS", "policy": "NO",
                 "window": 128, "latency": 0},
                {"scheduling": "NAS", "policy": "ORACLE",
                 "window": 128, "latency": 0},
            ],
        })
        labelled = spec.labelled_configs()
        assert sorted(labelled) == ["NAS/NO@128", "NAS/ORACLE@128"]


class TestStatusSchema:
    def test_status_document_validates(self):
        from repro.service.jobs import Job

        job = Job(spec=JobSpec.from_wire(CELL))
        assert validate_status(job.status_wire()) == []

    def test_schema_flags_bad_state(self):
        from repro.service.jobs import Job

        job = Job(spec=JobSpec.from_wire(CELL))
        doc = job.status_wire()
        doc["state"] = "limbo"
        assert validate_status(doc) != []
