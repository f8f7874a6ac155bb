"""Wire format of the experiment service.

One JSON document type per direction:

* a **job spec** (client → server) names the work: a single cell or a
  sweep, as ``benchmarks × configs`` under one
  :class:`~repro.experiments.runner.ExperimentSettings`;
* a **job status** (server → client) is the spec plus lifecycle state,
  timestamps, cost estimate and provenance (store hit / coalesced /
  executed).

Both shapes are described by ``schemas/service_job.schema.json`` and
validated with the dependency-free subset validator from
:mod:`repro.observe.export` — the same contract mechanism CI already
uses for observe summaries. :meth:`JobSpec.from_wire` additionally
canonicalises sugar (a ``cell`` job may say ``benchmark``/``config``
singular) and resolves names against the real config factories, so a
typo'd policy fails at submission, not mid-execution.

The spec's :meth:`~JobSpec.digest` is the coalescing key: two jobs
with the same digest describe byte-identical work (same benchmarks,
same canonical configs, same settings, same backend) and may share one
execution. Priority, client and worker count are deliberately outside
the digest — they shape *scheduling*, not *results*.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import (
    SchedulingModel,
    SpeculationPolicy,
    continuous_window_64,
    continuous_window_128,
)
from repro.config.processor import ProcessorConfig
from repro.experiments.runner import ExperimentSettings

#: Supported window presets (mirrors the observe/check CLIs).
_WINDOW_FACTORIES = {64: continuous_window_64, 128: continuous_window_128}

#: Default wire settings (the CLI's ``--quick`` lengths: the service
#: favours interactive latency; callers opt into longer runs).
DEFAULT_TIMING = 6_000
DEFAULT_WARMUP = 4_000


class ProtocolError(ValueError):
    """A job document that cannot describe valid work."""


def _schema_path() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(here))),
        "schemas", "service_job.schema.json",
    )


def _load_schema(section: str) -> Optional[dict]:
    """One section of the checked-in schema, or ``None`` off-repo."""
    path = os.environ.get("REPRO_SERVICE_SCHEMA") or _schema_path()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return doc["properties"][section]
    except (OSError, ValueError, KeyError):
        return None


def validate_spec(instance) -> List[str]:
    """Schema errors for a canonical job-spec document (may be [])."""
    return _validate(instance, "spec")


def validate_status(instance) -> List[str]:
    """Schema errors for a job-status document (may be [])."""
    return _validate(instance, "status")


def _validate(instance, section: str) -> List[str]:
    from repro.observe.export import validate_summary

    schema = _load_schema(section)
    if schema is None:
        # Schema file unavailable (installed package outside the
        # repo): semantic checks in from_wire still apply.
        return []
    return validate_summary(instance, schema)


def _canonical_config(doc: dict) -> dict:
    """Normalise and semantically check one config description."""
    if not isinstance(doc, dict):
        raise ProtocolError(f"config must be an object, got {doc!r}")
    unknown = set(doc) - {"scheduling", "policy", "window", "latency"}
    if unknown:
        raise ProtocolError(
            f"unknown config fields: {', '.join(sorted(unknown))}"
        )
    scheduling = doc.get("scheduling", "NAS")
    policy = doc.get("policy", "NAV")
    window = doc.get("window", 128)
    latency = doc.get("latency", 0)
    try:
        SchedulingModel(scheduling)
        SpeculationPolicy(policy)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    if window not in _WINDOW_FACTORIES:
        raise ProtocolError(
            f"unsupported window {window!r} (expected one of "
            f"{sorted(_WINDOW_FACTORIES)})"
        )
    if not isinstance(latency, int) or latency < 0:
        raise ProtocolError(f"latency must be a non-negative int, "
                            f"got {latency!r}")
    return {
        "scheduling": scheduling, "policy": policy,
        "window": window, "latency": latency,
    }


def resolve_config(doc: dict) -> ProcessorConfig:
    """A canonical config dict → the matching preset machine."""
    doc = _canonical_config(doc)
    return _WINDOW_FACTORIES[doc["window"]](
        SchedulingModel(doc["scheduling"]),
        SpeculationPolicy(doc["policy"]),
        addr_scheduler_latency=doc["latency"],
    )


def config_label(doc: dict) -> str:
    """Display label, e.g. ``NAS/NAV@128`` or ``AS/NO+1cy@64``."""
    latency = f"+{doc['latency']}cy" if doc.get("latency") else ""
    return (f"{doc['scheduling']}/{doc['policy']}{latency}"
            f"@{doc['window']}")


@dataclass(frozen=True)
class JobSpec:
    """Canonical description of one service job's work."""

    kind: str = "cell"
    benchmarks: Tuple[str, ...] = ()
    configs: Tuple[dict, ...] = field(default_factory=tuple)
    timing: int = DEFAULT_TIMING
    warmup: int = DEFAULT_WARMUP
    seed: int = 0
    priority: float = 0.0
    client: str = "anon"
    backend: Optional[str] = None
    workers: int = 1

    # -- construction --------------------------------------------------------

    @classmethod
    def from_wire(cls, doc) -> "JobSpec":
        """Parse + canonicalise a submitted job document.

        Raises :class:`ProtocolError` on anything that cannot run:
        unknown fields, unknown benchmarks/policies/backends, empty
        work, non-numeric settings.
        """
        if not isinstance(doc, dict):
            raise ProtocolError("job spec must be a JSON object")
        allowed = {
            "kind", "benchmark", "benchmarks", "config", "configs",
            "settings", "priority", "client", "backend", "workers",
        }
        unknown = set(doc) - allowed
        if unknown:
            raise ProtocolError(
                f"unknown spec fields: {', '.join(sorted(unknown))}"
            )
        kind = doc.get("kind", "cell")
        if kind not in ("cell", "sweep"):
            raise ProtocolError(f"unknown job kind {kind!r}")

        benchmarks = doc.get("benchmarks")
        if benchmarks is None:
            single = doc.get("benchmark")
            benchmarks = [single] if single is not None else []
        if not benchmarks or not all(
            isinstance(b, str) and b for b in benchmarks
        ):
            raise ProtocolError("job names no benchmarks")
        if kind == "cell" and len(benchmarks) != 1:
            raise ProtocolError("a cell job takes exactly one benchmark")

        configs = doc.get("configs")
        if configs is None:
            configs = [doc.get("config") or {}]
        if not configs:
            raise ProtocolError("job names no configurations")
        if kind == "cell" and len(configs) != 1:
            raise ProtocolError("a cell job takes exactly one config")
        configs = tuple(_canonical_config(c) for c in configs)

        settings = doc.get("settings") or {}
        if not isinstance(settings, dict):
            raise ProtocolError("settings must be an object")
        timing = settings.get("timing", DEFAULT_TIMING)
        warmup = settings.get("warmup", DEFAULT_WARMUP)
        seed = settings.get("seed", 0)
        for name, value in (("timing", timing), ("warmup", warmup),
                            ("seed", seed)):
            if not isinstance(value, int) or value < 0:
                raise ProtocolError(
                    f"settings.{name} must be a non-negative int, "
                    f"got {value!r}"
                )
        if timing <= 0:
            raise ProtocolError("settings.timing must be positive")

        backend = doc.get("backend")
        if backend is not None:
            from repro.core.backend import BACKENDS

            if backend not in BACKENDS:
                raise ProtocolError(
                    f"unknown backend {backend!r} (available: "
                    f"{', '.join(BACKENDS)})"
                )

        priority = doc.get("priority", 0.0)
        if not isinstance(priority, (int, float)):
            raise ProtocolError("priority must be a number")
        workers = doc.get("workers", 1)
        if not isinstance(workers, int) or workers < 1:
            raise ProtocolError("workers must be a positive int")
        client = doc.get("client", "anon")
        if not isinstance(client, str) or not client:
            raise ProtocolError("client must be a non-empty string")

        spec = cls(
            kind=kind,
            benchmarks=tuple(benchmarks),
            configs=configs,
            timing=timing,
            warmup=warmup,
            seed=seed,
            priority=float(priority),
            client=client,
            backend=backend,
            workers=workers,
        )
        # Benchmarks resolve lazily at run time in the catalog; check
        # now so a typo is a 400, not a failed job later.
        from repro.workloads.spec95 import ALL_BENCHMARKS
        from repro.workloads.catalog import KERNEL_NAMES

        known = set(ALL_BENCHMARKS) | set(KERNEL_NAMES)
        known |= {name.split(".", 1)[0] for name in ALL_BENCHMARKS}
        for name in spec.benchmarks:
            if name not in known:
                raise ProtocolError(f"unknown benchmark {name!r}")
        return spec

    # -- wire ----------------------------------------------------------------

    def to_wire(self) -> dict:
        """The canonical JSON document (validates against the schema)."""
        return {
            "kind": self.kind,
            "benchmarks": list(self.benchmarks),
            "configs": [dict(c) for c in self.configs],
            "settings": {
                "timing": self.timing,
                "warmup": self.warmup,
                "seed": self.seed,
            },
            "priority": self.priority,
            "client": self.client,
            "backend": self.backend,
            "workers": self.workers,
        }

    # -- derived -------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.benchmarks) * len(self.configs)

    def settings(self) -> ExperimentSettings:
        return ExperimentSettings(
            timing_instructions=self.timing,
            warmup_instructions=self.warmup,
            seed=self.seed,
        )

    def labelled_configs(self) -> Dict[str, ProcessorConfig]:
        return {
            config_label(doc): resolve_config(doc)
            for doc in self.configs
        }

    def digest(self) -> str:
        """Coalescing key: SHA-256 over the work (not the scheduling).

        Jobs sharing a digest would produce byte-identical results —
        same cells, same settings, same backend (backends are
        bit-identical, but the *record* they produce stamps its
        producer, so backend stays inside the key).
        """
        identity = [
            self.kind, list(self.benchmarks),
            [sorted(c.items()) for c in self.configs],
            self.timing, self.warmup, self.seed, self.backend,
        ]
        return hashlib.sha256(
            json.dumps(identity, sort_keys=True,
                       separators=(",", ":")).encode("utf-8")
        ).hexdigest()
