"""Simulator backend registry.

Three backends produce bit-identical :class:`~repro.core.result.SimResult`
numbers for the same (config, trace, plan):

``reference``
    The pure-Python object-per-instruction core
    (:class:`repro.core.processor.Processor`). Always available, always
    authoritative; the golden-parity fixture is regenerated from it.

``vector``
    The structure-of-arrays core (:class:`repro.core.vector.
    VectorProcessor`) that consumes packed ``CompiledTrace`` columns
    directly — no ``DynInst`` materialization on the fast path. It
    exists purely for throughput; any divergence from ``reference`` is
    a bug (CI's ``backend-parity`` job enforces this).

``eventsim``
    The split-window machine
    (:class:`repro.eventsim.splitwindow.EventSplitWindowProcessor`), a
    per-cycle loop with a timed sync fabric. It is the only engine for
    split-window configs: :func:`repro.experiments.runner.run_benchmark`
    sends every split config to it whatever backend was requested, and
    it alone models non-degenerate sync-fabric settings (link latency,
    bounded bandwidth, banked memory — see
    :class:`repro.config.processor.SplitWindowConfig`). At degenerate
    fabric settings it is bit-identical to the independent oracle
    :mod:`repro.splitwindow` (CI's ``eventsim-parity`` job enforces
    this); for non-split configs it delegates to ``reference``.

Selection precedence (first non-empty wins)::

    explicit argument > config.backend > $REPRO_BACKEND > "reference"

The ``vector`` backend transparently delegates to ``reference`` when a
run needs per-instruction objects (observability, timeline, telemetry,
or a split-window config) — see :func:`vector_limitation`.

The vector core additionally runs with **event-horizon cycle elision**
by default: when a cycle provably cannot schedule, complete, fetch or
commit anything, the clock jumps straight to the next possible event
and the skipped cycles are charged to the same stall causes the
:class:`~repro.observe.stalls.StallAccountant` would report. Elision
never changes results (every golden cell is bit-identical either way;
``repro.check.elision`` verifies each elided cycle is
schedulable-empty on the reference core). ``REPRO_VECTOR_ELIDE=0``
forces the single-step walk for A/B debugging — see
:func:`backend_capabilities`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

#: Environment variable consulted when neither an explicit argument nor
#: ``config.backend`` selects a backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Environment knob for the vector core's event-horizon elision:
#: unset/``"1"`` elides provably-idle cycles, ``"0"`` forces the
#: single-step walk (CI runs the golden-parity suite under both).
ELIDE_ENV = "REPRO_VECTOR_ELIDE"

DEFAULT_BACKEND = "reference"

#: name -> factory(config, trace, dep_info=None, observer=None) -> runner
#: where the runner exposes ``.run(plan) -> SimResult``.
_REGISTRY: Dict[str, Callable] = {}


class UnknownBackendError(ValueError):
    """Requested backend name is not registered."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown simulator backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
        self.name = name


def register_backend(name: str, factory: Callable) -> None:
    """Register *factory* under *name* (last registration wins)."""
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> Callable:
    """Factory for *name*, raising :class:`UnknownBackendError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name) from None


def resolve_backend(
    explicit: Optional[str] = None, config=None
) -> str:
    """Resolve the effective backend name.

    Precedence: *explicit* > ``config.backend`` > ``$REPRO_BACKEND`` >
    ``"reference"``. The resolved name is validated against the
    registry so typos fail fast at selection time, not deep inside a
    sweep.
    """
    name = explicit
    if not name and config is not None:
        name = getattr(config, "backend", None)
    if not name:
        name = os.environ.get(BACKEND_ENV) or None
    if not name:
        name = DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise UnknownBackendError(name)
    return name


def elision_enabled() -> bool:
    """The vector core's default elision setting, from :data:`ELIDE_ENV`.

    Unset or ``"1"`` means on and ``"0"`` means off. Any other value
    raises :class:`ValueError` naming the variable, so a typo such as
    ``false`` cannot silently leave elision on.
    """
    value = os.environ.get(ELIDE_ENV)
    if value is None or value == "1":
        return True
    if value == "0":
        return False
    raise ValueError(
        f"{ELIDE_ENV} must be unset, '1' or '0', got {value!r}"
    )


def backend_capabilities(name: str) -> Dict[str, object]:
    """Feature flags for a registered backend (raises on unknown).

    Keys:

    ``objects``
        Keeps per-instruction objects — required for observability,
        timelines, telemetry and split-window configs.
    ``compiled_columns``
        Consumes packed ``CompiledTrace`` columns without ``DynInst``
        materialization.
    ``cycle_elision``
        Supports event-horizon cycle elision, with the current
        effective setting in ``elision_enabled`` (read from
        :data:`ELIDE_ENV` at call time) and the knob name in
        ``elision_env``.
    """
    if name not in _REGISTRY:
        raise UnknownBackendError(name)
    if name == "vector":
        return {
            "objects": False,
            "compiled_columns": True,
            "cycle_elision": True,
            "elision_enabled": elision_enabled(),
            "elision_env": ELIDE_ENV,
        }
    if name == "eventsim":
        return {
            "objects": True,
            "compiled_columns": False,
            "cycle_elision": False,
            "event_driven": True,
            "sync_fabric": True,
        }
    return {
        "objects": True,
        "compiled_columns": False,
        "cycle_elision": False,
    }


def vector_limitation(
    config, observer=None, timeline=None, telemetry=None
) -> Optional[str]:
    """Why this run cannot use the vector fast path (None if it can).

    The vector core keeps no per-instruction objects, so anything that
    wants to inspect them — the observability bus, pipeview timelines,
    utilisation telemetry — or a split-window configuration (modelled
    only by the ``eventsim`` machine) keeps it off the vector core.
    """
    if observer is not None or getattr(config, "observe", False):
        return "observability requires the reference backend"
    if timeline is not None:
        return "timeline recording requires the reference backend"
    if telemetry is not None:
        return "telemetry sampling requires the reference backend"
    split = getattr(config, "split", None)
    if split is not None and getattr(split, "enabled", False):
        return "split-window configs require the reference backend"
    return None


def eventsim_limitation(config) -> Optional[str]:
    """Why this run cannot use the event-driven machine (None if it can).

    The event engine models only split-window machines; continuous-
    window configs delegate to ``reference``.
    """
    split = getattr(config, "split", None)
    if split is None or not getattr(split, "enabled", False):
        return "eventsim models split-window configs only"
    return None


# ----------------------------------------------------------------------
# built-in backends (lazy imports: processor.py imports this module)
# ----------------------------------------------------------------------

def _reference_factory(
    config, trace, dep_info=None, observer=None, **kwargs
):
    from repro.core.processor import Processor

    return Processor(
        config, trace, dep_info, observer=observer, **kwargs
    )


def _vector_factory(
    config, trace, dep_info=None, observer=None, **kwargs
):
    reason = vector_limitation(
        config,
        observer=observer,
        timeline=kwargs.get("timeline"),
        telemetry=kwargs.get("telemetry"),
    )
    if reason is not None:
        return _reference_factory(
            config, trace, dep_info, observer=observer, **kwargs
        )
    from repro.core.vector import VectorProcessor

    return VectorProcessor(config, trace, dep_info)


def _eventsim_factory(
    config, trace, dep_info=None, observer=None, **kwargs
):
    if eventsim_limitation(config) is not None:
        return _reference_factory(
            config, trace, dep_info, observer=observer, **kwargs
        )
    from repro.eventsim.splitwindow import EventSplitWindowProcessor

    return EventSplitWindowProcessor(config, trace, dep_info)


register_backend("reference", _reference_factory)
register_backend("vector", _vector_factory)
register_backend("eventsim", _eventsim_factory)
