"""Which machine simulates a run.

The config picks the machine; the backend only picks between two
bit-identical builds of the continuous-window core:

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

Split-window configs (Section 3.7) run on the split-window machine
(:class:`repro.eventsim.splitwindow.EventSplitWindowProcessor`)
whatever backend was requested. :func:`machine_for` is the one rule;
:func:`repro.core.simulate` and
:func:`repro.experiments.runner.run_benchmark` both follow it.

Backend precedence (first non-empty wins)::

    explicit argument > $REPRO_BACKEND > "reference"

The vector core runs with **event-horizon cycle elision** by default:
when a cycle provably cannot schedule, complete, fetch or commit
anything, the clock jumps straight to the next possible event and the
skipped cycles are charged to the same stall causes the
:class:`~repro.observe.stalls.StallAccountant` would report. Elision
never changes results (every golden cell is bit-identical either way;
``repro.check.elision`` verifies each elided cycle is
schedulable-empty on the reference core). ``REPRO_VECTOR_ELIDE=0``
forces the single-step walk for A/B debugging — see
:func:`elision_enabled`.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable consulted when no explicit argument selects a
#: backend.
BACKEND_ENV = "REPRO_BACKEND"

#: Environment knob for the vector core's event-horizon elision:
#: unset/``"1"`` elides provably-idle cycles, ``"0"`` forces the
#: single-step walk (CI runs the golden-parity suite under both).
ELIDE_ENV = "REPRO_VECTOR_ELIDE"

DEFAULT_BACKEND = "reference"

#: Every selectable backend name.
BACKENDS = ("reference", "vector")


class UnknownBackendError(ValueError):
    """Requested backend name is not one of :data:`BACKENDS`."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown simulator backend {name!r}; "
            f"available: {', '.join(BACKENDS)}"
        )
        self.name = name


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The effective backend name.

    Precedence: *explicit* > ``$REPRO_BACKEND`` > ``"reference"``.
    The name is validated so typos fail fast at selection time, not
    deep inside a sweep.
    """
    name = explicit or os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    if name not in BACKENDS:
        raise UnknownBackendError(name)
    return name


def machine_for(config, backend: Optional[str] = None, *,
                objects: bool = False) -> str:
    """The machine that simulates *config*: ``"eventsim"``,
    ``"vector"`` or ``"reference"``.

    Every split-window config runs on ``"eventsim"``. Otherwise the
    resolved *backend* is used, except that the vector core keeps no
    per-instruction objects: a run that needs them (``config.observe``,
    or *objects* for an attached observer, timeline or telemetry
    sampler) runs on ``"reference"``. The backend is resolved first in
    every case, so a typo fails even for split configs.
    """
    name = resolve_backend(backend)
    if config.split.enabled:
        return "eventsim"
    if name == "vector" and not (objects or config.observe):
        return "vector"
    return "reference"


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
