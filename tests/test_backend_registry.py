"""Machine dispatch: backend precedence, validation, the one rule.

:mod:`repro.core.backend` is how every entry point — ``simulate``,
``run_benchmark``, the parallel runner, the CLI — picks a simulator.
These tests pin its contract: unknown names (``eventsim`` included)
fail fast with the available choices listed, precedence is
``explicit > $REPRO_BACKEND > default``, and :func:`machine_for` sends
split configs to the split-window machine and runs needing
per-instruction objects on the reference core.
"""

import pytest

from repro.config.presets import continuous_window_128
from repro.config.processor import SchedulingModel, SpeculationPolicy
from repro.core.backend import (
    BACKEND_ENV,
    BACKENDS,
    DEFAULT_BACKEND,
    ELIDE_ENV,
    UnknownBackendError,
    elision_enabled,
    machine_for,
    resolve_backend,
)


def _config(**kwargs):
    import dataclasses

    config = continuous_window_128(
        SchedulingModel.NAS, SpeculationPolicy.NAIVE
    )
    return dataclasses.replace(config, **kwargs) if kwargs else config


def test_builtin_backends_registered():
    assert BACKENDS == ("reference", "vector")
    assert DEFAULT_BACKEND == "reference"


def test_unknown_backend_raises_with_choices():
    with pytest.raises(UnknownBackendError) as excinfo:
        resolve_backend("typo")
    assert "typo" in str(excinfo.value)
    for name in BACKENDS:
        assert name in str(excinfo.value)


def test_resolve_rejects_unknown_names_everywhere(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    for name in ("typo", "eventsim"):
        with pytest.raises(UnknownBackendError):
            resolve_backend(name)
        with pytest.raises(UnknownBackendError):
            machine_for(_split_config(), name)
    monkeypatch.setenv(BACKEND_ENV, "typo")
    with pytest.raises(UnknownBackendError):
        resolve_backend()


def test_resolution_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend() == DEFAULT_BACKEND

    monkeypatch.setenv(BACKEND_ENV, "vector")
    assert resolve_backend() == "vector"
    # An explicit argument beats the environment.
    assert resolve_backend("reference") == "reference"


def test_empty_env_var_falls_through(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "")
    assert resolve_backend() == DEFAULT_BACKEND


def _split_config():
    import dataclasses

    plain = _config()
    return dataclasses.replace(
        plain, split=dataclasses.replace(plain.split, enabled=True)
    )


_MACHINE_CASES = {
    # case: (config factory, backend, objects, machine)
    "reference": (_config, "reference", False, "reference"),
    "vector": (_config, "vector", False, "vector"),
    "vector-objects": (_config, "vector", True, "reference"),
    "vector-observe": (
        lambda: _config(observe=True), "vector", False, "reference"
    ),
    "split-reference": (_split_config, "reference", False, "eventsim"),
    "split-vector": (_split_config, "vector", False, "eventsim"),
    "split-objects": (_split_config, "vector", True, "eventsim"),
}


@pytest.mark.parametrize("case", sorted(_MACHINE_CASES))
def test_machine_for(case):
    make_config, backend, objects, machine = _MACHINE_CASES[case]
    assert machine_for(make_config(), backend, objects=objects) == machine


def test_machine_for_follows_environment(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "vector")
    assert machine_for(_config()) == "vector"
    assert machine_for(_config(), "reference") == "reference"
    monkeypatch.delenv(BACKEND_ENV)
    assert machine_for(_config()) == "reference"


@pytest.mark.parametrize(
    "value, expected",
    [(None, True), ("1", True), ("0", False),
     ("false", None), ("off", None), ("", None), ("2", None)],
)
def test_elision_env_parsing(monkeypatch, value, expected):
    from repro.core.vector import VectorProcessor
    from repro.workloads.catalog import kernel_trace

    if value is None:
        monkeypatch.delenv(ELIDE_ENV, raising=False)
    else:
        monkeypatch.setenv(ELIDE_ENV, value)
    if expected is None:
        # Both readers share one parser, so a bad value fails loudly
        # in each of them instead of silently leaving elision on.
        with pytest.raises(ValueError, match=ELIDE_ENV):
            elision_enabled()
        with pytest.raises(ValueError, match=ELIDE_ENV):
            VectorProcessor(_config(), kernel_trace("memcopy", words=64))
    else:
        assert elision_enabled() is expected


def test_elide_env_controls_vector_processor(monkeypatch):
    from repro.core.vector import VectorProcessor
    from repro.workloads.catalog import kernel_trace

    trace = kernel_trace("memcopy", words=64)
    monkeypatch.setenv(ELIDE_ENV, "0")
    assert not VectorProcessor(_config(), trace)._elide
    monkeypatch.delenv(ELIDE_ENV, raising=False)
    assert VectorProcessor(_config(), trace)._elide
    # An explicit argument always wins over the environment.
    monkeypatch.setenv(ELIDE_ENV, "0")
    assert VectorProcessor(_config(), trace, elide=True)._elide


def test_run_benchmark_records_producing_backend(monkeypatch):
    from repro.experiments.runner import (
        ExperimentSettings, clear_results, run_benchmark,
    )

    monkeypatch.delenv(BACKEND_ENV, raising=False)
    settings = ExperimentSettings(
        timing_instructions=600, warmup_instructions=400
    )
    clear_results()
    try:
        ref = run_benchmark("132.ijpeg", _config(), settings)
        assert ref.extra["backend"] == "reference"
        clear_results()
        vec = run_benchmark(
            "132.ijpeg", _config(), settings, backend="vector"
        )
        assert vec.extra["backend"] == "vector"
        assert vec.cycles == ref.cycles
        assert vec.committed == ref.committed
        # Cache keys ignore the backend: a cached result satisfies
        # either request without re-simulation.
        again = run_benchmark(
            "132.ijpeg", _config(), settings, backend="reference"
        )
        assert again is vec
    finally:
        clear_results()
