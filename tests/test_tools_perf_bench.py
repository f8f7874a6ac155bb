"""Tests for the cell-throughput benchmark driver's argument checks."""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).parent.parent / "tools" / "perf_bench.py"
spec = importlib.util.spec_from_file_location("perf_bench", _TOOL)
perf_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_bench)


@pytest.mark.parametrize("extra", [[], ["--backend", "reference"]])
def test_kernel_times_without_vector_backend_is_an_error(extra, capsys):
    # The phase timers exist only in the vector core; silently dropping
    # the flag would yield a record without the breakdown it asked for.
    with pytest.raises(SystemExit) as exc:
        perf_bench.main(["--kernel-times"] + extra)
    assert exc.value.code == 2
    assert "--kernel-times requires --backend vector" in capsys.readouterr().err
