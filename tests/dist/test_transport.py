"""Backend selection: make_executor's three backends, inline defaults."""

import pytest

from repro.dist.transport import Transport
from repro.engine.executors import SerialExecutor, ThreadExecutor, make_executor


class TestMakeExecutor:
    def test_builtin_backends_resolve(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        threads = make_executor("threads", num_workers=2)
        assert isinstance(threads, ThreadExecutor)
        threads.shutdown()

    def test_cluster_is_imported_on_demand(self):
        transport = make_executor("cluster", num_workers=2)
        try:
            assert isinstance(transport, Transport)
            assert type(transport).__name__ == "ClusterExecutor"
            assert transport.num_workers == 2
        finally:
            transport.shutdown()

    @pytest.mark.parametrize("name", ["quantum", "process"])
    def test_unknown_backend_names_the_options(self, name):
        with pytest.raises(ValueError, match="unknown executor backend") as info:
            make_executor(name)
        for option in ("cluster", "serial", "threads"):
            assert option in str(info.value)

    def test_make_executor_still_builds_locals(self):
        ex = make_executor("threads", num_workers=2)
        try:
            assert isinstance(ex, ThreadExecutor)
            assert ex.num_workers == 2
        finally:
            ex.shutdown()

    def test_default_execute_runs_inline(self):
        transport = SerialExecutor()
        sentinel = object()
        task, value = transport.execute(lambda t: (t, 41)[1] + 1, sentinel)
        assert task is sentinel
        assert value == 42

    def test_local_transports_never_lose_map_outputs(self):
        assert SerialExecutor().missing_map_outputs(0) == []
