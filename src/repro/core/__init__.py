"""The OPT framework: driver, plugins, engines, output writer."""

from repro.core.context import ChunkContext
from repro.core.engine import (
    PLUGINS,
    buffer_pages_for_ratio,
    ideal_elapsed,
    make_store,
    replay,
    resolve_plugin,
    triangulate_disk,
)
from repro.core.framework import OPTConfig, run_opt
from repro.core.output import NestedOutputWriter
from repro.core.result_store import (
    GroupCaptureSink,
    RunCheckpoint,
    read_nested_groups,
)
from repro.core.plugins import (
    EdgeIteratorPlugin,
    IteratorPlugin,
    MGTPlugin,
    VertexIteratorPlugin,
)
from repro.core.threaded import triangulate_threaded
from repro.parallel.engine import triangulate_parallel

__all__ = [
    "PLUGINS",
    "ChunkContext",
    "EdgeIteratorPlugin",
    "GroupCaptureSink",
    "IteratorPlugin",
    "MGTPlugin",
    "NestedOutputWriter",
    "OPTConfig",
    "RunCheckpoint",
    "read_nested_groups",
    "VertexIteratorPlugin",
    "triangulate_parallel",
    "triangulate_threaded",
    "buffer_pages_for_ratio",
    "ideal_elapsed",
    "make_store",
    "replay",
    "resolve_plugin",
    "run_opt",
    "triangulate_disk",
]
