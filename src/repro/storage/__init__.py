"""Storage substrate: slotted pages, page files, buffer manager, devices."""

from repro.storage.buffer import BufferManager, Frame
from repro.storage.faults import (
    FAULT_KINDS,
    CorruptingPageFile,
    FaultAction,
    FaultEventLog,
    FaultPlan,
    FaultSpec,
    FaultyPageFile,
    FlakyPageFile,
    RecoveringLoader,
    RetryPolicy,
    corrupt_page_bytes,
)
from repro.storage.layout import GraphStore
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PageBlock,
    PageRecord,
    SlottedPage,
    record_capacity,
)
from repro.storage.pagefile import PageFile
from repro.storage.ssd import SyncDevice, ThreadedSSD
from repro.storage.writer import AsyncFile

__all__ = [
    "AsyncFile",
    "DEFAULT_PAGE_SIZE",
    "FAULT_KINDS",
    "BufferManager",
    "CorruptingPageFile",
    "FaultAction",
    "FaultEventLog",
    "FaultPlan",
    "FaultSpec",
    "FaultyPageFile",
    "FlakyPageFile",
    "Frame",
    "GraphStore",
    "PageBlock",
    "PageFile",
    "PageRecord",
    "RecoveringLoader",
    "RetryPolicy",
    "SlottedPage",
    "SyncDevice",
    "ThreadedSSD",
    "corrupt_page_bytes",
    "record_capacity",
]
