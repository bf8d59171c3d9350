"""Disk-based baseline methods the paper compares against."""

from repro.baselines.chu_cheng import cc_ds, cc_seq
from repro.baselines.graphchi import graphchi_tri

__all__ = ["cc_ds", "cc_seq", "graphchi_tri"]
