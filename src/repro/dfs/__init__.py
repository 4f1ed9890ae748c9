"""Simulated distributed file system: the HDFS-shaped interface the
job engine calls (paths, sizes, payloads, logical byte counters)."""

from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.namenode import FileStatus, INode, NameNode

__all__ = [
    "DistributedFileSystem",
    "FileStatus",
    "INode",
    "NameNode",
]
