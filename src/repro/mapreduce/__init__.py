"""Simulated MapReduce engine (Hadoop-like) and job/workflow model."""

from repro.mapreduce.cluster import ClusterConfig
from repro.mapreduce.job import JobConf, MapReduceJob, Workflow
from repro.mapreduce.runner import HadoopSimulator, JobListener
from repro.mapreduce.shuffle import ShuffleBuffer, sort_key, stable_hash
from repro.mapreduce.stats import (
    JobStats,
    StoreStat,
    TimeBreakdown,
    WorkflowStats,
)

__all__ = [
    "ClusterConfig",
    "HadoopSimulator",
    "JobConf",
    "JobListener",
    "JobStats",
    "MapReduceJob",
    "ShuffleBuffer",
    "StoreStat",
    "TimeBreakdown",
    "Workflow",
    "WorkflowStats",
    "sort_key",
    "stable_hash",
]
