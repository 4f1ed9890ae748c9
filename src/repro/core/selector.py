"""Enumerated sub-job selection: which candidate outputs to *keep* (§5).

The paper stores everything in its experiments ("we store the outputs
of all candidate jobs and sub-jobs") but proposes Rules 1–2 as keep
criteria; both policies ship here.

* Rule 1 — keep only if the output is smaller than the input (reduces
  ``T_load`` in Equation 2).
* Rule 2 — keep only if the cost model predicts workflows reusing the
  output run faster than recomputing it (Equation 1/2 check: loading
  the stored result must beat executing the producing job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.repository import RepositoryEntry
from repro.costmodel.model import CostModel, estimate_standalone_time

@dataclass
class KeepDecision:
    keep: bool
    reason: str


class Selector:
    """Decides whether a freshly produced output enters the repository."""

    name = "abstract"

    def decide(self, entry: RepositoryEntry) -> KeepDecision:
        raise NotImplementedError


class KeepAllSelector(Selector):
    """The paper's experimental configuration: store everything."""

    name = "keep-all"

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model  # unused; every selector takes one

    def decide(self, entry: RepositoryEntry) -> KeepDecision:
        return KeepDecision(True, "keep-all policy")


class RuleBasedSelector(Selector):
    """Rules 1 and 2 of §5."""

    name = "rules"

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()

    def decide(self, entry: RepositoryEntry) -> KeepDecision:
        stats = entry.stats
        # Rule 1: output must be smaller than input.
        if stats.output_bytes >= stats.input_bytes:
            return KeepDecision(
                False,
                f"rule 1: output ({stats.output_bytes} B) is not smaller "
                f"than input ({stats.input_bytes} B)",
            )
        # Rule 2: reusing must be faster than recomputing.  Reuse cost
        # is a job that loads the stored output; recompute cost is the
        # producing job's estimated standalone time.
        reuse_time = estimate_standalone_time(
            self.cost_model,
            input_bytes=stats.output_bytes,
            output_bytes=0,
            records=stats.output_records,
        )
        recompute_time = stats.exec_time_s or estimate_standalone_time(
            self.cost_model,
            input_bytes=stats.input_bytes,
            output_bytes=stats.output_bytes,
            records=stats.output_records,
        )
        if reuse_time >= recompute_time:
            return KeepDecision(
                False,
                f"rule 2: reuse ({reuse_time:.1f}s) would not beat "
                f"recompute ({recompute_time:.1f}s)",
            )
        return KeepDecision(
            True,
            f"keeps {stats.input_bytes - stats.output_bytes} B of input "
            f"off future loads; saves ~{recompute_time - reuse_time:.1f}s",
        )


#: selector name -> class, built with the session's cost model so
#: Rule-2 estimates agree with the rest of the session
SELECTORS = {"keep-all": KeepAllSelector, "rules": RuleBasedSelector}
