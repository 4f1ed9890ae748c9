"""Physical operators — the vocabulary ReStore matches over.

These mirror Pig's physical layer: ``POLoad``/``POStore`` at job
boundaries, pipelined row operators (``POForEach``, ``POFilter``,
``POUnion``, ``POSplit``, ``POLimit``) and the shuffle triple
``POLocalRearrange`` → ``POGlobalRearrange`` → ``POPackage`` that
implements JOIN / GROUP / COGROUP / DISTINCT / ORDER.

Every operator exposes :meth:`signature` — a hashable description of
*what the operator computes*, deliberately excluding identity details
(operator ids, output paths) so that equal computations in different
queries compare equal.  ReStore's operator-equivalence test (paper §3)
is: same signature and pairwise-equivalent inputs.

:meth:`signature_hash` digests the signature into a short hex string;
plans combine these Merkle-style (operator hash + ordered input
hashes) into structural fingerprints that the repository indexes.

Operators are values: parameters and ``schema`` are fixed by the
constructor, so the digest is computed once and plans share operators.
What reads like an edit — pointing a Load at another path — is a
structural one: a new operator swapped into the plan
(:meth:`~repro.pig.physical.plan.PhysicalPlan.replace`).  A plan holds
each op id once, so the delta rewrite, which splices a stored plan's
operators into a job that may hold the same ones, splices :meth:`copy`
twins (:meth:`~repro.core.rewriter.PlanRewriter.rewrite_delta`).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Optional, Sequence, Tuple

from repro.exceptions import PlanError
from repro.relational.expressions import Expression, expression_from_dict
from repro.relational.schema import Schema

_OP_COUNTER = itertools.count(1)


class PhysicalOperator:
    """Base class for all physical operators.

    ``op_id`` is unique per process and only identifies the node inside
    a plan; it never participates in equivalence.  ``schema`` annotates
    the rows this operator emits.
    """

    #: short name used in plan rendering and serialized form
    kind: str = "abstract"

    def __init__(self, schema: Optional[Schema] = None):
        self.op_id: int = next(_OP_COUNTER)
        self.schema: Optional[Schema] = schema
        self._sig_hash: Optional[str] = None

    # -- equivalence ------------------------------------------------------------

    def signature(self) -> tuple:
        """Hashable description of the computation (no identity)."""
        raise NotImplementedError

    def signature_hash(self) -> str:
        """Short stable digest of :meth:`signature`, computed once."""
        if self._sig_hash is None:
            payload = repr(self.signature()).encode("utf-8")
            self._sig_hash = hashlib.blake2b(
                payload, digest_size=12
            ).hexdigest()
        return self._sig_hash

    # -- serialization -----------------------------------------------------------

    def params_dict(self) -> dict:
        """Operator-specific parameters for persistence."""
        return {}

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "params": self.params_dict()}
        if self.schema is not None:
            out["schema"] = self.schema.to_dict()
        return out

    @staticmethod
    def from_dict(data: dict) -> "PhysicalOperator":
        kind = data["kind"]
        cls = _OPERATOR_KINDS.get(kind)
        if cls is None:
            raise PlanError(f"unknown physical operator kind {kind!r}")
        schema = Schema.from_dict(data["schema"]) if "schema" in data else None
        return cls._from_params(data.get("params", {}), schema)

    @classmethod
    def _from_params(
        cls, params: dict, schema: Optional[Schema]
    ) -> "PhysicalOperator":
        return cls(**params, schema=schema)

    # -- misc ----------------------------------------------------------------------

    def copy(self) -> "PhysicalOperator":
        """A fresh operator (new op_id) computing the same thing: a
        shallow copy sharing the parameter values and the signature
        digest, for a splice into a plan that may hold *self*."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.op_id = next(_OP_COUNTER)
        return twin

    def describe(self) -> str:
        return f"{self.kind}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.op_id} {self.describe()}>"


class POLoad(PhysicalOperator):
    """Read a DFS file and emit typed rows.

    Two loads are equivalent when they read the same path with the
    same loader and field layout — the paper's "inputs ... from the
    same data sets" condition.
    """

    kind = "load"

    def __init__(self, path: str, schema: Schema, loader: str = "PigStorage"):
        super().__init__(schema)
        self.path = path
        self.loader = loader

    def signature(self) -> tuple:
        names_types = tuple(
            (f.name, f.dtype.value) for f in (self.schema or Schema())
        )
        return ("load", self.path, self.loader, names_types)

    def params_dict(self) -> dict:
        return {"path": self.path, "loader": self.loader}

    @classmethod
    def _from_params(cls, params: dict, schema: Optional[Schema]) -> "POLoad":
        loader = params.get("loader", "PigStorage")
        return cls(params["path"], schema or Schema(), loader)

    def describe(self) -> str:
        return f"load {self.path!r}"


class POStore(PhysicalOperator):
    """Write incoming rows to a DFS file.

    The output *path* is excluded from the signature: a stored result
    is the same computation wherever it lands.  ``side`` marks stores
    injected by ReStore's sub-job enumerator (vs. the job's primary
    output store).
    """

    kind = "store"

    def __init__(self, path: str, schema: Optional[Schema] = None, side: bool = False):
        super().__init__(schema)
        self.path = path
        self.side = side

    def signature(self) -> tuple:
        return ("store",)

    def params_dict(self) -> dict:
        return {"path": self.path, "side": self.side}

    @classmethod
    def _from_params(cls, params: dict, schema: Optional[Schema]) -> "POStore":
        return cls(params["path"], schema, side=params.get("side", False))

    def describe(self) -> str:
        tag = " (side)" if self.side else ""
        return f"store {self.path!r}{tag}"


class POForEach(PhysicalOperator):
    """Pig's FOREACH ... GENERATE: projection / computed fields / flatten.

    ``exprs[i]`` produces output field *i*; when ``flattens[i]`` is
    true and the value is a bag, its tuples are expanded (cross product
    across multiple flattened bags — this is how JOIN results are
    materialized after POPackage).
    """

    kind = "foreach"

    def __init__(
        self,
        exprs: Sequence[Expression],
        flattens: Optional[Sequence[bool]] = None,
        names: Optional[Sequence[str]] = None,
        schema: Optional[Schema] = None,
    ):
        super().__init__(schema)
        self.exprs: Tuple[Expression, ...] = tuple(exprs)
        self.flattens: Tuple[bool, ...] = tuple(
            flattens if flattens is not None else [False] * len(self.exprs)
        )
        self.names: Tuple[str, ...] = tuple(
            names if names is not None else [f"f{i}" for i in range(len(self.exprs))]
        )
        if len(self.flattens) != len(self.exprs):
            raise PlanError("foreach: flattens length must match exprs")

    def signature(self) -> tuple:
        return (
            "foreach",
            tuple(e.fingerprint() for e in self.exprs),
            self.flattens,
        )

    def params_dict(self) -> dict:
        return {
            "exprs": [e.to_dict() for e in self.exprs],
            "flattens": list(self.flattens),
            "names": list(self.names),
        }

    @classmethod
    def _from_params(cls, params: dict, schema: Optional[Schema]) -> "POForEach":
        return cls(
            [expression_from_dict(e) for e in params["exprs"]],
            params.get("flattens"),
            params.get("names"),
            schema,
        )

    def describe(self) -> str:
        return f"foreach gen {len(self.exprs)} fields"


class POFilter(PhysicalOperator):
    """Pig's FILTER ... BY: drop rows whose predicate is not true."""

    kind = "filter"

    def __init__(self, predicate: Expression, schema: Optional[Schema] = None):
        super().__init__(schema)
        self.predicate = predicate

    def signature(self) -> tuple:
        return ("filter", self.predicate.fingerprint())

    def params_dict(self) -> dict:
        return {"predicate": self.predicate.to_dict()}

    @classmethod
    def _from_params(cls, params: dict, schema: Optional[Schema]) -> "POFilter":
        return cls(expression_from_dict(params["predicate"]), schema)

    def describe(self) -> str:
        return "filter"


class POLocalRearrange(PhysicalOperator):
    """Map-side key extraction feeding the shuffle.

    ``branch`` tags which input of the downstream POPackage the rows
    belong to (join/cogroup input index).
    """

    kind = "lrearrange"

    def __init__(
        self,
        key_exprs: Sequence[Expression],
        branch: int = 0,
        schema: Optional[Schema] = None,
    ):
        super().__init__(schema)
        self.key_exprs: Tuple[Expression, ...] = tuple(key_exprs)
        self.branch = branch

    def signature(self) -> tuple:
        return (
            "lrearrange",
            tuple(e.fingerprint() for e in self.key_exprs),
            self.branch,
        )

    def params_dict(self) -> dict:
        return {
            "key_exprs": [e.to_dict() for e in self.key_exprs],
            "branch": self.branch,
        }

    @classmethod
    def _from_params(
        cls, params: dict, schema: Optional[Schema]
    ) -> "POLocalRearrange":
        return cls(
            [expression_from_dict(e) for e in params["key_exprs"]],
            params.get("branch", 0),
            schema,
        )

    def describe(self) -> str:
        return f"lrearrange branch={self.branch}"


class POGlobalRearrange(PhysicalOperator):
    """The shuffle marker — the map/reduce boundary of the job.

    A job plan contains at most one; the MR compiler cuts plans so
    this invariant holds (one shuffle per MapReduce job).
    """

    kind = "grearrange"

    def __init__(self, n_inputs: int = 1, schema: Optional[Schema] = None):
        super().__init__(schema)
        self.n_inputs = n_inputs

    def signature(self) -> tuple:
        return ("grearrange", self.n_inputs)

    def params_dict(self) -> dict:
        return {"n_inputs": self.n_inputs}

    def describe(self) -> str:
        return f"grearrange n={self.n_inputs}"


class POPackage(PhysicalOperator):
    """Reduce-side regrouping of shuffled rows.

    Modes:

    * ``group``    — emit ``(key, Bag(rows))`` for the single input;
    * ``cogroup``  — emit ``(key, Bag_0, ..., Bag_{n-1})``;
    * ``join``     — like cogroup but keys missing from any non-outer
      input are dropped (inner join); a following POForEach flattens;
    * ``distinct`` — emit each distinct row once (key = whole row);
    * ``sort``     — emit rows in key order (ORDER BY).
    """

    kind = "package"

    MODES = ("group", "cogroup", "join", "distinct", "sort")

    def __init__(
        self,
        mode: str,
        n_inputs: int = 1,
        outer_flags: Optional[Sequence[bool]] = None,
        schema: Optional[Schema] = None,
    ):
        super().__init__(schema)
        if mode not in self.MODES:
            raise PlanError(f"unknown package mode {mode!r}")
        self.mode = mode
        self.n_inputs = n_inputs
        self.outer_flags: Tuple[bool, ...] = tuple(
            outer_flags if outer_flags is not None else [False] * n_inputs
        )

    def signature(self) -> tuple:
        return ("package", self.mode, self.n_inputs, self.outer_flags)

    def params_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_inputs": self.n_inputs,
            "outer_flags": list(self.outer_flags),
        }

    def describe(self) -> str:
        return f"package {self.mode} n={self.n_inputs}"


class POFRJoin(PhysicalOperator):
    """Fragment-replicate (map-side) join — Pig's ``USING 'replicated'``.

    The second input is small enough to replicate to every mapper and
    hold in memory; the first input streams against its hash table, so
    the job needs no shuffle at all.  An extension beyond the paper's
    evaluation queries (which all use the shuffle join), included
    because real PigMix L2 runs replicated.
    """

    kind = "frjoin"

    def __init__(
        self,
        key_exprs_per_input: Sequence[Sequence["Expression"]],
        schema: Optional[Schema] = None,
    ):
        super().__init__(schema)
        self.key_exprs_per_input: Tuple[Tuple["Expression", ...], ...] = tuple(
            tuple(k) for k in key_exprs_per_input
        )
        if len(self.key_exprs_per_input) != 2:
            raise PlanError("frjoin takes exactly two inputs")

    def signature(self) -> tuple:
        return (
            "frjoin",
            tuple(
                tuple(e.fingerprint() for e in exprs)
                for exprs in self.key_exprs_per_input
            ),
        )

    def params_dict(self) -> dict:
        return {
            "key_exprs_per_input": [
                [e.to_dict() for e in exprs]
                for exprs in self.key_exprs_per_input
            ]
        }

    @classmethod
    def _from_params(cls, params: dict, schema: Optional[Schema]) -> "POFRJoin":
        return cls(
            [
                [expression_from_dict(e) for e in exprs]
                for exprs in params["key_exprs_per_input"]
            ],
            schema,
        )

    def describe(self) -> str:
        return "frjoin (replicated)"


class POSplit(PhysicalOperator):
    """A tee: forwards every row to all successors.

    This is the branching operator the paper injects together with a
    Store to materialize sub-job outputs (§4, Figure 8).
    """

    kind = "split"

    def signature(self) -> tuple:
        return ("split",)

    def describe(self) -> str:
        return "split"


class POUnion(PhysicalOperator):
    """Merge rows from several map branches (bag union, no dedup)."""

    kind = "union"

    def __init__(self, n_inputs: int = 2, schema: Optional[Schema] = None):
        super().__init__(schema)
        self.n_inputs = n_inputs

    def signature(self) -> tuple:
        return ("union", self.n_inputs)

    def params_dict(self) -> dict:
        return {"n_inputs": self.n_inputs}

    def describe(self) -> str:
        return f"union n={self.n_inputs}"


class POLimit(PhysicalOperator):
    """Emit at most *n* rows (applied where it appears in the plan)."""

    kind = "limit"

    def __init__(self, n: int, schema: Optional[Schema] = None):
        super().__init__(schema)
        self.n = n

    def signature(self) -> tuple:
        return ("limit", self.n)

    def params_dict(self) -> dict:
        return {"n": self.n}

    def describe(self) -> str:
        return f"limit {self.n}"


_OPERATOR_KINDS = {
    cls.kind: cls
    for cls in (
        POLoad,
        POStore,
        POForEach,
        POFilter,
        POFRJoin,
        POLocalRearrange,
        POGlobalRearrange,
        POPackage,
        POSplit,
        POUnion,
        POLimit,
    )
}
