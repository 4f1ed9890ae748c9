"""Abstract syntax tree for the Pig Latin subset.

Pure syntax — no name resolution or typing happens here; the logical
plan builder (``pig.logical.builder``) resolves field references
against alias schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# -- expressions -----------------------------------------------------------------


class AstExpr:
    """Base class for syntactic expressions."""


@dataclass(frozen=True)
class ANumber(AstExpr):
    """A numeric literal.  ``1`` and ``1.0`` are equal in Python but
    not the same constant, so the type takes part in equality (and in
    the compile memo's key)."""

    value: object  # int or float
    kind: type = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", type(self.value))


@dataclass(frozen=True)
class AString(AstExpr):
    value: str


@dataclass(frozen=True)
class AName(AstExpr):
    """A bare identifier reference (field or relation name)."""

    name: str


@dataclass(frozen=True)
class ADollar(AstExpr):
    """Positional field reference ``$n``."""

    index: int


@dataclass(frozen=True)
class ADot(AstExpr):
    """Dotted reference ``base.field`` (bag or disambiguated field)."""

    base: AstExpr
    field: str  # field name, or "$n" positional text


@dataclass(frozen=True)
class AStar(AstExpr):
    """``*`` — all fields."""


@dataclass(frozen=True)
class ABinary(AstExpr):
    op: str
    left: AstExpr
    right: AstExpr


@dataclass(frozen=True)
class AUnary(AstExpr):
    op: str  # "not" | "neg" | "isnull" | "notnull"
    operand: AstExpr


@dataclass(frozen=True)
class ACall(AstExpr):
    """Function call — scalar builtin or aggregate, decided at build."""

    name: str
    args: Tuple[AstExpr, ...]


# -- statements -------------------------------------------------------------------


class AstStatement:
    """Base class for statements."""


@dataclass(frozen=True)
class FieldDef:
    name: str
    type_name: Optional[str] = None


@dataclass(frozen=True)
class LoadStmt(AstStatement):
    alias: str
    path: str
    schema: Tuple[FieldDef, ...] = ()
    loader: str = "PigStorage"


@dataclass(frozen=True)
class GenItem:
    """One FOREACH ... GENERATE item."""

    expr: AstExpr
    alias: Optional[str] = None
    flatten: bool = False


@dataclass(frozen=True)
class ForeachStmt(AstStatement):
    alias: str
    input_alias: str
    items: Tuple[GenItem, ...]


@dataclass(frozen=True)
class FilterStmt(AstStatement):
    alias: str
    input_alias: str
    predicate: AstExpr


@dataclass(frozen=True)
class JoinInput:
    alias: str
    keys: Tuple[AstExpr, ...]
    outer: bool = False  # this side is preserved (LEFT/RIGHT/FULL)


@dataclass(frozen=True)
class JoinStmt(AstStatement):
    alias: str
    inputs: Tuple[JoinInput, ...]
    strategy: str = "shuffle"  # "shuffle" | "replicated"


@dataclass(frozen=True)
class GroupStmt(AstStatement):
    """GROUP (single input) and COGROUP (multiple inputs)."""

    alias: str
    inputs: Tuple[str, ...]
    keys_per_input: Tuple[Tuple[AstExpr, ...], ...]
    group_all: bool = False


@dataclass(frozen=True)
class DistinctStmt(AstStatement):
    alias: str
    input_alias: str


@dataclass(frozen=True)
class UnionStmt(AstStatement):
    alias: str
    inputs: Tuple[str, ...]


@dataclass(frozen=True)
class OrderItem:
    expr: AstExpr
    ascending: bool = True


@dataclass(frozen=True)
class OrderStmt(AstStatement):
    alias: str
    input_alias: str
    items: Tuple[OrderItem, ...]


@dataclass(frozen=True)
class LimitStmt(AstStatement):
    alias: str
    input_alias: str
    n: int


@dataclass(frozen=True)
class SampleStmt(AstStatement):
    alias: str
    input_alias: str
    fraction: float


@dataclass(frozen=True)
class SplitBranch:
    alias: str
    condition: AstExpr


@dataclass(frozen=True)
class SplitStmt(AstStatement):
    input_alias: str
    branches: Tuple[SplitBranch, ...]


@dataclass(frozen=True)
class StoreStmt(AstStatement):
    input_alias: str
    path: str
    storer: str = "PigStorage"


@dataclass
class Script:
    """A parsed Pig Latin script: an ordered list of statements."""

    statements: List[AstStatement] = field(default_factory=list)

    def stores(self) -> List[StoreStmt]:
        return [s for s in self.statements if isinstance(s, StoreStmt)]
