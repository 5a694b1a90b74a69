"""Variable identifiers and ordered variable sets.

A variable is declared by a bare family name ("x0", "y", "q").  Machinery that
manufactures derived variables (jet coordinates, model coefficients) appends
integer indices, rendered with underscore separators: the jet of "x0" at order
3 prints as "x0_3", the jet of "y" at order 1 as "y_1".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class VarId:
    family: str
    indices: tuple[int, ...] = ()

    @property
    def name(self) -> str:
        return self.family + "".join(f"_{i}" for i in self.indices)

    def derived(self, index: int) -> "VarId":
        """Return the variable with one more index appended (e.g. a jet order)."""
        return VarId(self.family, self.indices + (index,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"VarId({self.name!r})"


def as_varid(v: "VarId | str") -> VarId:
    return v if isinstance(v, VarId) else VarId(v)


class VarSet:
    """Immutable ordered collection of variables.

    Declaration order is the priority order used by monomial orders and the
    column order of every matrix built over the set.
    """

    __slots__ = ("vars", "_pos", "_by_name")

    def __init__(self, variables: Iterable[VarId | str]):
        vs = tuple(as_varid(v) for v in variables)
        pos: dict[VarId, int] = {}
        by_name: dict[str, int] = {}
        for i, v in enumerate(vs):
            if v in pos:
                raise ValueError(f"duplicate variable {v.name}")
            if v.name in by_name:
                raise ValueError(f"duplicate variable name {v.name}")
            pos[v] = i
            by_name[v.name] = i
        self.vars = vs
        self._pos = pos
        self._by_name = by_name

    def __len__(self) -> int:
        return len(self.vars)

    def __iter__(self) -> Iterator[VarId]:
        return iter(self.vars)

    def __contains__(self, v: object) -> bool:
        if isinstance(v, str):
            return v in self._by_name
        return v in self._pos

    def __getitem__(self, i: int) -> VarId:
        return self.vars[i]

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, VarSet) and self.vars == other.vars

    def __hash__(self) -> int:
        return hash(self.vars)

    def __repr__(self) -> str:
        return f"VarSet({', '.join(v.name for v in self.vars)})"

    def position(self, v: VarId | str) -> int:
        """Index of a variable, accepting either a VarId or its name."""
        if isinstance(v, str):
            if v not in self._by_name:
                raise KeyError(f"no variable named {v!r}")
            return self._by_name[v]
        if v not in self._pos:
            raise KeyError(f"variable {v.name} not in this set")
        return self._pos[v]

    def is_prefix_of(self, other: "VarSet") -> bool:
        return self is other or len(self) <= len(other) and other.vars[: len(self)] == self.vars
