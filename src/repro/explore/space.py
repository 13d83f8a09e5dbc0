"""Composable, declarative parameter spaces.

A :class:`ParameterSpace` is a finite set of parameter bindings that
enumerates as columns: one value list per name, row ``i`` of each forming
point ``i`` (plain ``{name: value}`` dicts through ``points()``).  Spaces
compose: axes combine into cartesian products (:func:`product`,
:func:`grid`, or the ``*`` operator), pair up in lockstep
(:func:`zipped`), and narrow through predicates
(:meth:`ParameterSpace.filter`).  The exploration engine groups the rows
by their builder values and builds each group's design once, so a space
never holds designs — only the coordinates that produce them.

Axis and combinator spaces serialize to JSON (the ``space`` block of an
exploration spec); filtered subspaces carry an arbitrary predicate and
are therefore programmatic-only.

Parameter names prefixed ``options.`` address
:class:`~repro.api.result.SimOptions` fields instead of builder
arguments — ``choice("options.frame_rate", [15, 30, 60])`` sweeps the
simulation frame rate over an otherwise fixed design.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import chain, repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.columns import gather
from repro.exceptions import ConfigurationError, SerializationError

#: Parameter prefix addressing a SimOptions field instead of the builder.
OPTIONS_PREFIX = "options."


class ParameterSpace:
    """Base class: a finite set of parameter bindings, enumerated as
    columns (a subclass defines :meth:`columns`, not :meth:`points`)."""

    @property
    def names(self) -> Tuple[str, ...]:
        """The parameter names every enumerated point binds."""
        raise NotImplementedError

    def columns(self) -> List[List[Any]]:
        """One value list per name of :attr:`names`, in deterministic
        order: row ``i`` of every column is point ``i``."""
        raise NotImplementedError

    def points(self) -> Iterator[Dict[str, Any]]:
        """The bindings as ``{name: value}`` dicts, keyed in
        :attr:`names` order (the rows of :meth:`columns`)."""
        names = self.names
        for row in zip(*self.columns()):
            yield dict(zip(names, row))

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return self.points()

    def __len__(self) -> int:
        raise NotImplementedError

    def __mul__(self, other: "ParameterSpace") -> "ProductSpace":
        """``a * b`` is the cartesian product of two spaces."""
        return product(self, other)

    def filter(self, predicate: Callable[[Dict[str, Any]], bool]
               ) -> "FilteredSpace":
        """The subspace of points where ``predicate(params)`` holds."""
        return FilteredSpace(self, predicate)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (the ``space`` block of a spec file)."""
        raise SerializationError(
            f"{type(self).__name__} has no JSON form")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(names={list(self.names)}, "
                f"points={len(self)})")


class SpaceColumns:
    """Enumerated columns of a space, read by row index.

    ``names[i]`` names ``columns[i]``; row ``r`` of every column is
    point ``r``.  The explore engine splits them once into ``builder``
    and ``options`` columns (``options.`` prefix stripped), and the
    exploration result keeps reading them: a param dict is built only
    where a point object is asked for.
    """

    def __init__(self, names: Sequence[str], columns: List[List[Any]]):
        self.names, self.columns = tuple(names), columns
        self.by_name = dict(zip(self.names, columns))
        self.builder = [(name, column) for name, column
                        in zip(self.names, columns)
                        if not name.startswith(OPTIONS_PREFIX)]
        self.options = {name[len(OPTIONS_PREFIX):]: column for name, column
                        in zip(self.names, columns)
                        if name.startswith(OPTIONS_PREFIX)}

    def values(self, name: str, rows: Sequence[int]) -> List[Any]:
        """Param ``name`` of the points at ``rows``."""
        return gather(self.by_name[name], rows)

    def params(self, rows: Sequence[int]) -> List[Dict[str, Any]]:
        """The param dicts of the points at ``rows``, filled a column
        at a time (under half the cost of a ``dict(zip())`` per point)."""
        dicts: List[Dict[str, Any]] = [{} for _ in rows]
        for name, column in zip(self.names, self.columns):
            deque(map(operator.setitem, dicts, repeat(name),
                      map(column.__getitem__, rows)), maxlen=0)
        return dicts


class Axis(ParameterSpace):
    """One named parameter with an explicit value sequence."""

    def __init__(self, name: str, values: Sequence[Any],
                 _linspace: Optional[Tuple[float, float, int]] = None):
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"axis name must be a non-empty string, got {name!r}")
        values = list(values)
        if not values:
            raise ConfigurationError(f"axis {name!r} needs at least one value")
        self.name = name
        self.values = values
        self._linspace = _linspace

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.name,)

    def columns(self) -> List[List[Any]]:
        return [list(self.values)]

    def __len__(self) -> int:
        return len(self.values)

    def to_dict(self) -> Dict[str, Any]:
        if self._linspace is not None:
            start, stop, num = self._linspace
            return {"name": self.name,
                    "linspace": {"start": start, "stop": stop, "num": num}}
        return {"name": self.name, "values": list(self.values)}


class ProductSpace(ParameterSpace):
    """Cartesian product of disjointly-named subspaces (last axis fastest)."""

    def __init__(self, spaces: Sequence[ParameterSpace]):
        if not spaces:
            raise ConfigurationError("product needs at least one space")
        self.spaces = list(spaces)
        _check_disjoint_names(self.spaces)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for space in self.spaces for name in space.names)

    def columns(self) -> List[List[Any]]:
        # Each part multiplies in: earlier values repeat once per row of
        # the part, and its columns tile once per earlier row.
        columns: List[List[Any]] = []
        size = 1
        for space in self.spaces:
            part = space.columns()
            width = len(part[0])
            columns = [list(chain.from_iterable(map(repeat, column,
                                                    repeat(width))))
                       for column in columns] + [column * size
                                                 for column in part]
            size *= width
        return columns

    def __len__(self) -> int:
        total = 1
        for space in self.spaces:
            total *= len(space)
        return total

    def to_dict(self) -> Dict[str, Any]:
        return {"product": [space.to_dict() for space in self.spaces]}


class ZipSpace(ParameterSpace):
    """Lockstep pairing of equally-long, disjointly-named subspaces."""

    def __init__(self, spaces: Sequence[ParameterSpace]):
        if not spaces:
            raise ConfigurationError("zip needs at least one space")
        self.spaces = list(spaces)
        _check_disjoint_names(self.spaces)
        lengths = {len(space) for space in self.spaces}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"zipped spaces must have equal lengths, got "
                f"{[len(space) for space in self.spaces]}")

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for space in self.spaces for name in space.names)

    def columns(self) -> List[List[Any]]:
        return [column for space in self.spaces
                for column in space.columns()]

    def __len__(self) -> int:
        return len(self.spaces[0])

    def to_dict(self) -> Dict[str, Any]:
        return {"zip": [space.to_dict() for space in self.spaces]}


class FilteredSpace(ParameterSpace):
    """A space narrowed by a predicate (programmatic-only: no JSON form)."""

    def __init__(self, base: ParameterSpace,
                 predicate: Callable[[Dict[str, Any]], bool]):
        if not callable(predicate):
            raise ConfigurationError("filter predicate must be callable")
        self.base = base
        self.predicate = predicate
        self._size: Optional[int] = None

    @property
    def names(self) -> Tuple[str, ...]:
        return self.base.names

    def columns(self) -> List[List[Any]]:
        rows = [row for row in zip(*self.base.columns())
                if self.predicate(dict(zip(self.names, row)))]
        return [list(column) for column in zip(*rows)] or \
            [[] for _ in self.names]

    def __len__(self) -> int:
        # A predicate is opaque, so the size is only knowable by
        # enumeration; memoized because spaces are immutable by convention.
        if self._size is None:
            self._size = len(self.columns()[0])
        return self._size


def _check_disjoint_names(spaces: Sequence[ParameterSpace]) -> None:
    seen: Dict[str, int] = {}
    for space in spaces:
        for name in space.names:
            if name in seen:
                raise ConfigurationError(
                    f"parameter {name!r} bound by more than one subspace")
            seen[name] = 1


# --- constructors ---------------------------------------------------------

def choice(name: str, values: Sequence[Any]) -> Axis:
    """An axis over an explicit value list (any JSON-able value type)."""
    return Axis(name, values)


def grid(**axes: Sequence[Any]) -> ParameterSpace:
    """Cartesian product of named value lists: ``grid(a=[1,2], b=[3,4])``."""
    if not axes:
        raise ConfigurationError("grid needs at least one axis")
    spaces = [Axis(name, values) for name, values in axes.items()]
    return spaces[0] if len(spaces) == 1 else ProductSpace(spaces)


def linspace(name: str, start: float, stop: float, num: int) -> Axis:
    """A numeric axis of ``num`` evenly spaced values over [start, stop]."""
    if num < 1:
        raise ConfigurationError(f"linspace needs num >= 1, got {num}")
    if num == 1:
        values: List[float] = [float(start)]
    else:
        step = (float(stop) - float(start)) / (num - 1)
        values = [float(start) + index * step for index in range(num - 1)]
        values.append(float(stop))  # hit the endpoint exactly
    return Axis(name, values, _linspace=(float(start), float(stop), num))


def product(*spaces: ParameterSpace) -> ProductSpace:
    """Cartesian product of spaces (nested products are flattened)."""
    flat: List[ParameterSpace] = []
    for space in spaces:
        if isinstance(space, ProductSpace):
            flat.extend(space.spaces)
        else:
            flat.append(space)
    return ProductSpace(flat)


def zipped(*spaces: ParameterSpace) -> ZipSpace:
    """Lockstep pairing: point i binds point i of every subspace."""
    return ZipSpace(spaces)


# --- JSON -----------------------------------------------------------------

def space_from_dict(payload: Any) -> ParameterSpace:
    """Inverse of :meth:`ParameterSpace.to_dict`.

    A bare list is shorthand for the product of its axes.
    """
    if isinstance(payload, list):
        return space_from_dict({"product": payload})
    if not isinstance(payload, dict):
        raise SerializationError(
            f"space spec must be an object or a list of axes, "
            f"got {type(payload).__name__}")
    if "product" in payload:
        return ProductSpace(_subspaces(payload["product"], "product"))
    if "zip" in payload:
        return ZipSpace(_subspaces(payload["zip"], "zip"))
    if "name" in payload:
        return _axis_from_dict(payload)
    raise SerializationError(
        f"space spec needs 'name', 'product', or 'zip'; "
        f"got keys {sorted(payload)}")


def _subspaces(raw: Any, combinator: str) -> List[ParameterSpace]:
    if not isinstance(raw, list) or not raw:
        raise SerializationError(
            f"'{combinator}' must be a non-empty list of space specs")
    return [space_from_dict(item) for item in raw]


def _axis_from_dict(payload: Dict[str, Any]) -> Axis:
    name = payload["name"]
    extra = set(payload) - {"name", "values", "linspace"}
    if extra:
        raise SerializationError(
            f"axis {name!r}: unknown keys {sorted(extra)}")
    if "linspace" in payload:
        if "values" in payload:
            raise SerializationError(
                f"axis {name!r}: 'values' and 'linspace' are exclusive")
        spec = payload["linspace"]
        if not isinstance(spec, dict) \
                or set(spec) != {"start", "stop", "num"}:
            raise SerializationError(
                f"axis {name!r}: 'linspace' needs exactly "
                f"{{'start', 'stop', 'num'}}")
        try:
            return linspace(name, spec["start"], spec["stop"], spec["num"])
        except TypeError as error:
            raise SerializationError(
                f"axis {name!r}: bad linspace: {error}") from error
    if "values" not in payload:
        raise SerializationError(
            f"axis {name!r} needs 'values' or 'linspace'")
    if not isinstance(payload["values"], list):
        raise SerializationError(
            f"axis {name!r}: 'values' must be a list")
    return Axis(name, payload["values"])
