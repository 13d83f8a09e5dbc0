"""The ``repro.explore/1`` writer: canonical JSON without an object per row.

An exploration document is ``json.dumps(payload, indent=indent,
sort_keys=True)`` of its
:meth:`~repro.explore.engine.ExplorationResult.to_dict` payload.  With
an indent, CPython's ``json`` runs its pure-Python encoder, and on a few
hundred point rows that encoder outweighs the exploration itself.
:func:`write_document` produces the same bytes from row templates
instead:

* A row's *shape* is its key structure: the point row's top-level keys
  and the keys of each nested object (params, metrics, failure,
  bottleneck).  Each shape is compiled once per document by dumping a
  skeleton of the shape — every scalar leaf an indexed ``"\\x00<i>"``
  hole — with the document's indent, and splitting the text at the
  holes (the technique of :mod:`repro.robust.variation`'s hash
  templates).  Keys, separators and indentation are therefore written
  by ``json`` itself.
* Leaves are formatted by the encoder's own rules: ``float.__repr__``
  (``NaN``/``Infinity``/``-Infinity`` for non-finite values),
  ``int.__repr__``, ``true``/``false``/``null`` and
  ``encode_basestring_ascii`` — column by column where rows come in
  blocks.
* A row with a non-scalar leaf (a list-valued param, say), and every row
  of a shape whose keys mimic a hole, is written with ``json.dumps`` of
  that row, re-indented to its depth.

The writer knows rows only through their dict form, so the row layout
stays :meth:`ExplorationPoint.to_dict`'s.  Rows arrive in *runs*: a row
dict, or a run object of same-shape rows that hands out whole leaf
columns (see :func:`write_document`).
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

#: An indexed hole of a row skeleton, and how ``json`` writes it.
_HOLE = "\x00%d"
_HOLE_TEXT = re.compile(r'"\\u0000(\d+)"')

#: Where a leaf sits in a row: ``(key,)`` or ``(key, nested key)``.
Path = Tuple[Any, ...]
#: A row's key structure: per top-level key, its nested keys (None for
#: a scalar value).
Shape = Tuple[Tuple[Any, Optional[tuple]], ...]


def write_document(payload: Dict[str, Any], rows_key: str,
                   runs: Iterable[Any],
                   indent: Union[int, str, None]) -> str:
    """``json.dumps(payload, indent=indent, sort_keys=True)``, where
    ``payload[rows_key]`` is the list of every row of ``runs``.

    A run is one row dict, or an object for rows that share one shape:
    its ``size``; its ``prototype``, the first row's dict form (it fixes
    the shape); ``column(path)``, the leaf values of every row at
    ``path`` in row order — or None when every row holds the
    prototype's leaf there; and ``row(i)``, the dict form of row ``i``
    (for rows written by ``json.dumps``).
    """
    layout = _Layout(indent)
    items = []
    for key in sorted(payload):
        if key == rows_key:
            text = layout.array(_rows(runs, layout), 1)
        else:
            text = layout.value(payload[key], 1)
        items.append(encode_basestring_ascii(key) + ": " + text)
    return layout.array(items, 0, "{", "}")


class _Layout:
    """The encoder's separators and indentation for one ``indent``."""

    def __init__(self, indent: Union[int, str, None]):
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent
        self.indent = indent
        self.templates: Dict[Shape, Optional[Tuple[str, List[Path]]]] = {}

    def array(self, items: List[str], level: int, open_: str = "[",
              close: str = "]") -> str:
        """A JSON container of already-encoded ``items`` at ``level``."""
        if not items:
            return open_ + close
        if self.indent is None:
            return open_ + ", ".join(items) + close
        inner = "\n" + self.indent * (level + 1)
        return (open_ + inner + ("," + inner).join(items) + "\n"
                + self.indent * level + close)

    def value(self, value: Any, level: int) -> str:
        """Any JSON value at ``level``: scalar lists here, the rest by
        ``json.dumps``."""
        if isinstance(value, list):
            texts = _texts(value)
            if None not in texts:
                return self.array(texts, level)
        return self.dumps(value, level)

    def dumps(self, value: Any, level: int) -> str:
        text = json.dumps(value, indent=self.indent, sort_keys=True)
        if self.indent is None:
            return text
        return text.replace("\n", "\n" + self.indent * level)

    def template(self, shape: Shape) -> Optional[Tuple[str, List[Path]]]:
        """``(format, leaf paths in text order)`` of a row shape at depth
        2; None when the shape's own keys read as holes."""
        try:
            return self.templates[shape]
        except KeyError:
            pass
        paths: List[Path] = []

        def hole(path: Path) -> str:
            paths.append(path)
            return _HOLE % (len(paths) - 1)

        skeleton = {key: (hole((key,)) if nested is None else
                          {inner: hole((key, inner)) for inner in nested})
                    for key, nested in shape}
        pieces = _HOLE_TEXT.split(self.dumps(skeleton, 2))
        order = [int(index) for index in pieces[1::2]]
        compiled = None
        if sorted(order) == list(range(len(paths))):
            compiled = ("%s".join(piece.replace("%", "%%")
                                  for piece in pieces[0::2]),
                        [paths[index] for index in order])
        self.templates[shape] = compiled
        return compiled


def _shape(row: Dict[str, Any]) -> Shape:
    return tuple((key, tuple(value) if type(value) is dict else None)
                 for key, value in row.items())


def _leaf_at(row: Dict[str, Any], path: Path) -> Any:
    value = row[path[0]]
    return value if len(path) == 1 else value[path[1]]


def _rows(runs: Iterable[Any], layout: _Layout) -> List[str]:
    """Every row of ``runs`` as JSON text at depth 2, in order."""
    out: List[str] = []
    for run in runs:
        if type(run) is dict:
            compiled = layout.template(_shape(run))
            texts = None
            if compiled is not None:
                texts = [_leaf(_leaf_at(run, path)) for path in compiled[1]]
            if texts is None or None in texts:
                out.append(layout.dumps(run, 2))
            else:
                out.append(compiled[0] % tuple(texts))
            continue
        compiled = layout.template(_shape(run.prototype))
        if compiled is None:
            out.extend(layout.dumps(run.row(index), 2)
                       for index in range(run.size))
            continue
        fmt, paths = compiled
        columns = []
        for path in paths:
            values = run.column(path)
            columns.append(
                [_leaf(_leaf_at(run.prototype, path))] * run.size
                if values is None else _texts(values))
        rows = list(map(fmt.__mod__, zip(*columns)))
        for column in columns:
            if None in column:
                for index, text in enumerate(column):
                    if text is None:
                        rows[index] = layout.dumps(run.row(index), 2)
        out.extend(rows)
    return out


def _texts(values: List[Any]) -> List[Optional[str]]:
    """Each value as the encoder writes it; None for a non-scalar.

    A column of finite floats or of strings is formatted in one C-level
    pass; anything else, value by value.
    """
    kind = type(values[0]) if values else None
    try:
        if kind is float:
            texts = list(map(float.__repr__, values))
            if all(map(math.isfinite, values)):
                return texts
        elif kind is str:
            return list(map(encode_basestring_ascii, values))
    except TypeError:
        pass
    return list(map(_leaf, values))


def _leaf(value: Any) -> Optional[str]:
    """One scalar as the encoder writes it; None for a non-scalar."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None
