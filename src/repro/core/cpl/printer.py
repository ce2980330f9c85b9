"""Output formatting for CPL values.

The paper: *"a flexible printing routine in CPL allows data to be converted to
a variety of formats for use in displaying (e.g. HTML) or reading into another
programming language (e.g. perl)"*.  This module provides those printers:

* :func:`render_value` — canonical CPL value syntax (the syntax used in the
  paper's Publication example),
* :func:`render_html` — an HTML rendering with tables for sets of records,
* :func:`render_tabular` — tab-delimited rows for flat sets of records, the
  form most easily read into perl/awk-style tooling,
* :func:`render_python` — plain Python literals (dicts / lists).
"""

from __future__ import annotations

from typing import Callable, Iterable, List

from ..records import Record
from ..values import CBag, CList, CSet, Ref, Unit, Variant, to_python

__all__ = ["render_value", "render_html", "render_tabular", "render_python"]


def render_value(value: object, indent: int = 0, width: int = 100) -> str:
    """Render ``value`` in CPL value syntax.

    Nested collections and records are broken over lines once they no longer
    fit in ``width`` columns.
    """
    flat = _render_flat(value)
    if len(flat) + indent <= width:
        return flat
    return _render_nested(value, indent, width)


def _render_flat(value: object) -> str:
    if isinstance(value, str):
        return '"%s"' % value.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Unit):
        return "()"
    if isinstance(value, Record):
        inner = ", ".join(f"{label}={_render_flat(field)}" for label, field in value.items())
        return f"[{inner}]"
    if isinstance(value, Variant):
        if isinstance(value.value, Unit):
            return f"<{value.tag}>"
        return f"<{value.tag}={_render_flat(value.value)}>"
    if isinstance(value, Ref):
        return f"#{value.class_name}:{value.identifier}"
    if isinstance(value, CSet):
        return "{%s}" % ", ".join(_render_flat(element) for element in value)
    if isinstance(value, CBag):
        return "{|%s|}" % ", ".join(_render_flat(element) for element in value)
    if isinstance(value, CList):
        return "[|%s|]" % ", ".join(_render_flat(element) for element in value)
    return repr(value)


_BRACKETS = {CSet: ("{", "}"), CBag: ("{|", "|}"), CList: ("[|", "|]")}


def _render_nested(value: object, indent: int, width: int) -> str:
    pad = " " * indent
    child_pad = " " * (indent + 2)
    if isinstance(value, Record):
        lines = []
        for label, field in value.items():
            rendered = render_value(field, indent + 2, width)
            lines.append(f"{child_pad}{label}={rendered.lstrip()}")
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    for cls, (open_bracket, close_bracket) in _BRACKETS.items():
        if isinstance(value, cls):
            lines = []
            for element in value:
                rendered = render_value(element, indent + 2, width)
                lines.append(f"{child_pad}{rendered.lstrip()}")
            return f"{open_bracket}\n" + ",\n".join(lines) + f"\n{pad}{close_bracket}"
    if isinstance(value, Variant):
        inner = render_value(value.value, indent + 2, width)
        return f"<{value.tag}={inner.lstrip()}>"
    return _render_flat(value)


def render_python(value: object) -> object:
    """Render a CPL value as plain Python data (dicts, lists, scalars)."""
    return to_python(value)


def render_tabular(value: object, separator: str = "\t") -> str:
    """Render a flat collection of records as delimited rows with a header.

    Nested fields are rendered in CPL value syntax inside their cell, so the
    output is always produced even for not-quite-flat relations.
    """
    rows = list(value) if isinstance(value, (CSet, CBag, CList)) else [value]
    if not rows:
        return ""
    header: List[str] = []
    for row in rows:
        if isinstance(row, Record):
            for label in row.labels:
                if label not in header:
                    header.append(label)
    if not header:
        return "\n".join(_render_flat(row) for row in rows)
    lines = [separator.join(header)]
    for row in rows:
        if isinstance(row, Record):
            cells = [_cell(row.get(label)) for label in header]
        else:
            cells = [_cell(row)] + [""] * (len(header) - 1)
        lines.append(separator.join(cells))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _render_flat(value)


def render_html(value: object, title: str = "CPL query result") -> str:
    """Render a value as a small self-contained HTML document.

    Sets/bags/lists of records become tables; nested collections become nested
    tables, which is how the prototype displayed nested relations through
    Mosaic-era browsers.
    """
    from html import escape

    body = _html_value(value, escape)
    return (
        "<html><head><title>%s</title></head><body>\n<h1>%s</h1>\n%s\n</body></html>"
        % (escape(title), escape(title), body)
    )


def _html_value(value: object, escape: Callable[[str], str]) -> str:
    if isinstance(value, (CSet, CBag, CList)):
        rows = list(value)
        if rows and all(isinstance(row, Record) for row in rows):
            return _html_table(rows, escape)
        items = "".join(f"<li>{_html_value(element, escape)}</li>" for element in rows)
        return f"<ul>{items}</ul>"
    if isinstance(value, Record):
        return _html_table([value], escape)
    if isinstance(value, Variant):
        return f"<i>{escape(value.tag)}</i>: {_html_value(value.value, escape)}"
    if isinstance(value, Unit):
        return "&mdash;"
    return escape(str(value))


def _html_table(rows: Iterable[Record], escape: Callable[[str], str]) -> str:
    rows = list(rows)
    header: List[str] = []
    for row in rows:
        for label in row.labels:
            if label not in header:
                header.append(label)
    head = "".join(f"<th>{escape(label)}</th>" for label in header)
    body_rows = []
    for row in rows:
        cells = "".join(f"<td>{_html_value(row.get(label, ''), escape)}</td>"
                        for label in header)
        body_rows.append(f"<tr>{cells}</tr>")
    return f"<table border=1><tr>{head}</tr>{''.join(body_rows)}</table>"
