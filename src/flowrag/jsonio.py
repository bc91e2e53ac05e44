"""The one JSON boundary, and the one place that opens a file for writing.

A record file holds one compact UTF-8 JSON value per line, with non-ASCII
text written raw. The one encoding turns a record object (a chunk, a QA
item, a retrieval hit) into JSON through its ``to_dict``, wherever it sits
in the value, so writers hand it the objects rather than dict copies.
Everything the package reads as JSON (records, configs, graph documents,
snapshot headers, embedding replies) goes through the one decoder,
``decode``, which reports a value nested too deep as bad JSON rather than
as a ``RecursionError``. Reading a record file skips blank lines, and a
record that does not decode is an error naming ``path:line``. A config
file holds one JSON object whose keys are fields of a config dataclass;
any other key is an error.

Every value read from outside the program is named in an error message
through ``shown``, which quotes at most 60 characters of it, so no input
can make an error line longer than a few hundred characters; an enum name
is read through ``member``, whose error lists the allowed names.

Every file the package writes (records, snapshots, reports, the corpus
manifest, ``parse``/``render``/``ged`` outputs) is opened by ``create``,
which makes a new file rather than truncating the old one.
"""
from __future__ import annotations

import dataclasses
import json
import reprlib
from collections.abc import Mapping
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, TypeVar

from .errors import ConfigError, FlowragError

T = TypeVar("T")
E = TypeVar("E", bound=Enum)

NUMBER = (int, float)
_NAMES = {
    str: "a string",
    int: "an integer",
    bool: "true or false",
    (list, tuple): "an array",
    dict: "an object",
    NUMBER: "a number",
    (str, type(None)): "a string or null",
}


_SHOWN_CHARS = 60
# Python 3.10's Repr takes no arguments. Containers show 6 items, 6 levels deep.
_QUOTER = reprlib.Repr()
_QUOTER.maxstring = _QUOTER.maxlong = _QUOTER.maxother = _SHOWN_CHARS
_QUOTER.maxdict = 6


def shown(value) -> str:
    """``value`` as an error message quotes it: its repr, with a long string,
    number or whole repr cut in the middle to 60 characters. Short values
    read as their repr, except that an object's keys come in sorted order."""
    text = _QUOTER.repr(value)
    if len(text) > _SHOWN_CHARS:  # 6 levels of 6 items can still run to megabytes
        text = text[:28] + "..." + text[-29:]  # reprlib's cut of a 60-character string
    return text


def _as_dict(obj) -> dict:
    """``obj.to_dict()``; a TypeError when ``obj`` has no ``to_dict``."""
    to_dict = getattr(obj, "to_dict", None)
    if to_dict is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return to_dict()


def encode(obj) -> bytes:
    """The one record encoding: compact separators, non-ASCII kept raw, and
    any object with a ``to_dict`` encoded as that dict."""
    return json.dumps(
        obj, ensure_ascii=False, separators=(",", ":"), default=_as_dict
    ).encode("utf-8")


def create(path: str | Path) -> BinaryIO:
    """A new, empty file at ``path``, open for binary writing.

    Whatever the path names is unlinked first, not truncated: on ext4 with
    default options (``auto_da_alloc``), truncating a file that still has
    unwritten pages, or renaming a new file over it, makes the write wait
    for the disk, while the pages of an unlinked file are simply dropped.
    So a symlink or hard link at ``path`` is replaced, not written through;
    the new file gets default permissions; and a reader that opened the old
    file keeps reading the old bytes. A directory at ``path`` raises
    ``IsADirectoryError`` and stays.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "wb")


def write_jsonl(path: str | Path, objs: Iterable) -> int:
    """Write each object as one encoded line. Returns the count."""
    count = 0
    with create(path) as fh:
        for obj in objs:
            fh.write(encode(obj))
            fh.write(b"\n")
            count += 1
    return count


def decode(data: bytes | str):
    """The one JSON decoder: the value in ``data``. A value nested deeper
    than the interpreter's recursion limit is a ``JSONDecodeError`` like any
    other bad document, not a ``RecursionError``."""
    try:
        return json.loads(data)
    except RecursionError:
        raise json.JSONDecodeError("value nested too deep", "", 0) from None


def read_jsonl(path: str | Path, build: Callable[[object], T], what: str) -> list[T]:
    """``build`` of every record in a JSON-Lines file, blank lines skipped."""
    out = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(build(decode(line)))
            except KeyError as exc:
                raise FlowragError(f"{path}:{line_no}: bad {what} record: missing {exc}") from exc
            except (ValueError, FlowragError) as exc:
                raise FlowragError(f"{path}:{line_no}: bad {what} record: {exc}") from exc
    return out


def read_json(path: str | Path):
    """The JSON value in the file at ``path``."""
    try:
        return decode(Path(path).read_bytes())
    except ValueError as exc:
        raise FlowragError(f"{path}: invalid JSON: {exc}") from exc


def config_kwargs(cls, data, what: str) -> dict:
    """``data`` as keyword arguments for the dataclass ``cls``: it must be a
    JSON object, and each of its keys must name a field of ``cls``."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {shown(sorted(unknown))}")
    return dict(data)


def expect(value, kinds, what: str):
    """``value`` if it is one of ``kinds``, a key of ``_NAMES`` or one class
    such as an enum; a bool is not an integer or a number."""
    types = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        name = _NAMES[kinds] if kinds in _NAMES else f"a {kinds.__name__}"
        raise ConfigError(f"{what} must be {name}, got {shown(value)}")
    return value


def member(value, kind: type[E], what: str) -> E:
    """The member of the enum ``kind`` whose value is ``value``, a name
    decoded from JSON; a ConfigError listing the allowed names if none is."""
    try:
        return kind(value)
    except ValueError:
        names = ", ".join(m.value for m in kind)
        raise ConfigError(f"{what} must be one of {names}, got {shown(value)}") from None


def expect_list(value, kinds, what: str) -> list | tuple:
    """``value`` if it is a JSON array, or a tuple, whose every item is one
    of ``kinds``."""
    for item in expect(value, (list, tuple), what):
        expect(item, kinds, f"each item of {what}")
    return value
