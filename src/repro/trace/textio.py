"""Plain-text trace formats.

Two formats are supported:

* *hex list* — one hexadecimal address per line (all accesses treated as
  reads), convenient for hand-written test inputs;
* *CSV* — ``address,type,size`` rows with a header, round-tripping the full
  access information.
"""

from __future__ import annotations

import csv
import itertools
import os
from typing import Iterable, Iterator, TextIO, Union

from repro.errors import TraceFormatError
from repro.trace.trace import Trace, TraceBuilder
from repro.types import AccessType


def read_text_trace(path_or_file: Union[str, os.PathLike, TextIO]) -> Trace:
    """Read a trace from either the hex-list or the CSV text format.

    The format is auto-detected: a first non-empty line containing a comma is
    treated as CSV, anything else as a hex list.  Lines are consumed one at a
    time, so the whole file is never held as Python objects.
    """
    if hasattr(path_or_file, "read"):
        source = str(getattr(path_or_file, "name", "<stream>"))
        return _read_stream(path_or_file, source)
    with open(path_or_file, "r", encoding="ascii") as handle:
        return _read_stream(handle, str(path_or_file))


def _meaningful_lines(lines: Iterable[str]) -> Iterator[str]:
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line


def _read_stream(lines: Iterable[str], source: str) -> Trace:
    meaningful = _meaningful_lines(lines)
    first = next(meaningful, None)
    if first is None:
        return Trace.empty(name=os.path.splitext(os.path.basename(source))[0] or "text")
    rest = itertools.chain([first], meaningful)
    if "," in first:
        return _read_csv(rest, source)
    return _read_hex_list(rest, source)


def _read_hex_list(lines: Iterable[str], source: str) -> Trace:
    name = os.path.splitext(os.path.basename(source))[0] or "text"
    builder = TraceBuilder(name=name)
    for line_number, line in enumerate(lines, start=1):
        token = line.strip()
        try:
            builder.add(int(token, 16))
        except ValueError as exc:
            raise TraceFormatError(
                f"{source}:{line_number}: invalid hexadecimal address {token!r}"
            ) from exc
    return builder.build()


def _read_csv(lines: Iterable[str], source: str) -> Trace:
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or "address" not in reader.fieldnames:
        raise TraceFormatError(f"{source}: CSV trace must have an 'address' column")
    name = os.path.splitext(os.path.basename(source))[0] or "csv"
    builder = TraceBuilder(name=name)
    for row_number, row in enumerate(reader, start=2):
        try:
            address = int(row["address"], 0)
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"{source}:{row_number}: bad address {row.get('address')!r}") from exc
        type_text = (row.get("type") or "r").strip()
        try:
            access_type = int(AccessType.from_symbol(type_text))
        except ValueError as exc:
            raise TraceFormatError(f"{source}:{row_number}: bad access type {type_text!r}") from exc
        size_text = (row.get("size") or "4").strip()
        try:
            size = int(size_text)
        except ValueError as exc:
            raise TraceFormatError(f"{source}:{row_number}: bad size {size_text!r}") from exc
        builder.add(address, access_type, size)
    return builder.build()


def write_text_trace(
    trace: Trace,
    path_or_file: Union[str, os.PathLike, TextIO],
    fmt: str = "csv",
) -> None:
    """Write ``trace`` as ``fmt`` (``"csv"`` or ``"hex"``)."""
    if fmt not in ("csv", "hex"):
        raise ValueError(f"unknown text trace format: {fmt!r}")

    def _write(handle: TextIO) -> None:
        if fmt == "hex":
            for address in trace.addresses:
                handle.write(f"{int(address):x}\n")
            return
        writer = csv.writer(handle)
        writer.writerow(["address", "type", "size"])
        for address, access_type, size in zip(trace.addresses, trace.access_types, trace.sizes):
            writer.writerow([f"0x{int(address):x}", AccessType(int(access_type)).symbol, int(size)])

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
        return
    with open(path_or_file, "w", encoding="ascii", newline="") as handle:
        _write(handle)
