"""Dinero IV ``.din`` trace format.

The ``.din`` format is the classic text format consumed by Dinero: one access
per line, ``<label> <hex-address>``, where the label is ``0`` (read), ``1``
(write) or ``2`` (instruction fetch).  Blank lines and ``#`` comments are
tolerated on input.
"""

from __future__ import annotations

import os
from typing import Iterable, TextIO, Union

from repro.errors import TraceFormatError
from repro.trace.trace import Trace, TraceBuilder
from repro.types import AccessType

_LABEL_TO_TYPE = {
    "0": AccessType.READ,
    "1": AccessType.WRITE,
    "2": AccessType.INSTR_FETCH,
    "r": AccessType.READ,
    "w": AccessType.WRITE,
    "i": AccessType.INSTR_FETCH,
}

_TYPE_TO_LABEL = {
    AccessType.READ: "0",
    AccessType.WRITE: "1",
    AccessType.INSTR_FETCH: "2",
}


def _parse_lines(lines: Iterable[str], source: str) -> Trace:
    """Parse an iterable of lines, streaming accesses into numpy chunks."""
    name = os.path.splitext(os.path.basename(source))[0] or "din"
    builder = TraceBuilder(name=name)
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise TraceFormatError(
                f"{source}:{line_number}: expected '<label> <hex-address>', got {raw!r}"
            )
        label, address_text = parts[0].lower(), parts[1]
        try:
            access_type = _LABEL_TO_TYPE[label]
        except KeyError as exc:
            raise TraceFormatError(
                f"{source}:{line_number}: unknown access label {parts[0]!r}"
            ) from exc
        try:
            address = int(address_text, 16)
        except ValueError as exc:
            raise TraceFormatError(
                f"{source}:{line_number}: invalid hexadecimal address {address_text!r}"
            ) from exc
        builder.add(address, int(access_type))
    return builder.build()


def read_din(path_or_file: Union[str, os.PathLike, TextIO]) -> Trace:
    """Read a Dinero ``.din`` trace from a path or an open text file.

    Lines are consumed one at a time: the whole file is never materialised
    as Python objects (see :class:`~repro.trace.trace.TraceBuilder`).
    """
    if hasattr(path_or_file, "read"):
        source = getattr(path_or_file, "name", "<stream>")
        return _parse_lines(path_or_file, str(source))
    with open(path_or_file, "r", encoding="ascii") as handle:
        return _parse_lines(handle, str(path_or_file))


def write_din(trace: Trace, path_or_file: Union[str, os.PathLike, TextIO]) -> None:
    """Write ``trace`` in Dinero ``.din`` format."""

    def _write(handle: TextIO) -> None:
        for address, access_type in zip(trace.addresses, trace.access_types):
            label = _TYPE_TO_LABEL[AccessType(int(access_type))]
            handle.write(f"{label} {int(address):x}\n")

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
        return
    with open(path_or_file, "w", encoding="ascii") as handle:
        _write(handle)
