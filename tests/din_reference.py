"""The original per-line ``.din`` parser, kept as the test oracle.

:func:`repro.trace.din.read_din` decodes well-formed lines in bulk with
numpy and sends every other line through a per-line step.  This module
keeps the parser it replaced: one Python pass over the stream's lines, each
access appended through :class:`~repro.trace.trace.TraceBuilder`.
``tests/test_din_differential.py`` pins the two to each other: the same
:class:`~repro.trace.trace.Trace` (addresses, types, sizes, name and
fingerprint), or the same exception type and message.

One rule is new in both: an address outside ``[0, 2**63)`` raises a
:class:`~repro.errors.TraceFormatError` naming its line.  The loop used to
pass it to the builder, which raised a :class:`~repro.errors.TraceError`
without a line number for a negative address and an ``OverflowError``
when it packed one that does not fit int64.
"""

from __future__ import annotations

import os
from typing import Iterable, TextIO, Union

from repro.errors import TraceFormatError
from repro.trace.din import _LABEL_TO_TYPE
from repro.trace.trace import Trace, TraceBuilder


def parse_lines(lines: Iterable[str], source: str) -> Trace:
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
        if not 0 <= address < 2**63:
            raise TraceFormatError(
                f"{source}:{line_number}: address {address_text!r} is outside [0, 2**63)"
            )
        builder.add(address, int(access_type))
    return builder.build()


def read_din_reference(path_or_file: Union[str, os.PathLike, TextIO]) -> Trace:
    """:func:`repro.trace.din.read_din`, by the per-line loop."""
    if hasattr(path_or_file, "read"):
        source = getattr(path_or_file, "name", "<stream>")
        return parse_lines(path_or_file, str(source))
    with open(path_or_file, "r", encoding="ascii") as handle:
        return parse_lines(handle, str(path_or_file))
