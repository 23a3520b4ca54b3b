"""Dinero IV ``.din`` trace format.

The ``.din`` format is the classic text format consumed by Dinero: one access
per line, ``<label> <hex-address>``, where the label is ``0`` (read), ``1``
(write) or ``2`` (instruction fetch), or ``r``, ``w`` or ``i``, in either
case.  Blank lines, ``#`` comments and fields after the address are
tolerated on input, and an address may carry a ``0x`` prefix.

:func:`read_din` parses the text in blocks of at most :data:`BLOCK_CHARS`
characters, so its memory is bounded by a block, whatever the trace's
length.  The lines of a block that have the common shape — a one-character
label, one space and 1 to 15 hex digits — are decoded together with numpy:
one lookup table maps label bytes to access types, another maps digit bytes
to their values, and the values of each line's last 16 bytes, read as two
big-endian words, are checked by their high nibbles and packed by shifts.
Every other line (blank lines, comments, tabs, runs of spaces, a carriage
return the stream left in place, extra fields, ``0x`` prefixes, longer
addresses, malformed lines) goes through a per-line step, which applies the
format's full rules and raises each error with its line number.  Lines end
at ``\\n`` in the text the stream returns; files and gzip streams opened in
text mode translate ``\\r\\n`` and ``\\r`` to it.
"""

from __future__ import annotations

import os
from typing import List, Optional, TextIO, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import TraceFormatError
from repro.trace.trace import Trace
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

#: Most characters parsed as one block.  A block's numpy temporaries take
#: about ten bytes a character, so the block bounds the parse's memory.
BLOCK_CHARS = 1 << 15

#: Addresses lie below this: they are stored as int64.
_ADDRESS_LIMIT = 2**63

#: Longest address decoded in bulk: 15 hex digits are 60 bits, inside int64.
_BULK_DIGITS = 15

#: A line's bulk window: the bytes before its newline, digits right-aligned.
_WINDOW = _BULK_DIGITS + 1

#: Marks a byte that is no label (in :data:`_LABEL_CODES`) or no hex digit
#: (in :data:`_DIGIT_VALUES`).
_INVALID = 255

_LABEL_CODES = np.full(256, _INVALID, dtype=np.uint8)
for _label, _type in _LABEL_TO_TYPE.items():
    _LABEL_CODES[ord(_label)] = _LABEL_CODES[ord(_label.upper())] = int(_type)

_DIGIT_VALUES = np.full(256, _INVALID, dtype=np.uint8)
for _digit in "0123456789abcdef":
    _DIGIT_VALUES[ord(_digit)] = _DIGIT_VALUES[ord(_digit.upper())] = int(_digit, 16)
del _label, _type, _digit

#: Bytes put before each block, so that every line has a full window.
_PAD = b" " * _WINDOW

# A window's 16 digit values are read as two big-endian uint64 words.  A hex
# digit's value has a zero high nibble and a byte that is no digit (255)
# does not, so per digit count d these masks pick the high nibbles of the
# window's last d bytes in each word, and the value mask its last d nibbles.
_HIGH_NIBBLES = 0xF0F0F0F0F0F0F0F0
_FIRST_WORD_DIGITS = np.array(
    [_HIGH_NIBBLES & ((1 << 8 * max(d - 8, 0)) - 1) for d in range(_WINDOW)], dtype=np.uint64
)
_SECOND_WORD_DIGITS = np.array(
    [_HIGH_NIBBLES & ((1 << 8 * min(d, 8)) - 1) for d in range(_WINDOW)], dtype=np.uint64
)
_VALUE_MASKS = np.array([(1 << 4 * d) - 1 for d in range(_WINDOW)], dtype=np.uint64)
_LOW_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_SPREAD = (
    (np.uint64(4), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(8), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(16), np.uint64(0x00000000FFFFFFFF)),
)


def _pack_nibbles(words: np.ndarray) -> np.ndarray:
    """The low nibbles of each word's eight bytes, as one 32-bit value."""
    words = words & _LOW_NIBBLES
    for shift, mask in _SPREAD:
        words |= words >> shift
        words &= mask
    return words


def _parse_line(raw: str, source: str, line_number: int) -> Optional[Tuple[int, int]]:
    """One line by the format's full rules: ``(address, access type)``, or
    ``None`` for a blank or comment line.  ``raw`` keeps its newline, as the
    error messages quote it."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
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
    if not 0 <= address < _ADDRESS_LIMIT:
        raise TraceFormatError(
            f"{source}:{line_number}: address {address_text!r} is outside [0, 2**63)"
        )
    return address, int(access_type)


def _parse_block(text: str, source: str, lines_before: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """The accesses of ``text``, whole lines that follow ``lines_before``
    others (the last one may lack its newline): addresses, access types and
    the number of lines."""
    # One byte per character: "replace" turns each non-ASCII character into
    # one "?", which no bulk line holds, so byte offsets are text offsets.
    data = _PAD + text.encode("ascii", "replace")
    if not text.endswith("\n"):
        data += b"\n"
    buffer = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buffer == ord("\n"))
    # A line's length is the distance between newlines less one; a bulk
    # line's digits are its length less the label and the space.
    digits = np.diff(ends, prepend=_WINDOW - 1)
    digits -= 3

    # Bulk lines: a label, one space and 1 to 15 hex digits, nothing else.
    rows = np.flatnonzero((digits >= 1) & (digits <= _BULK_DIGITS))
    size, last = digits[rows], ends[rows]
    label = last - size - 2
    types = _LABEL_CODES[buffer[label]]
    # Each bulk line's window holds the digit values of the 16 bytes before
    # its newline, its digits in the last columns, as two big-endian words.
    # The bytes before the digits (the label, the space, the line before)
    # land in nibbles the masks leave out.
    window = sliding_window_view(_DIGIT_VALUES[buffer], _WINDOW)[last - _WINDOW]
    high, low = window.view(">u8").T
    bulk = (types != _INVALID) & (buffer[label + 1] == ord(" "))
    bulk &= ((high & _FIRST_WORD_DIGITS[size]) | (low & _SECOND_WORD_DIGITS[size])) == 0
    values = _pack_nibbles(high)
    values <<= np.uint64(32)
    values |= _pack_nibbles(low)
    values &= _VALUE_MASKS[size]

    count = ends.size
    addresses = np.empty(count, dtype=np.int64)
    access_types = np.empty(count, dtype=np.int8)
    keep = np.zeros(count, dtype=bool)
    addresses[rows] = values
    access_types[rows] = types
    keep[rows] = bulk
    slow = np.flatnonzero(~keep)
    if slow.size:
        # A line's text runs from its start to its newline included (the
        # appended newline of an unterminated last line lies past the text).
        ends = ends[slow] - _WINDOW
        for index, start, end in zip(
            slow.tolist(), (ends - digits[slow] - 2).tolist(), ends.tolist()
        ):
            access = _parse_line(text[start:end + 1], source, lines_before + index + 1)
            if access is not None:
                addresses[index], access_types[index] = access
                keep[index] = True
        addresses, access_types = addresses[keep], access_types[keep]
    return addresses, access_types, count


def _parse(handle: TextIO, source: str) -> Trace:
    """Parse a ``.din`` text stream block by block (see the module docstring)."""
    name = os.path.splitext(os.path.basename(source))[0] or "din"
    address_blocks: List[np.ndarray] = []
    type_blocks: List[np.ndarray] = []
    lines = 0
    pending: List[str] = []
    while True:
        block = handle.read(BLOCK_CHARS)
        if block:
            cut = block.rfind("\n") + 1
            if not cut:
                pending.append(block)
                continue
            text = "".join(pending) + block[:cut]
            pending = [block[cut:]]
        else:
            text = "".join(pending)
            if not text:
                break
        addresses, types, count = _parse_block(text, source, lines)
        lines += count
        address_blocks.append(addresses)
        type_blocks.append(types)
        if not block:
            break
    accesses = sum(part.size for part in address_blocks)
    if not accesses:
        return Trace.empty(name=name)
    return Trace(
        np.concatenate(address_blocks),
        np.concatenate(type_blocks),
        np.full(accesses, 4, dtype=np.int16),
        name=name,
    )


def read_din(path_or_file: Union[str, os.PathLike, TextIO]) -> Trace:
    """Read a Dinero ``.din`` trace from a path or an open text file.

    The text is parsed in bounded blocks (see the module docstring): the
    whole file is never held as text or as Python objects at once.
    """
    if hasattr(path_or_file, "read"):
        source = getattr(path_or_file, "name", "<stream>")
        return _parse(path_or_file, str(source))
    with open(path_or_file, "r", encoding="ascii") as handle:
        return _parse(handle, str(path_or_file))


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
