"""The bulk ``.din`` parser against the per-line oracle.

:func:`repro.trace.din.read_din` decodes well-formed lines in blocks with
numpy and sends every other line through a per-line step;
``tests/din_reference.py`` keeps the per-line loop it replaced.  Drawn
texts mix well-formed lines with everything the per-line step handles
(blank lines, comments, CRLF ends, tabs, runs of spaces, upper-case labels,
``0x`` prefixes, extra fields, 1 to 17 hex digits) and with malformed lines
(bad labels, bad addresses, missing fields or separators).  Each is read from a stream
and from a path by :func:`read_din`, and as ``.din`` and ``.din.gz`` by
:func:`~repro.trace.files.load_trace_file`, with a block of a few
characters so that lines straddle blocks.  Each read must give what the
oracle gives: the same trace (addresses, types, sizes, name, fingerprint),
or the same exception type and message, line number included.
"""

from __future__ import annotations

import gzip
import io
import os
import tempfile
from unittest import mock

import hypothesis.strategies as st
from din_reference import read_din_reference
from hypothesis import given, settings

from repro.errors import TraceFormatError
from repro.trace import din, files
from repro.trace.din import read_din
from repro.trace.files import load_trace_file

SPACE = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def hex_digits(draw):
    # The leading digit is drawn apart, so that long addresses are long in
    # value too, not only zeros in front of a small one.
    length = draw(st.integers(min_value=1, max_value=17))
    rest = draw(st.integers(min_value=0, max_value=16 ** (length - 1) - 1))
    digits = draw(st.sampled_from("f7310123456789abcde")) + f"{rest:0{length - 1}x}"[:length - 1]
    upper = draw(st.integers(min_value=0, max_value=2**length - 1))
    return "".join(c.upper() if upper >> i & 1 else c for i, c in enumerate(digits))


@st.composite
def address_fields(draw):
    return draw(st.sampled_from(["", "", "0x", "0X"])) + draw(hex_digits())


LABELS = st.sampled_from("012rwiRWI")

#: Lines of the shape decoded in bulk: a label, one space, hex digits.
PLAIN_LINES = st.builds(lambda label, digits: f"{label} {digits}", LABELS, hex_digits())


@st.composite
def access_lines(draw):
    line = draw(LABELS) + draw(st.sampled_from([" ", "  ", "\t"])) + draw(address_fields())
    if draw(st.integers(0, 3)) == 0:
        line += draw(SPACE) + draw(st.sampled_from(["4", "extra", "0x10"]))
    if draw(st.integers(0, 3)) == 0:
        line = draw(SPACE) + line
    if draw(st.integers(0, 3)) == 0:
        line += draw(SPACE)
    return line


SKIPPED_LINES = st.sampled_from(["", " ", "\t", "# comment", "  # indented comment", "#0 10"])

BAD_LINES = st.one_of(
    # A bad label, a bad address, a missing field, a missing separator.
    st.builds(lambda label, space, address: label + space + address,
              st.sampled_from(["x", "3", "rw", "00", "-"]), SPACE, address_fields()),
    st.builds(lambda label, space, address: label + space + address,
              st.sampled_from("012rw"), SPACE, st.sampled_from(["zz", "0xg", "1-2", "-1f", "+"])),
    st.sampled_from(["0", "w", "R ", "ff"]),
    st.builds(lambda label, address: label + address, st.sampled_from("012rwi"), address_fields()),
)


@st.composite
def din_texts(draw):
    lines = draw(st.lists(
        st.one_of(PLAIN_LINES, PLAIN_LINES, access_lines(), SKIPPED_LINES), max_size=30
    ))
    # One text in three holds a malformed line, anywhere.
    if draw(st.integers(0, 2)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(BAD_LINES))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(read, *args):
    """What a read gives: the trace's content and name, or its error."""
    try:
        trace = read(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)
    return (
        trace.addresses.tolist(),
        trace.access_types.tolist(),
        trace.sizes.tolist(),
        trace.name,
        trace.fingerprint(),
    )


@given(text=din_texts(), block_chars=st.integers(min_value=1, max_value=48))
@settings(max_examples=250, deadline=None)
def test_bulk_parser_matches_the_per_line_oracle(text, block_chars):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "drawn.din")
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
        packed = path + ".gz"
        with gzip.open(packed, "wt", encoding="ascii", newline="") as handle:
            handle.write(text)

        expected = {
            "stream": outcome(read_din_reference, io.StringIO(text)),
            "path": outcome(read_din_reference, path),
        }
        with mock.patch.object(files, "read_din", read_din_reference):
            for name in (path, packed):
                expected[name] = outcome(load_trace_file, name)

        with mock.patch.object(din, "BLOCK_CHARS", block_chars):
            assert outcome(read_din, io.StringIO(text)) == expected["stream"]
            assert outcome(read_din, path) == expected["path"]
            for name in (path, packed):
                assert outcome(load_trace_file, name) == expected[name], name


def test_large_trace_matches_the_oracle_across_blocks(tmp_path):
    # Thousands of bulk lines of 1 to 15 digits with a few of every other
    # kind spread among them, over the default block size and a small one.
    lines = [
        f"{'012rwi'[i % 6]} {(i * 0x9E3779B97F4A7C15) % (1 << 4 * (1 + i % 15)):x}"
        for i in range(6000)
    ]
    for position, line in enumerate(["", "# note", "0\t1f", "2 0x40 extra", "W  BEEF"]):
        lines.insert(position * 997 + 13, line)
    path = tmp_path / "large.din"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    expected = outcome(read_din_reference, path)
    assert len(expected[0]) == 6003
    assert outcome(read_din, path) == expected
    with mock.patch.object(din, "BLOCK_CHARS", 4096):
        assert outcome(read_din, path) == expected


def test_out_of_range_addresses_name_their_line():
    # Both used to reach the trace builder: a negative address raised with no
    # line number, and one past int64 raised OverflowError.
    for address in ("-1f", "8000000000000000", "ffffffffffffffffff"):
        text = f"0 10\n\n1 {address}\n"
        message = f"<stream>:3: address {address!r} is outside [0, 2**63)"
        assert outcome(read_din, io.StringIO(text)) == (TraceFormatError, message)
