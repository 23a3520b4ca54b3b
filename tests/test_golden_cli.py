"""Byte-identity pins for the CLI's result-printing commands.

Every command below runs over one seeded 5,000-access ``cjpeg`` trace,
written to a fixed file name (the trace name shows up in the JSON payload
and in ``verify``'s summary).  The SHA-256 of each command's stdout is
pinned, so any change to the rows, their order or their formatting fails
here.  Timing fields are stripped from ``dew`` and ``baseline`` the way the
CI widest-scan step strips them.

The mechanism sweep is the slow one, so its JSON run is served from the
store its text run filled; a warm run's stdout is byte-identical to a cold
one, which the pin then also holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re

import pytest

from repro.cli import main

TRACE_NAME = "golden.din"

GRID = [
    "--block-sizes", "8,16",
    "--associativities", "1,2",
    "--max-sets", "64",
    "--policies", "fifo,lru,plru",
]
MECHANISMS = [
    "--mechanisms", "victim-cache,miss-cache,stream-buffer",
    "--mechanism-entries", "2,4",
]
FAMILY = ["--block-size", "8", "--associativity", "2", "--max-sets", "64"]

#: ``, 0.123s, `` in the ``dew`` and ``baseline`` summary lines.
TIMING = re.compile(r", [0-9.]+s, ")

GOLDEN = {
    "baseline": "9d51f188f75edc501ec189a84707cf28ad4f535690c8418daa410ad063386294",
    "dew": "559b8d5d7949e85cf037b15fd3a2a7679ef7cd97fb605a7473594f8f8e438482",
    "explore-pareto": "7f1a241d5715a738f847e61b9114c94b84100c4464485453b4146897a4aa70c3",
    "explore-tune": "594f1a55d89f6aa5a121f15055c40ff432a9300ad8ddf5eff38fe28ad0642682",
    "sweep": "ca93a4a22d6dc379f23d7ff7703ac046464d920062fbbc9842579294a4ae377b",
    "sweep-json": "541c4fb933456df9d81c8ee0b0d848fbd8848d60475067f0fd384ea9ad894def",
    "sweep-mechanisms": "ce3e078c4778338878a008058debfd01d734a13e59be9af07fcc340acd94ab56",
    "sweep-mechanisms-json": "93766050a2f47a04d23715a0178e2e080029ff754b79f7dff2f931a9b3d2a3bd",
    "verify": "4c1377e0d0c1d08e516b2c0f5c78df74f156352c7c19c702d40b290aee83eb62",
}


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    """Each golden command's stdout, keyed like :data:`GOLDEN`."""
    root = tmp_path_factory.mktemp("golden")
    trace = str(root / TRACE_NAME)
    store = str(root / "store")
    payload = root / "sweep.json"
    outputs = {}

    def run(name, argv, strip_timing=False):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0, name
        text = buffer.getvalue()
        outputs[name] = TIMING.sub(", ", text) if strip_timing else text

    run("generate", ["generate", "cjpeg", trace, "--requests", "5000", "--seed", "7"])
    run("sweep", ["sweep", trace, *GRID])
    run("sweep-json", ["sweep", trace, *GRID, "--format", "json"])
    payload.write_text(outputs["sweep-json"])
    run("sweep-mechanisms", ["sweep", trace, *GRID, *MECHANISMS, "--store", store])
    run(
        "sweep-mechanisms-json",
        ["sweep", trace, *GRID, *MECHANISMS, "--store", store, "--format", "json"],
    )
    run("dew", ["dew", trace, *FAMILY], strip_timing=True)
    run("baseline", ["baseline", trace, *FAMILY], strip_timing=True)
    run("verify", ["verify", trace, *FAMILY])
    run("explore-pareto", ["explore", "pareto", "--json", str(payload)])
    run("explore-tune", ["explore", "tune", "--json", str(payload)])
    return outputs


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(golden_outputs, name):
    digest = hashlib.sha256(golden_outputs[name].encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name], f"{name} stdout changed:\n{golden_outputs[name][:2000]}"
