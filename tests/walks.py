"""Run DEW under a chosen walk inside a test.

``walk_under_test("python")`` substitutes the kernel loader, so simulators
built inside the block run the Python walk.  ``walk_under_test("kernel")``
requires the compiled walk: the test skips when no C compiler runs here
(``$CC --version`` fails, as with ``CC=false``) and fails when one does but
the kernel still does not load.  ``walks_here()`` names the walks a case
runs under on this host, so one test can check both.

(A plain module rather than a conftest attribute, like ``dew_reference``.)
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

import pytest

from repro import kernels

WALKS = ("kernel", "python")
PYTHON_WALK = kernels.Walk(reason="substituted by the test")


def require_kernel() -> None:
    """Skip without a C compiler; fail if there is one and the kernel did not load."""
    walk = kernels.dew_walk()
    if walk.function is not None:
        return
    if kernels.compiler_version() is None:
        pytest.skip(f"no C compiler here: {walk.reason}")
    pytest.fail(f"a C compiler runs here but the DEW kernel did not load: {walk.reason}")


def walks_here() -> tuple:
    """The walks a test runs here: both where a C compiler runs, else the Python walk.

    Where one runs, ``walk_under_test("kernel")`` fails the test if the kernel
    did not load, so the kernel is never dropped silently.
    """
    if kernels.dew_walk().function is not None or kernels.compiler_version() is not None:
        return WALKS
    return ("python",)


@contextlib.contextmanager
def walk_under_test(walk: str) -> Iterator[None]:
    """Simulators built inside the block run ``walk`` (``kernel`` or ``python``)."""
    if walk == "kernel":
        require_kernel()
        yield
        return
    with mock.patch.object(kernels, "dew_walk", lambda: PYTHON_WALK):
        yield
