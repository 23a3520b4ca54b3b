"""Run the simulators under a chosen walk inside a test.

``walk_under_test("python")`` substitutes the kernel loader for every entry
of :data:`repro.kernels.KERNELS`, so simulators built inside the block run
their Python walks.  ``walk_under_test("kernel")`` requires the compiled
walks: the test skips when no C compiler runs here (``$CC --version``
fails, as with ``CC=false``) and fails when one does but any kernel still
does not load.  ``walks_here()`` names the walks a case runs under on this
host, so one test can check both.

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
    """Skip without a C compiler; fail if there is one and any kernel did not load."""
    failed = {
        name: walk.reason
        for name, walk in ((name, kernels.load(name)) for name in kernels.KERNELS)
        if walk.function is None
    }
    if not failed:
        return
    if kernels.compiler_version() is None:
        pytest.skip(f"no C compiler here: {', '.join(sorted(set(failed.values())))}")
    pytest.fail(f"a C compiler runs here but kernels did not load: {failed}")


def walks_here() -> tuple:
    """The walks a test runs here: both where a C compiler runs, else the Python walk.

    Where one runs, ``walk_under_test("kernel")`` fails the test if any
    kernel did not load, so a kernel is never dropped silently.
    """
    if all(
        kernels.load(name).function is not None for name in kernels.KERNELS
    ) or kernels.compiler_version() is not None:
        return WALKS
    return ("python",)


@contextlib.contextmanager
def walk_under_test(walk: str) -> Iterator[None]:
    """Simulators built inside the block run ``walk`` (``kernel`` or ``python``)."""
    if walk == "kernel":
        require_kernel()
        yield
        return
    with mock.patch.object(kernels, "load", lambda name: PYTHON_WALK):
        yield
