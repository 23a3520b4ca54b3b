"""What importing the package loads, and the CLI's help text.

Importing a package, or the CLI, loads only what the caller then uses: the
package ``__init__`` files re-export lazily (:mod:`repro._lazy`), the
engine registry is a table whose modules load on first lookup, and each CLI
command imports what it runs.  These tests compare module sets in a fresh
interpreter, never timings.  The help digests pin every subcommand's
``--help`` text, so moving the parser's constants out of the modules that
import numpy changed no option, default or choice.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.engine.base import ENGINES

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The ``repro`` modules building the CLI's parser may load: the CLI, the
#: package ``__init__`` files holding the constants its parser reads, and
#: the two modules they import.
LIGHT_MODULES = {
    "repro",
    "repro._lazy",
    "repro._version",
    "repro.cli",
    "repro.errors",
    "repro.service",
    "repro.store",
    "repro.workloads",
}

#: Every package that re-exports names.
PACKAGES = (
    "repro",
    "repro.bench",
    "repro.cache",
    "repro.core",
    "repro.engine",
    "repro.explore",
    "repro.lru",
    "repro.mechanisms",
    "repro.obs",
    "repro.service",
    "repro.store",
    "repro.trace",
    "repro.verify",
    "repro.workloads",
)


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; it prints one JSON value."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


def test_building_the_cli_parser_imports_no_numpy():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.cli\n"
        "repro.cli.build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "numpy" not in loaded
    assert {name for name in loaded if name.split(".")[0] == "repro"} == LIGHT_MODULES


def test_importing_the_sweep_imports_every_engine_module():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.engine.sweep\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    modules = {module for module, _ in ENGINES.values()}
    assert modules == {
        "repro.core.dew",
        "repro.cache.simulator",
        "repro.lru.janapsatya",
        "repro.mechanisms.engines",
    }
    assert modules <= set(loaded)
    # The plane cache's management helpers import the store's operator
    # surface where they run; a sweep needs none of it, and only a pooled
    # sweep needs multiprocessing, which it imports where the pool starts.
    assert "repro.store.manage" not in loaded
    assert "multiprocessing" not in loaded


def test_the_registry_imports_an_engine_module_on_its_first_lookup():
    keys, before, after, family = _fresh(
        "import json, sys\n"
        "from repro.engine.base import available_engines, get_engine_class\n"
        "keys = available_engines()\n"
        "before = sorted(sys.modules)\n"
        "cls = get_engine_class('janapsatya')\n"
        "print(json.dumps([keys, before, sorted(sys.modules), cls.family]))\n"
    )
    assert keys == sorted(ENGINES)
    assert not {module for module, _ in ENGINES.values()} & set(before)
    assert "repro.lru.janapsatya" in after and "repro.core.dew" not in after
    assert family == "janapsatya"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_resolves_every_exported_name(package):
    missing = _fresh(
        "import importlib, json\n"
        f"namespace = {{}}\n"
        f"exec('from {package} import *', namespace)\n"
        f"exported = importlib.import_module({package!r}).__all__\n"
        "print(json.dumps([name for name in exported if name not in namespace]))\n"
    )
    assert missing == []


def test_lazy_exports_are_the_defining_objects():
    from repro.core.dew import DewSimulator
    from repro.engine.sweep import run_sweep
    from repro.service.queue import JobQueue

    assert repro.DewSimulator is DewSimulator
    assert repro.engine.run_sweep is run_sweep
    assert repro.service.JobQueue is JobQueue
    assert "DewSimulator" in dir(repro) and "trace" in dir(repro)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        repro.not_a_name  # noqa: B018


def _commands(parser: argparse.ArgumentParser, path=()):
    """Every command path of ``parser``: ``()``, ``("store",)``, ``("store", "ls")``, ..."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, (*path, name))


def _help_text(path) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(SystemExit) as exited:
        main([*path, "--help"])
    assert exited.value.code == 0
    return buffer.getvalue()


def _help_digest(text: str) -> str:
    """SHA-256 of ``text`` with its whitespace runs collapsed: argparse wraps
    lines differently across Python versions, and Python 3.10 titles the
    options section ``optional arguments:``."""
    text = text.replace("optional arguments:", "options:")
    return hashlib.sha256(" ".join(re.split(r"\s+", text.strip())).encode()).hexdigest()


#: Taken at the commit before the CLI imported lazily, with ``COLUMNS=80``.
HELP_DIGESTS = {
    "": "305e494fc6f18ea45841075293dfd09fcb9c514ff0a0b7aea271fb19b60c0786",
    "baseline": "e54ad5d6d72eeed2c12bf66a8c7735e451bb0591646b1a99b1563a182c187689",
    "cancel": "363f08b8c33def1ce4120adff7ff0d4de91a97b5a56233f4099673fa8471357b",
    "dew": "e7465f2b94da0eee3ef71c45bc7a5c9d3c3f96f4ef4a16bee3f66e1c43a68479",
    "explore": "2eedc23a6829583473137f3e11eacddb926f42c98bfc2dc6b141cca451022a08",
    "explore pareto": "e3962cff928a04ce55d475684fecb334c8bfa513d4ab995790eccd2d5ebe7ed7",
    "explore tune": "d76a80843414f9182196f0aa3d03d99698bf9c12f8d9a0198cc0511f42c55919",
    "generate": "9c9c314b3e3f1843d60c74b90956d6de2434f3b10eb609370dd4599466d291b6",
    "metrics": "755e1630dee5382ce18c4e2bec18d8f13d1564f6e2f927878864c9b5f313a62e",
    "queue": "50da0db256a7fbe6811e6c0e05f05442fba83706f1d1e10d6fbead2f99d5d07f",
    "queue gc": "2fd262038aca968501bde9175d35961b2e6057a34945a6dcbbd13c521595f9f8",
    "queue ls": "d03f695869df5dfbf19a31a7835ecf8bac11401a9696741ff0bb3d403be474a8",
    "queue stats": "994246fdb2ded63b36a3648d66280bd8f005067d0c1026bf406cc0cc81f9d940",
    "queue top": "4254e278912fe9e6ea4bbe48520951fd644baf3314f48737a193caaa40cafb61",
    "reproduce": "98ea74a0c5b7d15df42dc31de1de5e4effbd3e9406edc3f86dbd499d39d0ee0b",
    "result": "7f3fa930d7edfa85cba2f48d12f09b4affc29c4cb740e8c37ae6546bfbf3572a",
    "serve": "9929721b24514721c2d214fde3fb8c01faea3f350a37c5696a96b0ad5857adba",
    "status": "80d64ab023ade2a2aa5f788f135e4eee6bcb64030339ba40b98caf2fe87358a4",
    "store": "daa7aced6f2b9d27eec351f00c1c087154500a71b0147a64d83d7fda9673bc0d",
    "store export": "94d2f8c7317677c62ec0937745a6b8af3172d75ea1d5379ab4ce222ab5cffd1b",
    "store gc": "608ed0923a692fffab45c07569412ffe790f849a104ff1e3142a752803b8d205",
    "store import": "3e323cf8e2932f712b58b953e4efd43ec9cfd8d98445be182a933adaed1f8beb",
    "store ls": "9add2c909daacbfa179063e748960789474fe178266f910899e1adf05bbf824f",
    "store verify": "7b8cb427c0251c1a89da3c9c513a882a05bf4dbd8dc218f1536962071cfcd230",
    "submit": "f1cf3518d14f82894e2dde578349d791b4a382dddc7f8320d5562250fe84977e",
    "sweep": "cb4b35dc0ea3db8b63b4fec5f6dd51fbaed93ce14ae1f77c8df3d9f826cffa67",
    "trace": "292ce927cd8bdd4bc5407739b4f09877bb2431f16da947f1c591cad252c682bc",
    "trace cache": "1505cf4b99751a2c6d287f7a95acbc211121dcba8c65e8c93780e4407d88db36",
    "trace cache gc": "6b7e3ae9b54dbd8e9190ac17855f214c3340ce1db14ded94d1f14cfa25422393",
    "trace cache ls": "4995d20552f463d7da8e79371e7979fa00cc7c3cf6876929edf87a1a10b1ee9d",
    "trace cache verify": "11b54e0e2c00f0b30f08ba9019fd5a114c938c323f9540f48be04b77c22f4d7c",
    "trace cache warm": "bc03274cb614704c9e836616bf096b2a9c0a229c0a1b0fb348c2d823fc06b2d6",
    "verify": "e708e23454be35f9bae09ef77d61b37b89d439161a79b716485e499c8948849f",
}


@pytest.fixture
def help_texts(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    return {" ".join(path): _help_text(path) for path in _commands(build_parser())}


def test_every_command_help_matches_its_digest(help_texts):
    digests = {name: _help_digest(text) for name, text in help_texts.items()}
    assert digests == HELP_DIGESTS
