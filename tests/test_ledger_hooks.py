"""The functions the ledger's traced run wraps still exist by name.

``ledger/layers.py`` wraps every target through
``owner.__dict__[attribute]``, so renaming or deleting one of them makes
every ``ledger/run.py --trace 1`` run raise ``KeyError``.  This loads
the ledger's target list and checks each binding, without running a
workload.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parent.parent / "ledger"


def _load_layers():
    if str(LEDGER) not in sys.path:  # layers.py imports its siblings
        sys.path.insert(0, str(LEDGER))
    spec = importlib.util.spec_from_file_location(
        "ledger_layers", LEDGER / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_layers()._targets()


@pytest.mark.parametrize(
    "owner, attribute",
    [(owner, attribute) for owner, attribute, *_ in TARGETS],
    ids=[f"{name}:{attribute}" for _, attribute, name, *_ in TARGETS],
)
def test_ledger_hook_is_bound(owner, attribute):
    assert attribute in owner.__dict__, (
        f"ledger/layers.py wraps {getattr(owner, '__name__', owner)}.{attribute}"
    )
