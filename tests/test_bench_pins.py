"""The benchmark's traced run wraps cflab functions by name (perfbench/spans.py).

A rename, or a renamed parameter that a counter or tag reads, would break
only the traced benchmark run; these checks make tier-1 see it first.
perfbench/ is read here, never changed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path
from unittest import mock

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = _load_spans().ENTRY_POINTS


class _Arguments(dict):
    """Bound arguments that record every parameter name looked up."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __missing__(self, key):
        self.read.add(key)
        return mock.MagicMock()


def _parameters_read(counters, tag) -> set:
    args = _Arguments()
    for count in counters.values():
        for result in (None, mock.MagicMock()):  # a detector reads horizon only on a miss
            try:
                count(args, result)
            except (TypeError, AttributeError):  # len(None), None.size
                pass
    if tag:
        tag(args)
    return args.read


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: e[2])
def test_entry_point_is_pinned(entry):
    owner, attr, _, counters, tag = entry
    assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"
    params = inspect.signature(owner.__dict__[attr]).parameters
    missing = _parameters_read(counters, tag) - set(params)
    assert not missing, f"{owner.__name__}.{attr} lost parameters {sorted(missing)}"


def test_parameter_discovery_finds_every_read_name():
    read = set()
    for _, _, _, counters, tag in ENTRY_POINTS:
        read |= _parameters_read(counters, tag)
    assert read >= {"config", "horizon", "k", "limit", "N"}
