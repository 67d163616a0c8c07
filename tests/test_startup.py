"""Start-up cost: a library import loads no module that it does not use.

Each probe runs in a fresh interpreter and takes the modules that one import
adds to ``sys.modules``, so what ``site`` preloads does not count.  The probe
prints with ``print`` alone: importing ``json`` to report would hide it."""

import os
import subprocess
import sys

import pytest

import modalred

PROBE = "import sys; before = set(sys.modules); import {}; print(*sorted(set(sys.modules) - before))"


def fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(modalred.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def added_modules(name: str) -> set[str]:
    return set(fresh(PROBE.format(name)).split())


def test_the_library_loads_its_own_modules_without_dataclasses_inspect_or_json():
    added = added_modules("modalred")
    assert {"modalred.syntax", "modalred.kripke", "modalred.solver"} <= added
    assert not added & {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize("name", ["modalred.cli", "modalred.pipeline"])
def test_the_command_line_loads_neither_dataclasses_nor_inspect(name):
    added = added_modules(name)
    assert name in added
    assert not added & {"dataclasses", "inspect"}


def test_a_frozen_field_raises_in_a_fresh_interpreter():
    # the guard imports the error class when it first raises
    code = (
        "from modalred.syntax import MVar\n"
        "try:\n    MVar(1).index = 2\n"
        "except Exception as e:\n    print(type(e).__module__, type(e).__name__, e)"
    )
    assert fresh(code) == "dataclasses FrozenInstanceError cannot assign to field 'index'\n"
