"""The package's public surface, and the part of it the traced bench
calls: ``perfbench/tracing.py`` looks every kernel up by name through
``api("...")``, so a name dropped from ``growthlab.__all__`` would turn
its traced job into a failed one.  The names are resolved lazily, on
first access, so importing the package loads none of its kernels."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    assert len(set(growthlab.__all__)) == len(growthlab.__all__)
    missing = [n for n in growthlab.__all__ if not hasattr(growthlab, n)]
    assert missing == []


def test_traced_bench_names_are_exported():
    names = set(re.findall(r'\bapi\("([^"]+)"\)', TRACING.read_text()))
    assert {"enumerate_balls", "theta_coefficients"} <= names
    assert sorted(names - set(growthlab.__all__)) == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from growthlab import *", namespace)
    assert sorted(set(growthlab.__all__) - set(namespace)) == []


def test_dir_lists_every_exported_name():
    assert sorted(set(growthlab.__all__) - set(dir(growthlab))) == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        growthlab.no_such_name
    assert not hasattr(growthlab, "no_such_name")


# a child that imports the bare package, checks that it loaded no
# submodule, then resolves the names given on its command line and
# prints the growthlab modules it ended with
RESOLVE = """
import sys
import growthlab
assert [m for m in sys.modules if m.startswith("growthlab.")] == []
for name in sys.argv[1:]:
    getattr(growthlab, name)
print(" ".join(sorted(m for m in sys.modules if m.startswith("growthlab."))))
"""


@pytest.mark.parametrize("module", sorted(growthlab._EXPORTS))
def test_exported_names_resolve_in_a_fresh_process(module):
    # one process per submodule: the first of its names imports it first,
    # before any other growthlab module, which is the order a circular
    # import would break in; its other names then come from that module
    names = growthlab._EXPORTS[module]
    src = str(Path(growthlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", RESOLVE, *names],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert f"growthlab.{module}" in proc.stdout.split()
