"""The package's public surface, and the part of it the traced bench
calls: ``perfbench/tracing.py`` looks every kernel up by name through
``api("...")``, so a name dropped from ``growthlab.__all__`` would turn
its traced job into a failed one."""

import re
from pathlib import Path

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
