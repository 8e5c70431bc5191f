"""The names the benchmark reads must exist in the package.

perfbench/tracing.py wraps qforms functions by name from outside the
package, the workloads and their untimed oracles read qforms attributes,
and the workloads call the CLI with fixed option lists; a deletion or
rename here would only surface when the benchmark runs.  tracing.py
imports nothing but the standard library, so it is loaded from its file
without running the benchmark; the workloads and oracles are only parsed.
"""

import argparse
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import qforms
from qforms import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
MODULES = ("arith", "cache", "characters", "cli", "forms", "sievelab", "stats")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve_in_qforms():
    tracing = _load_tracing()
    names = [*tracing.SPANS, *tracing.COUNTED, *tracing.TIMED]
    assert names
    for name in names:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"qforms.{module}"), attr)), name
    assert callable(qforms.build_sieve)


def test_benchmark_attributes_resolve_in_qforms():
    used = set()
    for name in ("workloads.py", "oracles.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        used |= {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        }
    assert ("forms", "class_group") in used
    for module, attr in sorted(used):
        assert hasattr(importlib.import_module(f"qforms.{module}"), attr), (module, attr)
    # the untimed checks of the tables workload read these off a loaded group
    group = qforms.class_group(-39)
    assert group.h == len(group.classes) == len(group.orders) == 4
    assert group.composition.shape == (4, 4)


def _subcommand_parsers():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_benchmark_cli_options_are_accepted():
    # every argv list literal of the workloads that starts with a subcommand
    # name: each option in it must still be one of that subcommand's options
    parsers = _subcommand_parsers()
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    checked = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.List) and node.elts):
            continue
        words = [e.value if isinstance(e, ast.Constant) else None for e in node.elts]
        if words[0] not in parsers:
            continue
        accepted = parsers[words[0]]._option_string_actions
        for word in words[1:]:
            if isinstance(word, str) and word.startswith("-"):
                assert word in accepted, (words[0], word)
                checked.add(word)
    assert {"-Q", "-N", "--cache", "--mn-limit", "--trials", "--seed"} <= checked
