"""PL002 — oracle pairing.

Every fast path in this repo is pinned to a bit-identical slow oracle
(``update_batch``/``update_batch_naive``, ``CompiledNetlist``/
``LoopSimulator``, ``generate``/``generate_loop``, ...).  Fast paths live in
``src/``; their oracles live in the test-only ``tests/oracles/`` package.
The registry in :mod:`polaris_lint.contracts` names those pairs; this rule
verifies that

1. both sides of each pair still exist in the modules that own them (a
   refactor must not silently drop an oracle), and
2. at least one test module outside ``tests/oracles/`` references the pair
   together (an oracle nobody compares against pins nothing).  The lint's
   own tests spell every pair in their fixtures, so they never count.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from ..contracts import (LINT_TEST_MODULES, ORACLE_PACKAGE, ORACLE_PAIRS,
                         OraclePair)
from ..core import Finding, ProjectRule, Severity, SourceFile, register

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _symbol_line(file: SourceFile, name: str) -> Optional[int]:
    """Line of a function/method/class definition called ``name``, or None."""
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if isinstance(node, _DEFINITIONS) and node.name == name:
            return node.lineno
    return None


def _references_pair(text: str, pair: OraclePair) -> bool:
    """Whether one test module mentions both sides of the pair."""
    return (re.search(rf"\b{re.escape(pair.fast)}\b", text) is not None
            and re.search(rf"\b{re.escape(pair.oracle)}\b", text) is not None)


@register
class OraclePairingRule(ProjectRule):
    """Fast paths must keep their bit-identical oracles, and tests must
    exercise the pair."""

    rule_id = "PL002"
    severity = Severity.ERROR
    title = "oracle pairing: every fast path keeps a tested oracle"

    def _finding(self, path: str, line: int, message: str) -> None:
        self.findings.append(Finding(
            rule=self.rule_id, severity=self.severity, path=path, line=line,
            col=0, message=message))

    def _locate(self, project, pair: OraclePair, path: str, name: str,
                side: str) -> Optional[int]:
        """Line of one side of ``pair`` in ``path``, or None (recording a
        finding) when the definition is gone."""
        line = _symbol_line(project.file(path), name)
        if line is None:
            suffix = ("" if side == "fast-path" else
                      " — fast paths must keep their bit-identical reference")
            self._finding(path, 1, f"oracle pair '{pair.pair_id}': {side} "
                                   f"function/method/class {name!r} no "
                                   f"longer exists{suffix}")
        return line

    def run_project(self, project) -> list:
        self.findings = []
        for pair in ORACLE_PAIRS:
            missing = [path for path in (pair.module, pair.oracle_module)
                       if project.file(path) is None
                       or project.file(path).tree is None]
            for path in missing:
                self._finding(path, 1, f"oracle pair '{pair.pair_id}': "
                                       f"module {path} is missing or "
                                       f"unparsable")
            if missing:
                continue
            fast_line = self._locate(project, pair, pair.module, pair.fast,
                                     "fast-path")
            oracle_line = self._locate(project, pair, pair.oracle_module,
                                       pair.oracle, "oracle")
            if fast_line is None or oracle_line is None:
                continue
            if not any(_references_pair(text, pair)
                       for rel, text in project.test_texts().items()
                       if not rel.startswith(ORACLE_PACKAGE)
                       and rel not in LINT_TEST_MODULES):
                self._finding(pair.module, fast_line,
                              f"oracle pair '{pair.pair_id}': no module under "
                              f"tests/ references {pair.fast!r} and "
                              f"{pair.oracle!r} together — the oracle is "
                              f"untested")
        return self.findings
