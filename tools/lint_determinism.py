#!/usr/bin/env python3
"""AST lint: determinism rules for fingerprinted engine/sweep code.

The sweep store keys cached results on a code fingerprint and the vector
engine's whole contract is fingerprint-identical replay of the object path —
both break silently if the code under them observes wall clocks, unseeded
randomness, or iteration orders Python does not guarantee.  This lint walks
the ASTs of ``src/repro/engine/`` and ``src/repro/sweep/`` (no imports, no
execution) — plus ``src/repro/fuzz/``, whose seeded search makes the same
bit-reproducibility promise, and ``src/repro/core/``, ``src/repro/crypto/``
and ``src/repro/baselines/``, whose firewall live halves (flood window,
ciphering, SEM queue) run inside the replay contract — and fails on:

``unseeded-random``
    Any use of the module-level ``random.*`` functions (``random.random()``,
    ``random.shuffle`` ...) or a ``random.Random()``/``random.Random(None)``
    instance.  ``random.Random(seed)`` with an explicit argument is fine —
    that is the reproducible form the workload generators use.

``wall-clock``
    ``time.time``/``time_ns``/``monotonic``/``perf_counter`` (and ``_ns``
    variants), ``datetime.now``/``utcnow``/``today``.  Cycle counts come
    from the simulator; host time must never leak into stored results.

``unordered-iteration``
    Iterating (``for``, comprehensions) directly over a ``set`` literal,
    ``set()``/``frozenset()`` call, or an ``os.listdir``/``glob.glob``/
    ``.iterdir()``/``.glob()``/``.rglob()`` result that is not wrapped in
    ``sorted(...)``.  Dict iteration is insertion-ordered and allowed; set
    and directory orders are not part of the language/OS contract.

A line ending in ``# determinism: allow`` waives the finding (use sparingly,
say why).  Run: ``python tools/lint_determinism.py [paths...]``; with no
arguments it checks the default targets.  Exit 1 on findings.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import List, Sequence, Tuple

#: Directories whose code feeds fingerprinted results.
DEFAULT_TARGETS = (
    "src/repro/engine",
    "src/repro/sweep",
    "src/repro/fuzz",
    "src/repro/core",
    "src/repro/crypto",
    "src/repro/baselines",
)

WAIVER = "# determinism: allow"

_WALL_CLOCK_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
_LISTING_CALLS = {"listdir", "glob", "iglob", "iterdir", "rglob", "scandir"}


class Finding(Tuple[str, int, str, str]):
    """(path, line, rule, message)."""

    __slots__ = ()

    def __new__(cls, path: str, line: int, rule: str, message: str) -> "Finding":
        return super().__new__(cls, (path, line, rule, message))


def _call_name(node: ast.AST) -> Tuple[str, str]:
    """(qualifier, attr) of a call target: ``random.shuffle`` -> ("random",
    "shuffle"); a bare name comes back as ("", name)."""
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            return node.value.id, node.attr
        return "?", node.attr
    if isinstance(node, ast.Name):
        return "", node.id
    return "?", "?"


def _is_sorted_wrapped(node: ast.AST, parents: Sequence[ast.AST]) -> bool:
    """Whether the closest enclosing call is ``sorted(...)``/``list(sorted(...))``."""
    for parent in reversed(parents):
        if isinstance(parent, ast.Call):
            qualifier, attr = _call_name(parent.func)
            if attr in ("sorted", "min", "max", "sum", "len", "set", "frozenset"):
                return attr == "sorted"
    return False


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.source_lines = source_lines
        self.findings: List[Finding] = []
        self._stack: List[ast.AST] = []

    # -- plumbing -------------------------------------------------------------

    def generic_visit(self, node: ast.AST) -> None:
        self._stack.append(node)
        super().generic_visit(node)
        self._stack.pop()

    def _waived(self, node: ast.AST) -> bool:
        line_no = getattr(node, "lineno", 0)
        if not line_no or line_no > len(self.source_lines):
            return False
        return WAIVER in self.source_lines[line_no - 1]

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        if not self._waived(node):
            self.findings.append(
                Finding(self.path, getattr(node, "lineno", 0), rule, message)
            )

    # -- unseeded randomness --------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        qualifier, attr = _call_name(node.func)
        if qualifier == "random":
            if attr == "Random":
                if not node.args or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                ):
                    self._report(
                        node, "unseeded-random",
                        "random.Random() without an explicit seed",
                    )
            elif attr == "SystemRandom":
                self._report(
                    node, "unseeded-random",
                    "random.SystemRandom is never reproducible",
                )
            else:
                self._report(
                    node, "unseeded-random",
                    f"module-level random.{attr}() shares unseeded global state",
                )
        if qualifier == "time" and attr in _WALL_CLOCK_TIME:
            self._report(node, "wall-clock", f"time.{attr}() in fingerprinted code")
        if attr in _WALL_CLOCK_DATETIME and qualifier in ("datetime", "date"):
            self._report(
                node, "wall-clock", f"{qualifier}.{attr}() in fingerprinted code"
            )
        self.generic_visit(node)

    # -- unordered iteration --------------------------------------------------

    def _check_iter_source(self, iter_node: ast.AST) -> None:
        if isinstance(iter_node, ast.Set) or (
            isinstance(iter_node, ast.SetComp)
        ):
            self._report(
                iter_node, "unordered-iteration",
                "iterating a set literal/comprehension: order is undefined; "
                "wrap in sorted(...)",
            )
            return
        if isinstance(iter_node, ast.Call):
            qualifier, attr = _call_name(iter_node.func)
            if attr in ("set", "frozenset") and qualifier == "":
                self._report(
                    iter_node, "unordered-iteration",
                    f"iterating {attr}(...): order is undefined; wrap in sorted(...)",
                )
            elif attr in _LISTING_CALLS:
                self._report(
                    iter_node, "unordered-iteration",
                    f"iterating {qualifier + '.' if qualifier else ''}{attr}(...): "
                    "filesystem order is OS-dependent; wrap in sorted(...)",
                )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter_source(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self._check_iter_source(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # ``sorted(glob.glob(...))`` arrives as a Call argument, not a For iter —
    # catch naked listing calls used as plain expressions too (e.g. passed
    # straight to another consumer) only when they feed a loop; argument
    # positions inside sorted() are fine by construction.


def lint_source(source: str, path: str = "<memory>") -> List[Finding]:
    """Lint one module's source text; returns findings (empty = clean)."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, source.splitlines())
    linter.visit(tree)
    linter.findings.sort(key=lambda f: (f[0], f[1], f[2]))
    return linter.findings


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for raw in paths:
        root = pathlib.Path(raw)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            findings.extend(
                lint_source(file.read_text(encoding="utf-8"), str(file))
            )
    return findings


def main(argv: Sequence[str]) -> int:
    targets = list(argv) or [
        target for target in DEFAULT_TARGETS if pathlib.Path(target).exists()
    ]
    findings = lint_paths(targets)
    for path, line, rule, message in findings:
        print(f"{path}:{line}: [{rule}] {message}")
    if findings:
        print(f"\n{len(findings)} determinism finding(s) "
              f"(waive a line with `{WAIVER}` and a reason)", file=sys.stderr)
        return 1
    print(f"determinism lint: {len(targets)} target(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
