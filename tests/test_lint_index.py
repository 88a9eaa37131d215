"""The per-file AST index that every lint rule and the flow engine share,
and the engine-level failures that must never read as a clean file."""

import ast
import textwrap
from collections import Counter
from pathlib import Path
from typing import Dict

import repro
import repro.bench.cache
from repro.lint import run_lint
from repro.lint.engine import build_context

PACKAGE = Path(repro.__file__).resolve().parent


def _reference_parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """The child -> parent map the rules used to rebuild per file."""
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def test_index_matches_ast_walk():
    ctx = build_context(PACKAGE)
    assert ctx.files
    for info in ctx.files:
        assert info.tree is not None, info.sub
        walked = list(ast.walk(info.tree))
        assert len(info.nodes) == len(walked), info.sub
        assert all(a is b for a, b in zip(info.nodes, walked)), info.sub
        for node_type in {type(n) for n in walked}:
            assert info.nodes_of(node_type) == [
                n for n in walked if type(n) is node_type], (
                info.sub, node_type)
        mix = (ast.Import, ast.ImportFrom, ast.Attribute)
        assert info.nodes_of(*mix) == [
            n for n in walked if isinstance(n, mix)], info.sub
        assert info.nodes_of(ast.Nonlocal, ast.Global) == [
            n for n in walked if isinstance(n, (ast.Nonlocal, ast.Global))]
        assert info.parents == _reference_parents(info.tree), info.sub


def test_whole_tree_lint_walks_each_module_at_most_once(monkeypatch):
    walks: Counter = Counter()
    real_walk = ast.walk

    def counting_walk(node):
        if isinstance(node, ast.Module):
            walks[id(node)] += 1
        return real_walk(node)

    monkeypatch.setattr(ast, "walk", counting_walk)
    report = run_lint(baseline_path=None)
    assert report.checked_files > 100
    assert sum(walks.values()) <= report.checked_files
    assert max(walks.values(), default=0) <= 1


def _write(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def test_unparsable_file_is_a_syntax_finding(tmp_path):
    _write(tmp_path, "sim/broken.py", """
        import time


        def stamp():
            return time.time()


        def half_written(:
            pass
        """)
    _write(tmp_path, "sim/fine.py", """
        def ok():
            return 1
        """)
    report = run_lint(root=tmp_path, baseline_path=None)
    assert report.checked_files == 2
    assert "syntax" in report.rules_run
    [finding] = report.findings
    assert finding.rule == "syntax"
    assert finding.file.endswith("sim/broken.py")
    assert finding.line == 9
    assert "does not parse" in finding.message
    # A rule filter cannot hide it: no rule can check the file.
    filtered = run_lint(root=tmp_path, rule_ids=["wallclock"],
                        baseline_path=None)
    assert [f.rule for f in filtered.findings] == ["syntax"]


def test_fingerprint_failure_is_a_costmodel_finding(monkeypatch):
    def broken(cost):
        raise RuntimeError("fingerprint exploded")

    monkeypatch.setattr(repro.bench.cache, "_canonical", broken)
    report = run_lint(rule_ids=["costmodel-attrs"], baseline_path=None)
    [finding] = report.findings
    assert finding.rule == "costmodel-attrs"
    assert finding.key == "fingerprint-error"
    assert finding.file.endswith("bench/cache.py")
    assert "fingerprint exploded" in finding.message
