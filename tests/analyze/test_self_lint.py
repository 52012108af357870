"""Repo self-lint (tools/lint_repro.py): seeded positives + src/ is clean."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
TOOL = os.path.join(REPO_ROOT, "tools", "lint_repro.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import lint_repro  # noqa: E402


def _lint_source(source: str, tmp_path):
    target = tmp_path / "sample.py"
    target.write_text(textwrap.dedent(source))
    return lint_repro.lint_file(str(target))


class TestBareExcept:
    def test_bare_except_flagged(self, tmp_path):
        findings = _lint_source(
            """
            try:
                work()
            except:
                pass
            """,
            tmp_path,
        )
        assert [f[2] for f in findings] == ["bare-except"]
        assert "CrashPoint" in findings[0][3]

    def test_base_exception_flagged(self, tmp_path):
        findings = _lint_source(
            """
            try:
                work()
            except BaseException:
                log()
            """,
            tmp_path,
        )
        assert [f[2] for f in findings] == ["bare-except"]

    def test_reraising_handler_allowed(self, tmp_path):
        findings = _lint_source(
            """
            try:
                work()
            except BaseException:
                cleanup()
                raise
            """,
            tmp_path,
        )
        assert findings == []

    def test_except_exception_allowed(self, tmp_path):
        findings = _lint_source(
            """
            try:
                work()
            except Exception:
                pass
            """,
            tmp_path,
        )
        assert findings == []


class TestMutableDefaults:
    def test_list_literal_default(self, tmp_path):
        findings = _lint_source("def f(x, acc=[]):\n    return acc\n", tmp_path)
        assert [f[2] for f in findings] == ["mutable-default-arg"]
        assert "'acc'" in findings[0][3]

    def test_dict_call_default(self, tmp_path):
        findings = _lint_source("def f(opts=dict()):\n    return opts\n", tmp_path)
        assert [f[2] for f in findings] == ["mutable-default-arg"]

    def test_kwonly_default(self, tmp_path):
        findings = _lint_source("def f(*, acc={}):\n    return acc\n", tmp_path)
        assert [f[2] for f in findings] == ["mutable-default-arg"]

    def test_none_default_allowed(self, tmp_path):
        findings = _lint_source("def f(x, acc=None, n=0):\n    return acc\n", tmp_path)
        assert findings == []


class TestRepoIsClean:
    def test_src_has_no_findings(self):
        """The satellite guarantee: the shipped tree passes its own lint."""
        assert lint_repro.lint_tree(os.path.join(REPO_ROOT, "src")) == []

    def test_cli_exit_codes(self, tmp_path):
        clean = subprocess.run(
            [sys.executable, TOOL, os.path.join(REPO_ROOT, "src")],
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    x()\nexcept:\n    pass\n")
        dirty = subprocess.run(
            [sys.executable, TOOL, str(tmp_path)], capture_output=True, text=True
        )
        assert dirty.returncode == 1
        assert "[bare-except]" in dirty.stdout


#: The environment switches the engine reads; any other setting is an argument.
ENV_SWITCHES = {"REPRO_SANITIZE", "REPRO_VERIFY_PLANS", "REPRO_WORKERS", "REPRO_PARALLEL"}


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _env_keys(tree):
    """Keys of every environment read: ``environ.get/[]/in`` and ``getenv``.

    A key that is not a string literal comes back as ``"<dynamic>"``."""
    for node in ast.walk(tree):
        keys = []
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "getenv" or (isinstance(func, ast.Attribute) and _is_environ(func.value)):
                keys = node.args[:1]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            keys = [node.slice]
        elif isinstance(node, ast.Compare) and any(map(_is_environ, node.comparators)):
            keys = [node.left]
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value
            else:
                yield "<dynamic>"


class TestEnvironmentSwitches:
    def test_src_reads_exactly_the_documented_switches(self):
        found = set()
        for root, _, files in os.walk(os.path.join(REPO_ROOT, "src", "repro")):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(root, name), encoding="utf-8") as fh:
                        found.update(_env_keys(ast.parse(fh.read())))
        assert found == ENV_SWITCHES

    def test_scanner_sees_every_read_form(self):
        tree = ast.parse(
            "import os\n"
            "os.environ.get('REPRO_A')\n"
            "os.environ['REPRO_B']\n"
            "'REPRO_C' in os.environ\n"
            "os.getenv('REPRO_D', '')\n"
            "os.environ.get(name)\n"
        )
        assert set(_env_keys(tree)) == {"REPRO_A", "REPRO_B", "REPRO_C", "REPRO_D", "<dynamic>"}

    def test_readme_lists_the_same_switches(self):
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        section = readme.split("### Environment switches", 1)[1].split("\n#", 1)[0]
        listed = set(re.findall(r"^- `(REPRO_[A-Z_]+)", section, re.MULTILINE))
        assert listed == ENV_SWITCHES
