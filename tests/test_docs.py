"""The documentation surface must exist and may not rot.

Runs the same checks as ``tools/check_docs.py`` (which CI also invokes)
inside tier-1, plus negative tests proving the checker actually catches
the failure modes it exists for.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")
sys.path.insert(0, TOOLS)

import check_docs  # noqa: E402


class TestSurfaceExists:
    def test_readme_and_docs_present(self):
        assert os.path.exists(os.path.join(ROOT, "README.md"))
        assert os.path.exists(os.path.join(ROOT, "docs", "architecture.md"))
        assert os.path.exists(os.path.join(ROOT, "docs", "experiments.md"))

    def test_readme_covers_the_advertised_surface(self):
        with open(os.path.join(ROOT, "README.md")) as handle:
            text = handle.read()
        for needle in ("--backend", "--jobs", "docs/", "examples/",
                       "pip install", "search_dccs"):
            assert needle in text, needle


class TestChecker:
    def test_current_docs_pass(self, capsys):
        assert check_docs.main() == 0
        assert "docs OK" in capsys.readouterr().out

    def test_cli_invocation(self):
        completed = subprocess.run(
            [sys.executable, os.path.join(TOOLS, "check_docs.py")],
            capture_output=True, text=True,
        )
        assert completed.returncode == 0, completed.stderr

    def test_every_fig_benchmark_is_mapped(self):
        assert check_docs.check_figure_benchmarks_mapped() == []

    # -- negative: the checker must catch each failure mode -------------

    def test_detects_broken_markdown_link(self):
        problems = check_docs.check_markdown_links(
            os.path.join(ROOT, "README.md"),
            "see [the guide](docs/no-such-file.md)",
        )
        assert len(problems) == 1
        assert "no-such-file.md" in problems[0]

    def test_detects_dangling_code_span_path(self):
        problems = check_docs.check_code_span_paths(
            os.path.join(ROOT, "docs", "architecture.md"),
            "rebuilt by `src/repro/not_a_module.py` at import time",
        )
        assert len(problems) == 1
        assert "not_a_module.py" in problems[0]

    def test_ignores_external_links_and_plain_code(self):
        assert check_docs.check_markdown_links(
            os.path.join(ROOT, "README.md"),
            "[paper](https://example.org/icde18) and [top](#anchor)",
        ) == []
        assert check_docs.check_code_span_paths(
            os.path.join(ROOT, "README.md"),
            "run `pytest -q` with `PYTHONPATH=src` and `jobs=4`",
        ) == []

    def test_detects_dangling_md_name_in_python(self):
        problems = check_docs.check_md_names(
            os.path.join(ROOT, "src", "repro", "example.py"),
            '"""See DESIGN.md ("Substitutions") and docs/experiments.md."""',
        )
        assert len(problems) == 1
        assert "DESIGN.md" in problems[0]

    def test_md_names_resolve_against_root_file_dir_and_docs(self):
        assert check_docs.check_md_names(
            os.path.join(ROOT, "tools", "example.py"),
            "README.md, docs/experiments.md and architecture.md",
        ) == []

    def test_python_sources_cover_every_checked_tree(self):
        tops = {os.path.relpath(path, ROOT).split(os.sep)[0]
                for path in check_docs.python_sources()}
        assert tops == {"setup.py", "src", "benchmarks", "tools",
                        "examples"}

    @pytest.mark.parametrize("token,is_path", [
        ("src/repro/core/api.py", True),
        ("benchmarks/results/", True),
        ("fig12_datasets.txt", True),
        ("pip install -e .", False),
        ("jobs ∈ {1, 2, 4}", False),
        ("repro.parallel", False),
    ])
    def test_path_heuristic(self, token, is_path):
        assert check_docs._looks_like_repo_path(token) == is_path
