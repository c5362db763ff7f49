#!/usr/bin/env python3
"""Link and reference checker for the documentation surface.

Run from anywhere (``python tools/check_docs.py``); CI runs it on every
push, and ``tests/test_docs.py`` runs the same checks inside tier-1, so
README/docs rot is caught even in a plain local test run.

Checked documents: ``README.md`` and every ``docs/*.md``.  Five rules:

1. every relative markdown link target resolves to an existing file or
   directory (anchors stripped; ``http(s)``/``mailto`` links are out of
   scope — no network in CI);
2. every repo path mentioned in inline code spans resolves: tokens
   containing ``/`` and ending in a known suffix (or ``/`` for
   directories) are treated as repo-root-relative paths, and bare
   ``*.txt`` tokens as ``benchmarks/results/`` entries;
3. every figure benchmark on disk (``benchmarks/test_fig*.py``) is
   mentioned in ``docs/experiments.md`` — the figure mapping table may
   not silently fall behind the bench suite;
4. every ``*.md`` name in the Python sources (``src/``, ``benchmarks/``,
   ``tools/``, ``examples/`` and ``setup.py``) resolves: against the
   repo root, the citing file's directory or ``docs/``;
5. every ``--flag`` in the checked documents is an option of some
   ``repro`` subcommand (``repro.cli.build_parser()``); a name followed
   by ``(``, like the ``--freeze()-->`` arrows of a diagram, is not a
   flag.
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")
PYTHON_DIRS = ("src", "benchmarks", "tools", "examples")
PATH_SUFFIXES = (".py", ".md", ".txt", ".json", ".yml", ".yaml", ".toml")
FLAG = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)(?![\w(-])")
RESULTS_DIR = "benchmarks/results"


def checked_documents():
    documents = [os.path.join(ROOT, "README.md")]
    documents += sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    return documents


def _exists(path):
    return os.path.exists(os.path.join(ROOT, path))


def check_markdown_links(path, text):
    """Rule 1: relative markdown link targets must resolve."""
    problems = []
    base = os.path.relpath(os.path.dirname(path), ROOT)
    for target in MD_LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue  # pure in-page anchor
        resolved = os.path.normpath(os.path.join(base, target))
        if not _exists(resolved):
            problems.append(
                "{}: broken link target {!r}".format(
                    os.path.relpath(path, ROOT), target
                )
            )
    return problems


def _looks_like_repo_path(token):
    if any(ch in token for ch in " *{}$<>="):
        return False
    if "/" in token:
        return token.endswith(PATH_SUFFIXES) or token.endswith("/")
    return token.endswith(".txt")


def check_code_span_paths(path, text):
    """Rule 2: inline-code repo paths must resolve."""
    problems = []
    for token in CODE_SPAN.findall(text):
        token = token.strip()
        if not _looks_like_repo_path(token):
            continue
        candidate = token.rstrip("/")
        if "/" not in token:
            candidate = os.path.join(RESULTS_DIR, token)
        if not _exists(candidate):
            problems.append(
                "{}: dangling path reference `{}`".format(
                    os.path.relpath(path, ROOT), token
                )
            )
    return problems


def check_figure_benchmarks_mapped():
    """Rule 3: docs/experiments.md covers every fig benchmark on disk."""
    experiments = os.path.join(ROOT, "docs", "experiments.md")
    if not os.path.exists(experiments):
        return ["docs/experiments.md is missing"]
    with open(experiments) as handle:
        text = handle.read()
    problems = []
    pattern = os.path.join(ROOT, "benchmarks", "test_fig*.py")
    for bench in sorted(glob.glob(pattern)):
        name = os.path.basename(bench)
        if name not in text:
            problems.append(
                "docs/experiments.md: benchmarks/{} is not in the "
                "figure mapping table".format(name)
            )
    return problems


def python_sources():
    """The Python files whose ``*.md`` names rule 4 checks."""
    sources = [os.path.join(ROOT, "setup.py")]
    for directory in PYTHON_DIRS:
        pattern = os.path.join(ROOT, directory, "**", "*.py")
        sources += sorted(glob.glob(pattern, recursive=True))
    return sources


def check_md_names(path, text):
    """Rule 4: every ``*.md`` name in a Python file must resolve."""
    problems = []
    bases = ("", os.path.relpath(os.path.dirname(path), ROOT), "docs")
    for name in MD_NAME.findall(text):
        if not any(_exists(os.path.join(base, name)) for base in bases):
            problems.append("{}: no document named {!r}".format(
                os.path.relpath(path, ROOT), name))
    return problems


def cli_flags():
    """Every option string of ``repro`` and of each of its subcommands."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.cli import build_parser

    flags = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(action.option_strings)
            if isinstance(action.choices, dict):
                parsers.extend(action.choices.values())
    return flags


def check_cli_flags(path, text, flags):
    """Rule 5: every ``--flag`` must be an option of the CLI."""
    return [
        "{}: {} is not an option of any repro subcommand".format(
            os.path.relpath(path, ROOT), flag)
        for flag in FLAG.findall(text) if flag not in flags
    ]


def main():
    problems = []
    flags = cli_flags()
    for path in checked_documents():
        if not os.path.exists(path):
            problems.append("missing document: {}".format(
                os.path.relpath(path, ROOT)
            ))
            continue
        with open(path) as handle:
            text = handle.read()
        problems += check_markdown_links(path, text)
        problems += check_code_span_paths(path, text)
        problems += check_cli_flags(path, text, flags)
    problems += check_figure_benchmarks_mapped()
    for path in python_sources():
        with open(path) as handle:
            problems += check_md_names(path, handle.read())
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print("{} documentation problem(s)".format(len(problems)),
              file=sys.stderr)
        return 1
    print("docs OK: {} documents checked".format(len(checked_documents())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
