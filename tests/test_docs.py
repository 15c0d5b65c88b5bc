"""The docs are part of the test surface.

Three gates keep ``docs/`` honest (the CI ``docs-check`` job runs this
module on every push):

* every fenced ``python`` block in the quickstart executes, in page
  order, in one shared namespace — the page is a runnable script;
* every ``pycon``/doctest example in the docs tree passes ``doctest``;
* every relative markdown link in ``docs/`` and the README resolves to
  a real file;
* every ``python -m repro`` command in a ``console`` or ``bash`` block
  parses with the CLI's own parser.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
QUICKSTART = DOCS_DIR / "quickstart.md"

_FENCE = re.compile(r"^```(\w*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_REPRO_COMMAND = re.compile(r"\bpython -m repro (.*)")


def fenced_blocks(path, language):
    """Yield ``(start_line, source)`` for every ``language`` fence in ``path``."""
    blocks, current, start = [], None, 0
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _FENCE.match(line.strip())
        if match and current is None and match.group(1) == language:
            current, start = [], lineno + 1
        elif match and current is not None:
            blocks.append((start, "\n".join(current)))
            current = None
        elif current is not None:
            current.append(line)
    return blocks


def shell_commands(path):
    """``(line, command)`` for every command in ``path``'s ``console`` and
    ``bash`` blocks, with lines continued by ``\\`` joined."""
    commands = []
    for language in ("console", "bash"):
        for start, source in fenced_blocks(path, language):
            parts, first = [], start
            for lineno, line in enumerate(source.splitlines(), start=start):
                if not parts:
                    first = lineno
                line = line.rstrip()
                parts.append(line.removesuffix("\\"))
                if not line.endswith("\\"):
                    commands.append((first, " ".join(parts)))
                    parts = []
    return commands


def doc_pages():
    return sorted(DOCS_DIR.glob("*.md"))


def test_docs_exist():
    names = {page.name for page in doc_pages()}
    assert {
        "index.md",
        "quickstart.md",
        "operations.md",
        "architecture.md",
        "kernels.md",
        "approximation.md",
    } <= names


def test_quickstart_python_blocks_execute_in_order():
    """The quickstart is a runnable script: blocks share one namespace."""
    blocks = fenced_blocks(QUICKSTART, "python")
    assert len(blocks) >= 5, "quickstart lost its executable examples"
    namespace = {}
    for start, source in blocks:
        code = compile(source, f"{QUICKSTART.name}:{start}", "exec")
        exec(code, namespace)  # assertions inside the blocks are the test


@pytest.mark.parametrize(
    "page", [p for p in doc_pages() if p.name != "quickstart.md"], ids=lambda p: p.name
)
def test_other_docs_python_blocks_execute(page):
    """Non-quickstart pages get a fresh namespace per page."""
    namespace = {}
    for start, source in fenced_blocks(page, "python"):
        code = compile(source, f"{page.name}:{start}", "exec")
        exec(code, namespace)


@pytest.mark.parametrize("page", doc_pages(), ids=lambda p: p.name)
def test_docs_doctests_pass(page):
    """``pycon`` examples in the docs are real doctests."""
    if ">>>" not in page.read_text():
        pytest.skip("no doctest examples on this page")
    failures, _ = doctest.testfile(
        str(page), module_relative=False, optionflags=doctest.ELLIPSIS
    )
    assert failures == 0


@pytest.mark.parametrize(
    "page",
    [*doc_pages(), REPO_ROOT / "README.md"],
    ids=lambda p: p.name,
)
def test_no_dead_relative_links(page):
    dead = []
    for target in _LINK.findall(page.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = (page.parent / target.split("#", 1)[0]).resolve()
        if not path.exists():
            dead.append(f"{page.name}: {target}")
    assert not dead, dead


def test_docs_console_commands_parse():
    """Every ``python -m repro`` command the docs show parses with the
    CLI's parser, so a removed subcommand or flag takes its examples with
    it."""
    from repro.__main__ import build_parser

    checked, stale = 0, []
    for page in doc_pages():
        for lineno, command in shell_commands(page):
            match = _REPRO_COMMAND.search(command)
            if match is None:
                continue
            checked += 1
            try:
                build_parser().parse_args(
                    shlex.split(match.group(1), comments=True)
                )
            except SystemExit:
                stale.append(f"{page.name}:{lineno}: {command}")
    assert checked, "no repro commands found in the docs"
    assert not stale, stale
