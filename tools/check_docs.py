#!/usr/bin/env python
"""Documentation link-and-reference audit.

Walks README.md, EXPERIMENTS.md, DESIGN.md, ROADMAP.md and every
``docs/*.md`` page and fails on:

* relative markdown links whose target file does not exist;
* backticked path references (``docs/foo.md``, ``src/repro/...``,
  ``benchmarks/test_*.py``, ``tests/...``, ``examples/...``) that do
  not resolve to a file or directory in the repo;
* backticked ``repro.<module>`` dotted references that do not import;
* ``repro <subcommand>`` invocations naming a CLI command that does
  not exist, or ``--flags`` on the same line that the named command
  does not accept.

It also walks every ``src/**/*.py`` file and fails on a Sphinx
cross-reference role (``:meth:``, ``:func:``, ``:class:``, ``:attr:``,
``:mod:``, ``:data:``, ``:exc:``) whose dotted ``repro.…`` target does
not resolve, so a docstring cannot outlive the symbol it names; on a
prefetcher configuration name (``available_prefetchers()``) that
``docs/prefetchers.md`` never shows in backticks, so the catalog and
the configuration table cannot drift apart; and on a predicate class
that ``repro.paperclaims`` exports but ``docs/paperclaims.md`` never
shows in backticks, so the predicate set and its doc cannot either.

Run directly (``python tools/check_docs.py``) or via CI's docs job.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

DOC_FILES = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    ROOT / "ROADMAP.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE = re.compile(r"`([^`]+)`")
_PATHLIKE = re.compile(
    r"^(docs|src|benchmarks|tests|tools|examples)/[\w./*-]+$")
_MODULE = re.compile(r"^repro(\.[A-Za-z_][\w.]*)+$")
_CLI = re.compile(
    r"(?<!from )(?:python -m )?\brepro ([a-z][a-z-]+)((?: [^\n|]*)?)")
_FLAG = re.compile(r"--[a-z][a-z-]*")
# A docstring role naming a dotted repro target; the target may wrap
# across lines, so whitespace inside it is dropped before resolving.
_ROLE = re.compile(
    r":(?:meth|func|class|attr|mod|data|exc):`~?(repro\.[\w.\s]+?)`")
SOURCE_FILES = sorted((ROOT / "src").rglob("*.py"))
CATALOG = ROOT / "docs" / "prefetchers.md"
CLAIMS_DOC = ROOT / "docs" / "paperclaims.md"


def _cli_commands() -> dict[str, set[str]]:
    """``{subcommand: accepted --flags}`` from the live parser."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    commands: dict[str, set[str]] = {}
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            for name, sub in action.choices.items():
                commands[name] = {
                    opt for sub_action in sub._actions
                    for opt in sub_action.option_strings
                    if opt.startswith("--")
                }
    return commands


def _module_resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    # Try the longest importable module prefix, then require any
    # remaining parts to be attributes of it.
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            spec = importlib.util.find_spec(module_name)
        except (ImportError, ValueError):
            spec = None
        if spec is not None:
            if split == len(parts):
                return True
            import importlib as _importlib
            module = _importlib.import_module(module_name)
            obj = module
            for attr in parts[split:]:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
    return False


def check_file(path: pathlib.Path,
               commands: dict[str, set[str]]) -> list[str]:
    """Every broken link/reference in one markdown file."""
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"{path.relative_to(ROOT)}:{lineno}"

        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                errors.append(f"{where}: broken link -> {target}")

        for match in _CODE.finditer(line):
            ref = match.group(0)[1:-1].strip()
            if _PATHLIKE.match(ref):
                if "*" in ref:
                    base = ROOT / ref.split("*", 1)[0]
                    if not list(base.parent.glob(
                            pathlib.Path(ref).name)) and not base.parent.exists():
                        errors.append(f"{where}: no match for {ref}")
                elif not (ROOT / ref).exists():
                    errors.append(f"{where}: missing path `{ref}`")
            elif _MODULE.match(ref):
                if not _module_resolves(ref):
                    errors.append(f"{where}: unresolvable module `{ref}`")

            for cli in _CLI.finditer(ref):
                name, rest = cli.group(1), cli.group(2) or ""
                if name not in commands:
                    errors.append(f"{where}: unknown CLI command "
                                  f"`repro {name}`")
                    continue
                for flag in _FLAG.findall(rest):
                    if flag not in commands[name]:
                        errors.append(f"{where}: `repro {name}` has no "
                                      f"flag {flag}")

    # Fenced code blocks: audit `repro ...` command lines too.
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        where = f"{path.relative_to(ROOT)}:{lineno}"
        for cli in _CLI.finditer(stripped):
            name, rest = cli.group(1), cli.group(2) or ""
            if name not in commands:
                errors.append(f"{where}: unknown CLI command "
                              f"`repro {name}`")
                continue
            for flag in _FLAG.findall(rest):
                if flag not in commands[name]:
                    errors.append(f"{where}: `repro {name}` has no "
                                  f"flag {flag}")
    return errors


def check_roles(text: str, where: str) -> list[str]:
    """Every unresolvable dotted ``repro.…`` docstring role in ``text``."""
    errors: list[str] = []
    for match in _ROLE.finditer(text):
        target = "".join(match.group(1).split())
        if not _module_resolves(target):
            lineno = text.count("\n", 0, match.start()) + 1
            errors.append(f"{where}:{lineno}: unresolvable reference "
                          f"`{target}`")
    return errors


def check_catalog(text: str, names: list[str], where: str,
                  kind: str = "configuration") -> list[str]:
    """Every name in ``names`` (each a ``kind``) that ``text`` never
    shows in backticks."""
    shown = {match.group(1).strip()
             for line in text.splitlines() for match in _CODE.finditer(line)}
    return [f"{where}: {kind} `{name}` is not listed"
            for name in names if name not in shown]


def predicate_names() -> list[str]:
    """The ``Predicate`` subclasses ``repro.paperclaims`` exports."""
    from repro import paperclaims

    classes = [getattr(paperclaims, name) for name in paperclaims.__all__]
    return [cls.__name__ for cls in classes
            if isinstance(cls, type) and cls is not paperclaims.Predicate
            and issubclass(cls, paperclaims.Predicate)]


def main() -> int:
    """Audit every doc and source file; nonzero exit on any broken
    reference."""
    commands = _cli_commands()
    errors: list[str] = []
    for path in DOC_FILES:
        if path.exists():
            errors.extend(check_file(path, commands))
    for path in SOURCE_FILES:
        errors.extend(check_roles(path.read_text(encoding="utf-8"),
                                  str(path.relative_to(ROOT))))
    from repro.prefetchers import available_prefetchers

    for path, names, kind in (
            (CATALOG, available_prefetchers(), "configuration"),
            (CLAIMS_DOC, predicate_names(), "predicate")):
        errors.extend(check_catalog(path.read_text(encoding="utf-8"), names,
                                    str(path.relative_to(ROOT)), kind))
    if errors:
        print(f"{len(errors)} broken documentation reference(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"docs OK: {len(DOC_FILES)} files and {len(SOURCE_FILES)} "
          f"source files audited, no broken links, paths, modules, CLI "
          f"references or docstring roles, and every prefetcher "
          f"configuration and claim predicate listed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
