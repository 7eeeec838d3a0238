"""The documentation gates, run as part of the tier-1 suite.

check_docs audits every markdown page for broken relative links,
references to nonexistent modules/paths, and CLI invocations that the
live argument parser would reject (this is what keeps the README's
`repro paper ...` walkthrough honest), and every docstring role under
`src/` that names a dotted `repro.` target, and checks that the
prefetcher catalog and the claim-predicate doc list every name the code
exports.  check_docstrings enforces the docstring-coverage baseline.
CI runs both scripts directly; running them here too means a broken
doc reference fails fast locally.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
TOOLS = REPO / "tools"


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS / script)],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_docs_audit_passes():
    proc = _run("check_docs.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", TOOLS / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    return check_docs


def test_docstring_role_to_a_deleted_symbol_fails():
    check_docs = _check_docs()
    planted = (
        '"""Applies :meth:`repro.core.ipcp_l1.IpcpL1.on_access` rules,\n'
        "once stated by :meth:`~repro.core.ip_table.IpTable.access`, and\n"
        ":func:`repro.core.cspt.\n"
        '    update_signature` (a role that wraps)."""\n'
    )
    assert check_docs.check_roles(planted, "planted.py") == [
        "planted.py:2: unresolvable reference "
        "`repro.core.ip_table.IpTable.access`"]


def test_catalog_missing_a_configuration_fails():
    catalog = "| `ipcp` | the bouquet |\n`mlop` (MLOP@L1 + NL@L2/LLC)\n"
    assert _check_docs().check_catalog(
        catalog, ["ipcp", "mlop", "none"], "catalog.md") == [
        "catalog.md: configuration `none` is not listed"]


def test_claims_doc_missing_a_predicate_fails():
    check_docs = _check_docs()
    names = check_docs.predicate_names()
    assert {"Band", "DeltaBand", "Leader"} <= set(names)
    assert "Predicate" not in names and "Claim" not in names
    doc = "| `Band` | bounds |\n`Leader`, `DeltaBand`\n"
    assert check_docs.check_catalog(
        doc, ["Band", "DeltaBand", "Leader", "Spread"], "claims.md",
        "predicate") == ["claims.md: predicate `Spread` is not listed"]


def test_docstring_gate_passes():
    proc = _run("check_docstrings.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_paper_commands_parse():
    """Every `repro paper ...` invocation in README must parse."""
    from repro.cli import build_parser

    parser = build_parser()
    text = (REPO / "README.md").read_text()
    commands = [
        line.strip().removeprefix("python -m repro ")
        for line in text.splitlines()
        if line.strip().startswith("python -m repro paper")
    ]
    assert commands, "README lost its `repro paper` walkthrough"
    for command in commands:
        argv = command.split("#")[0].split()
        args = parser.parse_args(argv)
        assert args.command == "paper"


def test_experiments_doc_references_claim_ids():
    """The committed doc's claim ids must all exist in the registry."""
    import re

    from repro.paperclaims import CLAIMS

    known = {claim.id for claim in CLAIMS}
    text = (REPO / "EXPERIMENTS.md").read_text()
    referenced = set(re.findall(r"\(`([a-z0-9-]+)`\)", text))
    referenced &= {r for r in referenced if "-" in r}
    missing = referenced - known
    assert not missing, f"EXPERIMENTS.md references unknown claims {missing}"
