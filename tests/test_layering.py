"""Only ``oracle`` enumerates energies, normalises them and sizes their blocks.

Every other module in ``src/rfim`` reaches the enumeration layer through
``gibbs_table``, ``_field_tables`` and the Cor2 sweep, so the energy routine,
the normaliser and the block sizes ``TABLE_BLOCK`` and ``SWEEP_BLOCK`` have
one owner.
"""

import ast
from pathlib import Path

import rfim

ORACLE_ONLY = {"_free_energies", "_normalise", "TABLE_BLOCK", "SWEEP_BLOCK"}


def oracle_names(source: str) -> set[str]:
    """The names of ``ORACLE_ONLY`` that ``source`` reads, assigns, defines or imports;
    strings and comments do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found |= {node.name.rsplit(".", 1)[-1], node.asname}
    return found & ORACLE_ONLY


def test_the_check_finds_oracle_names():
    assert oracle_names("from .oracle import _normalise as norm\nx = oracle.TABLE_BLOCK") == {
        "_normalise", "TABLE_BLOCK"}
    assert oracle_names("SWEEP_BLOCK = 8\ndef _free_energies(m):\n    pass") == {
        "SWEEP_BLOCK", "_free_energies"}
    assert oracle_names('"""Read by _free_energies."""\nf(table_block)  # TABLE_BLOCK') == set()


def test_only_the_oracle_names_the_enumeration_internals():
    package = Path(rfim.__file__).parent
    assert oracle_names((package / "oracle.py").read_text()) == ORACLE_ONLY
    found = {path.name: oracle_names(path.read_text()) for path in package.glob("*.py")
             if path.name != "oracle.py"}
    assert {name: names for name, names in found.items() if names} == {}
