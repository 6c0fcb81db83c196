"""Layer ownership, checked on the source.

Only ``oracle`` enumerates energies, normalises them and sizes their blocks.
Every other module in ``src/rfim`` reaches the enumeration layer through
``gibbs_table``, ``_field_tables`` and the Cor2 sweep, so the energy routine,
the normaliser and the block sizes ``TABLE_BLOCK`` and ``SWEEP_BLOCK`` have
one owner.

Only ``dynamics._draws`` draws the Glauber kernels' randomness: in
``dynamics`` no other function but ``grand_coupled_update`` calls a
generator's ``random`` or ``integers``, and the staged sampler draws only
its new vertices' uniforms itself.
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


DRAW_METHODS = {"random", "integers"}


def draw_calls(source: str) -> dict[str, list[str]]:
    """The calls of a ``random`` or ``integers`` method in ``source``, as source text,
    by the top-level function or class they sit in ("<module>" outside any)."""
    found: dict[str, list[str]] = {}
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DRAW_METHODS):
                found.setdefault(name, []).append(ast.unparse(node))
    return found


def test_the_check_finds_draw_calls():
    source = ("def f(rng):\n    def g():\n        return rng.random(3)\n    return g()\n"
              "x = np.random.default_rng().integers(4)\n"
              "def h(a):\n    return a.random, a.choice(2)  # a.random(5)\n")
    assert draw_calls(source) == {"f": ["rng.random(3)"],
                                  "<module>": ["np.random.default_rng().integers(4)"]}


def test_only_draws_and_the_grand_coupling_draw_in_dynamics():
    package = Path(rfim.__file__).parent
    found = draw_calls((package / "dynamics.py").read_text())
    assert set(found) == {"_draws", "grand_coupled_update"}
    assert found["_draws"] == ["rng.random((min(rows, steps - done), replicas))"]
    found = draw_calls((package / "sampler.py").read_text())
    assert found["incremental_sample_batch"] == ["rng.random(replicas)"]
