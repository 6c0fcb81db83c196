"""No call in ``src/rfim`` passes a seed made by arithmetic on a seed.

Seeds such as ``seed * 99991 + t`` collide: (0, 99991) and (1, 0) give one
stream.  A caller that needs several streams extends the substream address
instead (the table in ``rfim.rng``).
"""

import ast
from pathlib import Path

import rfim


def seed_arithmetic(source: str) -> list[str]:
    """The call arguments in ``source`` that are arithmetic on a value whose name
    holds "seed", as source text."""
    found = []
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call):
            continue
        for arg in call.args + [k.value for k in call.keywords]:
            names = {n.id for n in ast.walk(arg) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(arg) if isinstance(n, ast.Attribute)}
            if isinstance(arg, ast.BinOp) and any("seed" in name for name in names):
                found.append(ast.unparse(arg))
    return found


def test_the_check_finds_seed_arithmetic():
    assert seed_arithmetic("f(seed * 99991 + t)\ng(a, b=seed + 1)") == ["seed * 99991 + t",
                                                                       "seed + 1"]
    assert seed_arithmetic("connected_ordering(g, config.ordering_seed + ci, comp)") == [
        "config.ordering_seed + ci"]
    assert seed_arithmetic("substream(seed, SL, t)\nrng.integers(2**63)\nf(n + 1)") == []


def test_no_call_in_the_library_derives_a_seed_by_arithmetic():
    package = Path(rfim.__file__).parent
    found = {path.name: seed_arithmetic(path.read_text()) for path in package.glob("*.py")}
    assert {name: args for name, args in found.items() if args} == {}
