"""Checks on the package source itself."""

import ast
import os
import pathlib
import subprocess
import sys

import factoridiv
from factoridiv import construct


def test_no_assert_in_package():
    # python -O strips assert statements, so a check the package relies on
    # must raise an exception of its own instead
    found = []
    for path in sorted(pathlib.Path(factoridiv.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_len_of_str_in_package():
    # len(str(n)) is quadratic in the digits of n on Python 3.11; the
    # package counts digits with numtheory.decimal_digits instead
    found = []
    for path in sorted(pathlib.Path(factoridiv.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "str"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_specialpoly_builds_no_dense_composition():
    # the cyclotomic layer works on integer lists and Moebius products; a
    # compose call or Fraction arithmetic would bring back O(deg**2) steps
    path = pathlib.Path(factoridiv.__file__).parent / "specialpoly.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "compose"
        ):
            found.append(f"compose:{node.lineno}")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if "Fraction" in names or "fractions" in names or (
                getattr(node, "module", None) == "fractions"
            ):
                found.append(f"fractions:{node.lineno}")
    assert found == []


def test_intpoly_is_integer_only():
    # exact_divide decides integrality in integers; no rational arithmetic
    # may come back into the polynomial layer
    path = pathlib.Path(factoridiv.__file__).parent / "intpoly.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"from fractions:{node.lineno}")
        if isinstance(node, ast.Import) and any(
            a.name == "fractions" for a in node.names
        ):
            found.append(f"import fractions:{node.lineno}")
    assert found == []


def test_construct_leaves_prime_selection_to_numtheory():
    # one Mertens selector: construct reads numtheory's prime runs and
    # neither walks the primes itself nor defines a selector of its own
    path = pathlib.Path(construct.__file__)
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "next_prime":
                found.append(f"next_prime:{node.lineno}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            "mertens" in node.name.lower()
        ):
            found.append(f"{node.name}:{node.lineno}")
    assert found == []


def test_import_hashes_few_fractions():
    # every CLI call pays for the import; the tau grids are built once there
    # and must not rehash a Fraction set once per element (29 216 calls)
    script = (
        "import fractions\n"
        "calls = 0\n"
        "plain = fractions.Fraction.__hash__\n"
        "def counted(self):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return plain(self)\n"
        "fractions.Fraction.__hash__ = counted\n"
        "import factoridiv.cli\n"
        "print(calls)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(factoridiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2000


def test_import_starts_no_pool_machinery():
    # every CLI call pays for the import; scan --jobs imports the process
    # pool only when it starts one, and scan the root splitter only for
    # primes above its listing crossover
    script = (
        "import sys\n"
        "import factoridiv.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing',"
        " 'factoridiv.modp') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(factoridiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_public_tau_grid_order():
    # the top grid first, then the wide grid's new values in wide-grid order
    top = list(construct._TAUS_TOP)
    want = top + [t for t in construct._TAUS_WIDE if t not in top]
    assert list(construct._TAUS_PUBLIC) == want
    assert len(set(want)) == len(want) == 352
