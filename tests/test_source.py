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
    # package estimates digits with numtheory.decimal_digits_upper, and
    # verify prints adjusted() + 1 of the Decimal n it reads
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
    # every CLI call pays for the import; the tau grids are deduped and
    # sorted as integer pairs there and kept as pairs, so no Fraction is
    # made or hashed at all
    script = (
        "import fractions\n"
        "calls = 0\n"
        "def counted(plain):\n"
        "    def call(*args, **kwargs):\n"
        "        global calls\n"
        "        calls += 1\n"
        "        return plain(*args, **kwargs)\n"
        "    return call\n"
        "for name in ('__new__', '__hash__'):\n"
        "    method = getattr(fractions.Fraction, name)\n"
        "    setattr(fractions.Fraction, name, counted(method))\n"
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
    assert int(proc.stdout) == 0


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


def test_import_loads_no_dataclasses():
    # every CLI call pays for the import; dataclasses would bring inspect,
    # ast, dis and tokenize along.  -S keeps site's .pth imports out
    script = (
        "import sys\n"
        "import factoridiv.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(factoridiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_checking_modules_import_no_search_code():
    # verify reads certificates from the certificate module, not from the
    # constructors; neither it nor scan uses randomness, and the
    # certificate format imports no search code, scanner or command line
    root = pathlib.Path(factoridiv.__file__).parent
    found = []
    forbidden = {
        "verify.py": {"construct", "random"},
        "scan.py": {"construct", "random"},
        "certificate.py": {"construct", "scan", "cli", "random"},
    }
    for name, banned in forbidden.items():
        path = root / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                mods = [base] + [f"{base}.{a.name}".lstrip(".") for a in node.names]
            else:
                continue
            for mod in mods:
                if banned & set(mod.split(".")):
                    found.append(f"{name}:{node.lineno}:{mod}")
    assert found == []


# public names that only a library user calls: each runs one
# admissibility rule alone, and verify_legendre is the only way to apply
# the legendre rule to a factor list with no duplicate
UNCALLED_PUBLIC = {"verify_distinct", "verify_legendre"}


def test_every_definition_has_a_caller():
    # every module-level function or class is named somewhere in the
    # package outside its own body, and every IntPoly method that is not a
    # dunder is looked up as an attribute (p.name) there; a bare name such
    # as x is no call of a method.  Being in factoridiv.__all__ is no call:
    # only the names in UNCALLED_PUBLIC go without one
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(pathlib.Path(factoridiv.__file__).parent.glob("*.py"))
    }
    names, attrs = {}, {}  # name -> [(file, line)]
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((name, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((name, node.lineno))
    defs = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses = names.get(node.name, []) + attrs.get(node.name, [])
                defs.append((name, node.name, node, uses))
            if isinstance(node, ast.ClassDef) and node.name == "IntPoly":
                defs.extend(
                    (name, f"IntPoly.{d.name}", d, attrs.get(d.name, []))
                    for d in node.body
                    if isinstance(d, ast.FunctionDef)
                    and not (d.name.startswith("__") and d.name.endswith("__"))
                )
    unused = [
        f"{name}:{label}" for name, label, node, uses in defs
        if label not in UNCALLED_PUBLIC
        and not any(
            f != name or not node.lineno <= line <= node.end_lineno
            for f, line in uses
        )
    ]
    assert unused == []


def test_decimal_contexts_are_explicit():
    # a bare localcontext() copies the caller's context, with its precision,
    # rounding and traps; the package names the context it computes in, and
    # verify changes no thread's context for good
    root = pathlib.Path(factoridiv.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "localcontext" and not (
                node.args or any(k.arg == "ctx" for k in node.keywords)
            ):
                found.append(f"{path.name}:{node.lineno}:localcontext")
            if path.name == "verify.py" and name in ("getcontext", "setcontext"):
                found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []
