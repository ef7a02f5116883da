"""No module of the package computes with inexact numbers.

Every computational path is exact over the rationals: no float or
complex literal, no call of float, round or complex, and no math
function but gcd and lcm, which are exact on integers.
"""

import ast
from pathlib import Path

import ncbundles

PACKAGE = Path(ncbundles.__file__).resolve().parent
INEXACT_CALLS = {"float", "round", "complex"}
EXACT_MATH = {"gcd", "lcm"}


def inexact_uses(source):
    """(line, text) of every inexact literal, call or math function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in INEXACT_CALLS):
            found.append((node.lineno, f"{node.func.id}()"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{alias.name}")
                         for alias in node.names
                         if alias.name not in EXACT_MATH)
    return sorted(found)


def test_detector_sees_inexact_uses():
    source = ("import math\n"
              "from math import gcd, sqrt\n"
              "x = 0.5 + 2j\n"
              "y = float(3) + round(x) + complex(1)\n"
              "z = math.lcm(4, 6) + math.floor(x) + math.gcd(2, 3)\n"
              "w = int('7') + sum([1, 2])\n")
    assert inexact_uses(source) == [
        (2, "math.sqrt"), (3, "0.5"), (3, "2j"), (4, "complex()"),
        (4, "float()"), (4, "round()"), (5, "math.floor")]


def test_package_is_exact():
    found = {path.name: inexact_uses(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}
