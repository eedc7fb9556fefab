"""Design rules of the package that no behaviour test can see.

A parameter with a default is an option.  An option that every program
caller passes the same way is a constant in disguise, so each default
in src/selbergfe must be read by two callers that pass it differently,
or be required by a protocol (argparse calls an Action with or without
option_string).  Adding a default means adding it here.
"""
import ast
import pathlib

import selbergfe

PACKAGE = pathlib.Path(selbergfe.__file__).resolve().parent

# (module, qualified function, parameter)
DEFAULTED = {
    ("cli", "main", "argv"),
    ("cli", "_MisplacedGenus.__call__", "option_string"),
    ("formal", "_add", "sign"),
    ("formal", "FormalProduct.__init__", "zeta_exp"),
    ("formal", "FormalProduct.__init__", "bigz_exp"),
    ("formal", "FormalProduct.__init__", "s2_exp"),
    ("formal", "FormalProduct.__init__", "sin_exp"),
    ("geodesics", "check_euler_s", "f"),
    ("laurent", "LaurentPoly.__init__", "coeffs"),
    ("special", "_from_log", "sign"),
}


def _defaulted(module: str, tree: ast.AST, scope: str = ""):
    """(module, qualified name, parameter) of every defaulted parameter
    of the functions and lambdas defined in tree."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.Lambda)):
            name = "<lambda>" if isinstance(node, ast.Lambda) else node.name
            inner = f"{scope}.{name}" if scope else name
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            with_default = positional[len(positional) - len(a.defaults):]
            with_default += [p for p, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None]
            for p in with_default:
                yield module, inner, p.arg
        yield from _defaulted(module, node, inner)


def test_defaulted_parameters_are_the_allowlist():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(_defaulted(path.stem, ast.parse(path.read_text())))
    assert found == DEFAULTED
