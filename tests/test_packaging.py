"""What the package imports, its declared dependencies and no more, and
what its functions take: no parameter that nothing reads."""

import ast
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "rnn_sysid")


def _modules():
    """(file name, parsed tree) of each module of the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as f:
                yield name, ast.parse(f.read())


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}
    roots = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots.add(node.module.split(".")[0])
    third_party = roots - set(sys.stdlib_module_names) - {"rnn_sysid"}
    # equal, not a subset: a declared dependency no module imports is stale
    assert third_party == declared


def test_every_parameter_is_read():
    # a parameter whose body never reads it makes every caller pass a
    # value that changes nothing; closures count as reads
    unread = []
    for module, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            a = fn.args
            params = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                          a.vararg, a.kwarg) if arg]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{module}:{getattr(fn, 'name', '<lambda>')}({p})"
                       for p in params if p != "self" and p not in read]
    assert not unread, f"parameters never read: {unread}"


_CERTIFY_SCRIPT = """
import sys
from rnn_sysid.verify import verify_spectral, verify_tail
verify_spectral(m=256, trials=1)
verify_tail(m=64, trials=1)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_certify_loads_no_scipy():
    # the k = 1 norms of the spectral and tail lemmas run in numpy alone,
    # so a process loads one BLAS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _CERTIFY_SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    assert out.strip() == "[]"
