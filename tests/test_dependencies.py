"""The package needs numpy alone at run time (pyproject.toml declares no
other dependency); scipy is a test-only reference.  Its public names all
resolve, and each of its module constants is read somewhere in it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
import rhoarb
from rhoarb.measures import eval_evar, eval_tnorm
x, p = np.array([1.0, -0.5, 0.25, 2.0]), np.full(4, 0.25)
for rho in (eval_evar(x, p, 0.5), eval_tnorm(x, p, 2.0, 0.75)):
    assert -0.6875 < rho < 0.5  # between E[-x] and the worst case
assert 0.0 < rhoarb.critical_alpha(1.0, "ES") < 1.0
market = rhoarb.ScenarioMarket(probs=[0.25, 0.25, 0.25, 0.25], riskless_rate=0.0,
                               returns=[[0.3, -0.2, 0.1, -0.1], [-0.1, 0.2, 0.2, -0.25]])
for spec in (rhoarb.RiskSpec.evar(0.25), rhoarb.RiskSpec.tnorm(2.0, 0.25)):
    assert rhoarb.compute_rho1(market, spec).route == "ROOT"
for spec in (rhoarb.RiskSpec.evar(0.25), rhoarb.RiskSpec.tnorm(2.0, 0.25),
             rhoarb.RiskSpec.entropic(0.5), rhoarb.RiskSpec.power(2.0, 2.0)):
    assert rhoarb.classify_dual(market, spec).certificate["beta"] > 0.0
for spec in (rhoarb.RiskSpec.wc(), rhoarb.RiskSpec.es(0.25),
             rhoarb.RiskSpec.spectral([(0.1, 0.5), (0.5, 0.5)])):
    assert rhoarb.classify_dual(market, spec).verdict == "NO_ARBITRAGE"
for spec, box in ((rhoarb.RiskSpec.es(0.25), 4.0),
                  (rhoarb.RiskSpec.spectral([(0.1, 0.5), (0.5, 0.5)]), 10.0)):
    cert = rhoarb.classify_dual(market, spec).certificate
    deltas = [cert[key] for key in ("delta_classical", "delta_lower") if key in cert]
    assert cert["t_star"] < box and len(deltas) == 1 and deltas[0] > 1e-9
res = rhoarb.classify_dual(market, rhoarb.RiskSpec.custom(lambda z: np.sqrt(1.0 + z ** 2), 1.6))
assert not res.annotations
assert 2.0 ** 0.5 <= res.certificate["v_star"] < 1.6  # E[g(Z)] >= g(E[Z]) = g(1)
"""


def test_package_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_public_names_resolve_once():
    import rhoarb
    assert len(set(rhoarb.__all__)) == len(rhoarb.__all__)
    for name in rhoarb.__all__:
        assert getattr(rhoarb, name) is not None, name


def test_every_module_constant_is_read():
    # A constant counts as read where its own module loads it, or where a
    # module that imports it by name from there does.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "rhoarb").glob("*.py"))}
    loads = {mod: {node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for mod, tree in trees.items()}
    read = {(mod, name) for mod in trees for name in loads[mod]}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                read |= {(node.module, alias.name) for alias in node.names
                         if (alias.asname or alias.name) in loads[mod]}
    unread = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            unread += [f"{mod}.{t.id}" for t in targets
                       if isinstance(t, ast.Name) and t.id.isupper() and (mod, t.id) not in read]
    assert not unread, unread


def test_every_private_definition_is_used():
    # A module-level _name function or class counts as used where any module
    # of the package loads it, imports it by name or reads it as an attribute.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "rhoarb").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    unused = [f"{mod}.{stmt.name}" for mod, tree in trees.items() for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and stmt.name.startswith("_") and not stmt.name.startswith("__")
              and stmt.name not in used]
    assert not unused, unused
