"""Every public module-level function and class in src/slplab has a reader
in src/slplab, scripts/ or perfbench/: an import of it whose binding the file
reads, an attribute access `<module>.<name>` (also `mods.factorize.<name>`
or through a local alias such as `fz = mods.factorize`), or a use in its own
module outside its definition.  Tests are not readers."""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slplab"
MODULES = {p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_")}


@functools.cache
def sources():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
            for path in sorted(folder.glob("*.py"))}


def module_named(node, aliases=None):
    """The slplab module an expression names (`x`, `slplab.x`, `mods.x` or
    an alias of one), or None."""
    name = getattr(node, "attr", None) or getattr(node, "id", None)
    return name if name in MODULES else (aliases or {}).get(name)


def readers(path: Path, tree: ast.Module) -> set[tuple[str, str]]:
    nodes = list(ast.walk(tree))
    loads = {n.id for n in nodes
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    aliases = {t.id: module_named(v)
               for n in nodes if isinstance(n, ast.Assign)
               for target in n.targets
               for t, v in (zip(target.elts, getattr(n.value, "elts", ()))
                            if isinstance(target, ast.Tuple)
                            else [(target, n.value)])
               if isinstance(t, ast.Name) and module_named(v)}
    found = set()
    for n in nodes:
        if isinstance(n, ast.ImportFrom):
            module = (n.module if n.level == 1 and path.parent == PACKAGE else
                      (n.module or "").partition("slplab.")[2])
            found |= {(module, a.name) for a in n.names
                      if (a.asname or a.name) in loads}
        elif isinstance(n, ast.Attribute) and isinstance(
                n.value, (ast.Name, ast.Attribute)):
            found.add((module_named(n.value, aliases), n.attr))
    return found


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    kinds = (ast.FunctionDef, ast.ClassDef)
    return {n.name: n for n in tree.body
            if isinstance(n, kinds) and not n.name.startswith("_")}


def used_at_home(tree: ast.Module, name: str, definition: ast.AST) -> bool:
    inside = {id(n) for n in ast.walk(definition)}
    return any(isinstance(n, ast.Name) and n.id == name and id(n) not in inside
               and isinstance(n.ctx, ast.Load) for n in ast.walk(tree))


def read_names() -> set[tuple[str, str]]:
    return set().union(*(readers(p, t) for p, t in sources().items()))


def test_every_public_definition_has_a_reader():
    read = read_names()
    unread = [f"{module}.{name}" for module in sorted(MODULES)
              for tree in [sources()[PACKAGE / f"{module}.py"]]
              for name, node in definitions(tree).items()
              if (module, name) not in read
              and not used_at_home(tree, name, node)]
    assert not unread, "no reader for " + ", ".join(unread)


def test_scan_sees_each_kind_of_reader():
    read = read_names()
    assert ("featspace", "FeatureMap") in read  # from .featspace import
    assert ("factorize", "hom_dimension_check") in read  # mods.factorize.x
    assert ("factorize", "pair_space_representation") in read  # fz = ...
    queryspace = sources()[PACKAGE / "queryspace.py"]
    assert used_at_home(queryspace, "LogicalOp",
                        definitions(queryspace)["LogicalOp"])
