"""Every public function or class of the package has a reader.

A public (no leading underscore) module-level function or class in
``src/feederprot`` must be read outside its own definition, in the
package or in a ``perfbench/*.py`` script: as a name, as an attribute
or as an imported name.  One that only the tests read is dead weight.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "feederprot").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def reads(tree: ast.Module, owner: str):
    """(name, top-level definition it sits in, or None) for every read."""
    for top in tree.body:
        where = (f"{owner}.{top.name}" if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, where
            elif isinstance(node, ast.Attribute):
                yield node.attr, where
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield alias.name, where


def test_every_public_definition_is_read():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    read = {}  # name -> the definitions it is read in
    for path, tree in trees.items():
        for name, where in reads(tree, path.stem):
            read.setdefault(name, set()).add(where)
    unread = [f"{path.stem}.{top.name}" for path in PACKAGE
              for top in trees[path].body
              if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
              and not top.name.startswith("_")
              and not read.get(top.name, set()) - {f"{path.stem}.{top.name}"}]
    assert not unread, f"public but read by no package or perfbench code: " \
                       f"{unread}"
