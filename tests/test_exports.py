"""Every function the package exports, every module-level definition
and every public method is one its own modules use: a routine that only
the tests call belongs in ``tests/oracles.py``."""

import ast
import inspect
from pathlib import Path

import softiga


def _nodes_outside_def(tree, name):
    """Every node of the tree outside the def of name."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == name:
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _names_outside_def(tree, name):
    """Every Name and attribute in the tree outside the def of name."""
    names = set()
    for node in _nodes_outside_def(tree, name):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _attribute_reads_outside_def(tree, name):
    """Every attribute read in the tree outside the def of name."""
    return {node.attr for node in _nodes_outside_def(tree, name)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_exported_function_is_used_inside_the_package():
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(softiga.__file__).parent.glob("*.py"))]
    functions = [name for name in softiga.__all__
                 if inspect.isfunction(getattr(softiga, name))]
    unused = [name for name in functions
              if not any(name in _names_outside_def(tree, name)
                         for tree in trees)]
    assert unused == []


def test_every_module_level_definition_is_named_elsewhere_in_the_package():
    # a helper whose last caller went is dead code; the cmd_* handlers
    # are dispatched by name from ``main``
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(softiga.__file__).parent.glob("*.py"))]
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("cmd_")]
    unused = [name for name in defined
              if not any(name in _names_outside_def(tree, name)
                         for tree in trees)]
    assert unused == []


# argparse calls this override itself
_CALLED_FROM_OUTSIDE = {("_Parser", "error")}


def test_every_public_method_is_named_elsewhere_in_the_package():
    # methods and properties of the package's classes, read as an
    # attribute outside their own def: a local variable or a keyword of
    # the same name does not count; dataclass fields are annotations,
    # not defs
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(softiga.__file__).parent.glob("*.py"))]
    methods = [(node.name, member.name)
               for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for member in node.body
               if isinstance(member, ast.FunctionDef)
               and not member.name.startswith("_")]
    unused = [f"{cls}.{name}" for cls, name in methods
              if (cls, name) not in _CALLED_FROM_OUTSIDE
              and not any(name in _attribute_reads_outside_def(tree, name)
                          for tree in trees)]
    assert unused == []
