"""The package's import graph: sibling modules are imported at module level
only; only spectra reads a basis's structure, and within it only the
functions that pick a route; only grid reads a uniform
grid's rule; one hook forms every field kept as a rule; no module reads a
basis's gathered mode matrix; a mode sum's entry and its dense delta defect
each have one home; and each error message has one home."""

import ast
from collections import defaultdict
from pathlib import Path

import greenkit

SOURCES = sorted(Path(greenkit.__file__).parent.glob("*.py"))


def _sibling_imports_in_functions(tree: ast.Module) -> list:
    """(function, line) of every `from . import`, `from .x import` or
    `import greenkit...` inside a function body, nested ones included."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                sibling = node.level > 0 or (node.module or "").split(".")[0] == "greenkit"
            elif isinstance(node, ast.Import):
                sibling = any(alias.name.split(".")[0] == "greenkit" for alias in node.names)
            else:
                continue
            if sibling:
                found.append((getattr(fn, "name", "<lambda>"), node.lineno))
    return found


def test_no_sibling_import_inside_a_function():
    """A function-local sibling import is how an import cycle hides; every
    sibling import sits at module level, where a cycle fails at import."""
    assert {"firstorder.py", "secondorder.py", "spectra.py", "cli.py"} <= {p.name for p in SOURCES}
    offenders = {p.name: _sibling_imports_in_functions(ast.parse(p.read_text())) for p in SOURCES}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def test_the_check_sees_a_function_local_import():
    tree = ast.parse("def f():\n    if True:\n        from .secondorder import x\n"
                     "def g():\n    import greenkit.spectra\n")
    assert _sibling_imports_in_functions(tree) == [("f", 3), ("g", 5)]


def _structure_reads(tree: ast.Module) -> list:
    """Line of every read of an attribute `waves` or of `<x>.grid.kind`, the
    marks of a basis's block algebra; a kernel's `.kind` does not count."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        grid_kind = node.attr == "kind" and isinstance(node.value, ast.Attribute) and node.value.attr == "grid"
        if node.attr == "waves" or grid_kind:
            found.append(node.lineno)
    return sorted(found)


def test_only_spectra_reads_a_basis_structure():
    """Which route a product or a residual takes (transform, circulant,
    Toeplitz minus Hankel, dense) is decided in spectra alone."""
    offenders = {p.name: _structure_reads(ast.parse(p.read_text())) for p in SOURCES if p.name != "spectra.py"}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def _top_level_owners(tree: ast.Module, lines: list) -> set:
    """Name of the module-level def or class around each line, "<module>"
    outside every one."""
    spans = [(node.lineno, node.end_lineno, node.name) for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return {next((name for lo, hi, name in spans if lo <= line <= hi), "<module>") for line in lines}


def test_spectra_picks_a_route_in_five_functions():
    """Inside spectra, besides the types that hold the structure (EigenSystem
    and its _ModeTable), only _expand and _project (which transform) and
    _first_columns, _column_blocks and column_max_norm (which columns fix a
    block, and what they mean) read it: mode_blocks, block_residual and
    composition_norm take one route on every basis, dense ones included."""
    tree = ast.parse((Path(greenkit.__file__).parent / "spectra.py").read_text())
    assert _top_level_owners(tree, _structure_reads(tree)) == {
        "_ModeTable", "EigenSystem", "_expand", "_project", "_first_columns", "_column_blocks", "column_max_norm"}


def test_the_check_sees_a_structure_read():
    tree = ast.parse("if basis.waves is None:\n    pass\nkern.kind\nperiodic = b.grid.kind == 'periodic'\n"
                     "waves = 1\ngrid.size\ndef f():\n    return b.waves\nclass A:\n    w = b.grid.kind\n")
    assert _structure_reads(tree) == [1, 4, 8, 10]
    assert _top_level_owners(tree, _structure_reads(tree)) == {"<module>", "f", "A"}


def _rule_reads(tree: ast.Module) -> list:
    """Line of every read of an attribute `_rule`, the private fields
    (a, b, h) of a Grid1D.uniform grid, or of the name as a string, as
    getattr or vars()[...] would take it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_rule":
            found.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value == "_rule":
            found.append(node.lineno)
    return sorted(found)


def test_only_grid_reads_a_uniform_rule():
    """A grid's representation, stored arrays or a rule, stays behind grid.py:
    every other module reads x and w through points, weights or _slice."""
    assert "grid.py" in {p.name for p in SOURCES}
    offenders = {p.name: _rule_reads(ast.parse(p.read_text())) for p in SOURCES if p.name != "grid.py"}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def test_the_check_sees_a_rule_read():
    tree = ast.parse("a, b, h = grid._rule\nx = grid.points\nr = getattr(g, '_rule')\n"
                     "rule = 1\ng._slice(part)\nvars(g)['_rule']\n")
    assert _rule_reads(tree) == [1, 3, 6]


def _getattr_hooks(tree: ast.Module) -> list:
    """Line of every def __getattr__, the hook a type forms a missing field in."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "__getattr__")


def test_one_hook_forms_every_field_kept_as_a_rule():
    """Grid1D, SampledFunction and FreqResponse form their fields on first
    read through grid._FormedOnRead.__getattr__ and no copy of it."""
    hooks = {p.name: _getattr_hooks(ast.parse(p.read_text())) for p in SOURCES}
    assert sum(len(lines) for lines in hooks.values()) == 1
    assert hooks["grid.py"]


def test_the_check_sees_a_second_hook():
    tree = ast.parse("class A:\n    def __getattr__(self, name):\n        pass\n"
                     "class B(A):\n    def __getattr__(self, name):\n        pass\n__getattr__ = A.__getattr__\n")
    assert _getattr_hooks(tree) == [2, 5]


def _mode_value_reads(tree: ast.Module) -> list:
    """Line of every read of an attribute `mode_values`, or of the name as a
    string, as getattr or vars()[...] would take it; its definition is a
    def, not a read."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "mode_values":
            found.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value == "mode_values":
            found.append(node.lineno)
    return sorted(found)


def test_no_module_reads_the_gathered_modes():
    """The package reads a basis's modes as rows (mode_rows), columns
    (modes_at), transforms or one dense product (spectra._dense): nothing
    reads a gathered copy (mode_values, which is gone), scans modes.imag
    for realness (the dtype says it) or conjugates the whole mode matrix."""
    assert "spectra.py" in {p.name for p in SOURCES}
    offenders = {p.name: _mode_value_reads(ast.parse(p.read_text())) for p in SOURCES}
    assert {name: hits for name, hits in offenders.items() if hits} == {}
    for p in SOURCES:
        assert "modes.imag" not in p.read_text() and "np.conj(basis.modes)" not in p.read_text(), p.name


def test_the_check_sees_a_mode_values_read():
    tree = ast.parse("class E:\n    def mode_values(self):\n        pass\nfor m in basis.mode_values:\n    pass\n"
                     "getattr(b, 'mode_values')\nb.mode_rows(part)\nmode_values = 1\n")
    assert _mode_value_reads(tree) == [4, 6]


def _callers(tree: ast.Module, attr: str) -> list:
    """(function, line) of every call x.attr(...) or attr(...), function the
    innermost def around it, "<module>" outside every def."""
    spans = [(fn.lineno, fn.end_lineno, fn.name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and attr in (getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            around = [span for span in spans if span[0] <= node.lineno <= span[1]]
            found.append((max(around)[2] if around else "<module>", node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_entry_products_and_the_dense_defect_have_one_home_each():
    """Only spectra reads a single mode's values (modes_at), and so forms
    phi_n(x_i) phi_n*(x_j); a block minus delta / w_j has one home,
    spectra._minus_diagonal, which block_residual (on the columns that fix
    a block) and delta_residual (on a kernel's own block) call, and no
    module forms a diagonal matrix."""
    homes = defaultdict(set)
    for p in SOURCES:
        tree = ast.parse(p.read_text())
        for attr in ("modes_at", "diag", "_minus_diagonal"):
            homes[attr] |= {(p.name, fn) for fn, _ in _callers(tree, attr)}
    assert {name for name, _ in homes["modes_at"]} == {"spectra.py"}
    assert homes["diag"] == set()
    assert homes["_minus_diagonal"] == {("spectra.py", "block_residual"), ("spectra.py", "delta_residual")}


def test_the_check_names_the_caller():
    tree = ast.parse("np.diag(w)\ndef f():\n    def g():\n        return b.modes_at(0)\n    return np.diag(v)\n"
                     "def h():\n    return _minus_diagonal(c, s)\n")
    assert _callers(tree, "diag") == [("<module>", 1), ("f", 5)]
    assert _callers(tree, "modes_at") == [("g", 4)]
    assert _callers(tree, "_minus_diagonal") == [("h", 7)]


def _value_error_texts(tree: ast.Module) -> list:
    """(text, line) of every ValueError(...) message literal, and of each
    constant part of an f-string message."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ValueError"):
            continue
        for msg in node.args[:1]:
            parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
            found += [(p.value, node.lineno) for p in parts if isinstance(p, ast.Constant) and isinstance(p.value, str)]
    return found


def test_each_error_message_has_one_home():
    """A message raised from two places is a rule with two copies; the rule
    goes into one helper that both places call."""
    homes = defaultdict(list)
    for p in SOURCES:
        for text, line in _value_error_texts(ast.parse(p.read_text())):
            homes[text].append(f"{p.name}:{line}")
    assert len(homes) > 50
    assert {text: where for text, where in homes.items() if len(where) > 1} == {}


def test_the_check_sees_a_message_twice():
    tree = ast.parse("raise ValueError('bad n')\nraise ValueError(f'{x} must be finite')\n"
                     "ValueError('bad n')\nraise TypeError('bad n')\nraise ValueError(msg)\n")
    assert _value_error_texts(tree) == [("bad n", 1), (" must be finite", 2), ("bad n", 3)]


ORDERS = ("first", "second")
LAW_TABLE = {"_ranged", "_FirstOrder", "_SecondOrder", "_LAWS", "_law"}  # firstorder's law table


def _order_compares(tree: ast.Module) -> list:
    """Line of every comparison with the string "first" or "second", as an
    operand or inside a tuple, list or set operand, and of every match case
    on one: each is a branch on an equation order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            items = [e for op in operands for e in (op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set)) else [op])]
            if any(isinstance(e, ast.Constant) and e.value in ORDERS for e in items):
                found.append(node.lineno)
        elif isinstance(node, ast.MatchValue) and isinstance(node.value, ast.Constant) and node.value.value in ORDERS:
            found.append(node.lineno)
    return sorted(found)


def _law_reads(tree: ast.Module) -> list:
    """Line of every def of, or reference to, _wave_modes or _wave_phases,
    and of every call x.modes(...), x.phases(...) or x.lines(...) whose x is
    not the table: an entry, the _law a Kernel keeps, _law(...) or _LAWS[...]."""
    def is_table(x):
        return ((isinstance(x, ast.Name) and x.id in LAW_TABLE) or (isinstance(x, ast.Attribute) and x.attr == "_law")
                or (isinstance(x, ast.Call) and isinstance(x.func, ast.Name) and x.func.id == "_law")
                or (isinstance(x, ast.Subscript) and isinstance(x.value, ast.Name) and x.value.id == "_LAWS"))

    found = []
    for node in ast.walk(tree):
        # a def's or an import's name, a name read, or an attribute read
        if (getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)) in (
                "_wave_modes", "_wave_phases"):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("modes", "phases", "lines") and not is_table(node.func.value)):
            found.append(node.lineno)
    return sorted(found)


def test_each_order_law_has_one_home():
    """Only firstorder's law table and the CLI's parser and report compare a
    value with "first" or "second": Kernel, spectral_density,
    wave_step_factor_kernel and field_from_source ask the table.  The law's
    modes and phases (spectra._wave_modes and _wave_phases before) are
    reached only through the table's entries."""
    branches, reads = {}, {}
    for p in SOURCES:
        tree = ast.parse(p.read_text())
        owners = _top_level_owners(tree, _order_compares(tree)) - (LAW_TABLE if p.name == "firstorder.py" else set())
        if owners:
            branches[p.name] = owners
        if _law_reads(tree):
            reads[p.name] = _law_reads(tree)
    assert set(branches) == {"cli.py"}
    assert reads == {}


def test_the_check_sees_an_order_branch_and_a_law_read():
    tree = ast.parse("if order == 'first':\n    pass\nk.order != 'second'\nx in ('first', 'second')\nf('first')\n"
                     "match order:\n    case 'second':\n        pass\nd = {'first': 1}\n")
    assert _order_compares(tree) == [1, 3, 4, 7]
    tree = ast.parse("def _wave_modes(b):\n    pass\nfrom .spectra import _wave_phases\nspectra._wave_modes(b)\n"
                     "law.modes(b)\n_SecondOrder.phases(b, t)\nkernel._law.amplitude(b, t)\n_law(o, b).lines(b, p)\n"
                     "_LAWS[o].modes(b)\nother.lines(b, p)\n")
    assert _law_reads(tree) == [1, 3, 4, 5, 10]
