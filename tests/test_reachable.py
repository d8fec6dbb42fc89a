"""Every function and method in src/gtassoc is reached from outside tests/.

A def is reached when its name appears as a whole word in src/gtassoc (the
__init__ exports included), demos/, perfbench/*.py or README.md, outside the
lines of every def of that name, so a recursive call or a docstring naming
its own function does not count.  A helper that only tests call belongs in
tests/.  Dunder methods are out of scope, as are decorated functions: the
@_suite rows of report register themselves, and the caches, properties and
classmethods are reached through their decorators.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _defs(source):
    """The names of the undecorated, non-dunder defs of source, and the line
    spans {name: [(first, last)]} of all its defs."""
    checked, spans = set(), {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans.setdefault(node.name, []).append((first, node.end_lineno))
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not node.decorator_list and not dunder:
                checked.add(node.name)
    return checked, spans


def unreached(sources, texts):
    """Sorted names of the undecorated, non-dunder defs in sources ({label:
    text}) with no whole-word mention outside their own defs, where the
    mentions are read from sources and texts ({label: text})."""
    checked, spans = set(), {}
    for label, source in sources.items():
        names, by_name = _defs(source)
        checked.update(names)
        for name, lines in by_name.items():
            spans.setdefault(name, []).extend((label, a, b) for a, b in lines)
    lines = [(label, i, line) for label, text in {**texts, **sources}.items()
             for i, line in enumerate(text.splitlines(), start=1)]
    missing = []
    for name in sorted(checked):
        word = re.compile(r"\b%s\b" % re.escape(name))
        own = spans[name]
        if not any(word.search(line) and not any(label == l and a <= i <= b for l, a, b in own)
                   for label, i, line in lines):
            missing.append(name)
    return missing


def test_every_src_function_is_reached_outside_tests():
    sources = {str(p): p.read_text() for p in sorted((ROOT / "src" / "gtassoc").glob("*.py"))}
    texts = {str(p): p.read_text()
             for p in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
             + [ROOT / "README.md"]}
    missing = unreached(sources, texts)
    assert not missing, "reached only from tests/: " + ", ".join(missing)


def test_unreached_names_a_def_mentioned_only_in_itself():
    source = ("def used():\n    return helper()\n\n"
              "def helper():\n    '''helper.'''\n    return 1\n\n"
              "def lonely(n):\n    '''lonely calls lonely.'''\n    return lonely(n - 1)\n\n"
              "@cache\ndef cached():\n    return 2\n\n"
              "class A:\n    def __len__(self):\n        return 0\n\n"
              "    def only_in_readme(self):\n        return 3\n\n"
              "    def orphan(self):\n        return 4\n")
    readme = "used() and A().only_in_readme()"
    assert unreached({"m.py": source}, {"README.md": readme}) == ["lonely", "orphan"]
    assert unreached({"m.py": source}, {}) == ["lonely", "only_in_readme", "orphan", "used"]
