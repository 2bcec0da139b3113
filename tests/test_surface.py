"""The package's surface holds no option or public name that only tests use.

Both checks read the source with ``ast``: a name counts as used when the
package itself (outside ``__init__.py``, which only re-exports) or the
bench names it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "okh"

CONFIGS = ("RetrievalWeights", "SearchConfig", "ScopeConfig", "TrainingConfig")
# Set only by acceptance tests 2 and 7, which turn the diversity penalty off
# and on.
TEST_ONLY_FIELDS = {"diversity_penalty"}
TEST_ONLY_NAMES = {
    # The exact oracle the beam search is compared against.
    "viterbi",
    # Held-out order margins, kept for the bench to move onto.
    "forward_margins",
    # Read by the frozen load-path tests.
    "EmbeddingCache.lookup_many",
}


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths]


def _package_trees():
    return _trees(sorted(PACKAGE.glob("*.py")))


def _user_trees():
    """The package outside ``__init__.py``, and the bench outside its tests."""
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "bench").glob("*.py"))
    return _trees(paths)


def _public_definitions():
    """Qualified names of the package's public functions, classes and methods."""
    names = set()
    for tree in _package_trees():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return names


def test_every_config_field_is_set_by_the_program():
    fields = set()
    for tree in _package_trees():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in CONFIGS:
                fields.update(
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
    assert len(fields) > len(CONFIGS)
    keywords = {
        keyword.arg
        for tree in _user_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
    }
    assert sorted(fields - keywords - TEST_ONLY_FIELDS) == []


def test_every_public_name_is_used_by_the_program():
    used = set()
    for tree in _user_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name for name in _public_definitions() if name.rpartition(".")[2] not in used}
    assert sorted(unused - TEST_ONLY_NAMES) == []
    assert TEST_ONLY_NAMES <= unused, "a name kept for tests is used by the program now"
