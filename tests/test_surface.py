"""The package's surface holds no option, parameter or public name that only
tests use.

The checks read the source with ``ast``: a name counts as used when the
package itself (outside ``__init__.py``, which only re-exports) or the
bench names it, and a parameter when a call there passes it.
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
TEST_ONLY_PARAMETERS = {
    # The fixture builder kept for the tests; the program builds edges
    # through the merge.
    "Hyperedge.create(attributes)",
    "Hyperedge.create(confidence)",
    "Hyperedge.create(group_id)",
    "Hyperedge.create(horizon)",
    "Hyperedge.create(text_position)",
    # The oracle's mode the tests compare the beam search against.
    "viterbi(no_repeat)",
    # Endpoint deployment settings; the key falls back to OKH_EMBED_API_KEY.
    "RemoteEmbeddingClient(api_key)",
    "RemoteEmbeddingClient(batch_size)",
    "RemoteEmbeddingClient(max_attempts)",
    "RemoteEmbeddingClient(backoff)",
    "RemoteEmbeddingClient(timeout)",
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


def test_only_retrieval_scopes_and_scores_a_pool():
    # Given steps are scored through `Retriever.score`, so only
    # `okh.retrieval` knows how a pool's steps are scored.
    scorers = {"scope_candidates", "trajectory_score"}
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "retrieval.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in scorers:
                    callers.add(f"{path.name}: {name}")
    assert sorted(callers) == []


def _defaulted(function, skip_first):
    """A def's parameters that have defaults, and the positional ones in order."""
    args = function.args
    positional = [arg.arg for arg in args.posonlyargs + args.args][skip_first:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [
        arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]
    return defaulted, positional


def _public_signatures():
    """Qualified name -> (defaulted parameters, positional parameters) of each
    public function, public class constructor and public method. A
    constructor is qualified by its class name, a method as ``Class.name``."""
    signatures = {}
    for tree in _package_trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                signatures[node.name] = _defaulted(node, 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        signatures[node.name] = _defaulted(item, 1)
                    elif not item.name.startswith("_"):
                        signatures[f"{node.name}.{item.name}"] = _defaulted(item, 1)
    return signatures


def _calls():
    """(callee, the name an attribute call is made on or None, call) for each
    call in the program. Inside a class, ``cls`` names that class."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else owner
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    yield (owner if func.id == "cls" and owner else func.id), None, child
                elif isinstance(func, ast.Attribute):
                    receiver = func.value.id if isinstance(func.value, ast.Name) else None
                    if receiver == "cls":
                        receiver = owner
                    yield func.attr, receiver, child
            yield from visit(child, inner)

    for tree in _user_trees():
        yield from visit(tree, None)


def test_every_defaulted_parameter_is_passed_by_the_program():
    signatures = _public_signatures()
    passed = set()
    for callee, receiver, call in _calls():
        for name, (defaulted, positional) in signatures.items():
            owner, _, short = name.rpartition(".")
            if short != callee or (owner and receiver in signatures and receiver != owner):
                continue
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                keyword.arg is None for keyword in call.keywords
            ):
                given = set(defaulted)
            else:
                given = set(positional[: len(call.args)])
                given.update(keyword.arg for keyword in call.keywords)
            passed.update(f"{name}({parameter})" for parameter in given)
    unpassed = {
        f"{name}({parameter})"
        for name, (defaulted, _) in signatures.items()
        for parameter in defaulted
    } - passed
    assert len(signatures) > 50
    assert sorted(unpassed - TEST_ONLY_PARAMETERS) == []
    assert TEST_ONLY_PARAMETERS <= unpassed, "a parameter kept for tests is passed by the program now"
