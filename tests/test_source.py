"""Source layout: every top-level function and class in src/ is used by src/.

A helper that only the tests call belongs in the tests.  The check parses
each module, collects the names it defines at top level, and looks for
a reference to each name (a load, an attribute access or an import)
anywhere in src/ outside the definition itself.  Docstrings and comments
do not count.
"""
import ast
from collections import Counter
from pathlib import Path

import dpmix

SRC = Path(dpmix.__file__).parent
# Entry points: the lazy public names of the package and the console script's
# target, which pyproject.toml names as dpmix.__main__:main.
EXEMPT = {*(f"{module}.{name}" for name, module in dpmix._PUBLIC.items()), "__main__.main"}


def _referenced_names(node):
    """Every name that ``node``'s subtree uses, once per use."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _unreferenced_definitions():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    uses = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or f"{module}.{name}" in EXEMPT:
                continue
            # uses inside the definition itself (recursion) do not count
            if uses[name] == Counter(_referenced_names(node))[name]:
                unused.append(f"{module}.{name}")
    return sorted(unused)


def test_every_top_level_definition_is_used_in_src():
    assert _unreferenced_definitions() == []


def _normal_draw_sites():
    """``module.function`` of every ``.normal(`` call in src/, once per call."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "normal"):
                    sites.append(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return sorted(sites)


def test_every_noisy_release_goes_through_gaussian_release():
    # the other three draws are data-independent initialisations, not releases
    assert _normal_draw_sites() == [
        "accountant.gaussian_release",
        "kmeans.default_initial_centers",
        "rbm.init_model",
        "rff.sample_feature_map",
    ]


def _value_error_handler_sites():
    """``module.function`` of every ``except`` clause in src/ that catches ValueError."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.ExceptHandler) and sub.type is not None and any(
                    isinstance(name, ast.Name) and name.id == "ValueError"
                    for name in ast.walk(sub.type)
                ):
                    sites.append(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return sorted(sites)


def test_only_file_readers_and_main_catch_value_error():
    # A library ValueError means an argument was refused, and cli.main maps
    # it to exit 2.  Only code that reads a file catches it earlier, to
    # name the bad input as a data or config-file error.
    assert _value_error_handler_sites() == [
        "cli._load_init_centers",
        "cli._read_config",
        "cli.cmd_evaluate",  # evaluate_workload's dimension check of the two files
        "cli.main",
        "data._parse_dense",
        "data._parse_sparse",
        "data.load_labels",
        "mixture._decode_base64",  # json's object_hook, which decodes each array's base64
        "mixture.load_model",
    ]


def _stream_name_sites():
    """``module.function`` of each child_seed or child_rng call in src/, by stream name."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                        and sub.func.id in ("child_seed", "child_rng")):
                    name = ast.unparse(sub.args[1])
                    sites.setdefault(name, []).append(f"{path.stem}.{node.name}")
    return sites


def test_each_random_stream_is_built_at_one_call_site():
    # train and the cluster command share the clustering stage, so its
    # streams are named once and the two cannot draw different ones
    sites = _stream_name_sites()
    assert {name: where for name, where in sites.items() if len(where) > 1} == {}
    assert sites["'feature-map'"] == sites["'kmeans-noise'"] == sites["'kmeans-init'"] == [
        "kmeans.clustering_stage"
    ]
