import ast
import builtins
import re
import subprocess
import sys
from pathlib import Path

import adoptindex


def test_public_surface_lists_each_package_import_once():
    names = adoptindex.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(adoptindex, name)] == []
    tree = ast.parse(Path(adoptindex.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported == set(names)


# Editing either list below is a change to the public API, which CHANGES.md must name;
# the ROADMAP tracks the size of __all__.
PUBLIC_NAMES = [
    "AdoptionDataset", "ConfidenceInterval", "IndexValue", "ModelSpec", "MomentEstimate",
    "PmfSpec", "SHAPE_PRESETS", "ScoreEstimate", "SimulationPlan", "SimulationReport",
    "StudySpec", "TestOutcome", "TruePopulation", "VarianceEstimate", "confidence_interval",
    "delta_derivative", "delta_gradient", "errors", "estimate_moments", "global_index",
    "index_variance", "latent_cross_covariance", "one_sample_test",
    "population_asymptotic_variance", "run_study", "sample_dataset", "student_t_cdf",
    "student_t_pvalue", "student_t_quantile", "subindex", "surface_grid", "true_index",
    "two_sample_test", "validate_dataset",
]
ERROR_CLASSES = [
    "AdoptionIndexError", "InputError", "StatisticalRefusal", "OutOfRangeStage",
    "RowArityMismatch", "TooFewRows", "DuplicateRowId", "RowNotFound", "SpecMismatch",
    "ScoreOutOfRange", "UnsupportedArity", "InvalidResolution", "InvalidLevel", "InvalidDf",
    "DegenerateVariance", "InsufficientDf", "BoundaryScore",
]


def test_public_surface_is_the_listed_names():
    assert sorted(adoptindex.__all__) == PUBLIC_NAMES


def test_error_classes_are_the_listed_ones():
    classes = [name for name, value in vars(adoptindex.errors).items()
               if isinstance(value, type) and value.__module__ == adoptindex.errors.__name__]
    assert classes == ERROR_CLASSES


SOURCES = sorted(Path(adoptindex.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_sources_parse_at_the_declared_python_floor():
    # a regex, because tomllib is 3.11+ and the floor may be older
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', PYPROJECT.read_text(), re.M)
    version = (int(floor[1]), int(floor[2]))
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_sources_import_only_numpy_the_package_and_the_standard_library():
    allowed = {"numpy", "adoptindex"} | set(sys.stdlib_module_names)
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - allowed == set()


def test_every_error_class_is_raised_or_a_base():
    # an error class that nothing raises is dead surface
    tree = ast.parse((Path(adoptindex.__file__).parent / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {base.id for node in classes.values() for base in node.bases if isinstance(base, ast.Name)}
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert classes
    assert sorted(set(classes) - raised - bases) == []


# every raise of a builtin exception in src/, as (file, function, exception), and why it is no
# AdoptionIndexError: those alone reach a CLI exit status, any other exception a traceback
BUILTIN_RAISES = {
    ("cli.py", "_unique_keys", "ValueError"): "json.load's pair hook; load_spec names the file in an InputError",
    ("domain.py", "without_row", "IndexError"): "a library caller's position; the CLI passes found ones",
    ("domain.py", "__getattr__", "AttributeError"): "the attribute protocol, for a name a dataset lacks",
    ("domain.py", "index", "ValueError"): "tuple.index's contract; row_position turns it into RowNotFound",
    ("simulation.py", "_stream_words", "ValueError"): "unreachable: SimulationPlan refuses R > 2^32",
    ("tdist.py", "_betacf", "ArithmeticError"): "a continued fraction that fails to converge is a fault",
    ("tdist.py", "_quantile", "ArithmeticError"): "a bracket past 1e300 is a fault",
}


def test_builtin_exceptions_are_raised_only_where_listed():
    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, path, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and isinstance(getattr(builtins, exc.id, None), type):
                    yield path.name, function, exc.id
            yield from visit(child, path, function)

    raised = {found for path in SOURCES
              for found in visit(ast.parse(path.read_text(encoding="utf-8")), path, None)}
    assert sorted(raised) == sorted(BUILTIN_RAISES)


# every process-wide cache in src/, as (file, function). Such a cache outlives the call that
# filled it, and bench/worker.py clears only the quantile's between rounds, so a cache that
# answers repeats across rounds reads as a gain that no user sees. An lru_cache on
# student_t_pvalue is the example: the size study draws the same 200 t values every round (one
# seed), so each later round would be all hits. A new cache must be named in CHANGES.md and
# shown not to answer repeats across the benchmark's rounds. Per-object memos (cached_property,
# a dataset's positions and leave-one-out work, a MomentEstimate's index variances) die with
# their object and are not listed.
PROCESS_CACHES = [("tdist.py", "_quantile")]


def test_process_wide_caches_are_only_those_listed():
    def is_cache(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id == "functools" and node.attr in ("lru_cache", "cache")
        return isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")

    found, references = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert all(alias.asname is None for alias in node.names), path.name
            references += is_cache(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, node.name) for decorator in node.decorator_list
                          if is_cache(decorator.func if isinstance(decorator, ast.Call) else decorator)]
    assert references == len(found)  # no cache made by a call outside a decorator
    assert sorted(found) == PROCESS_CACHES


def test_readme_quickstart_runs_as_written():
    # a name the README uses but the package no longer has fails here first
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    (quickstart,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    src = str(Path(adoptindex.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r})\n{quickstart}"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_importing_the_cli_loads_no_random_number_machinery():
    # every CLI call pays for its imports; numpy loads np.random on first use, which only studies make
    src = str(Path(adoptindex.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import adoptindex.cli; "
        "print(sorted({'numpy.random', 'secrets'} & set(sys.modules)))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_sources_leave_no_unused_import_or_unreferenced_private_name():
    # the repo has no linter; this catches what a deletion leaves behind
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced, leftovers = set(), []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    for name, tree in trees.items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        used |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        leftovers.append(f"{name}: unused import {bound}")
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                defined = []
            for private in defined:
                if private.startswith("_") and not private.startswith("__"):
                    if private not in referenced:
                        leftovers.append(f"{name}: private name {private} is never referenced")
    assert leftovers == []


def _callers(callee):
    """(file, qualified function) of every call of ``callee`` in the package, by name or attribute."""
    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, path, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    yield path.name, scope
            yield from visit(child, path, scope)

    return [found for path in SOURCES for found in visit(ast.parse(path.read_text(encoding="utf-8")), path, None)]


def test_row_ids_as_byte_ranges_are_made_only_by_the_plain_reader():
    # _RowIds.strings splits at the comma after each id, and _RowIds.index searches for the
    # newline before it and the comma after it, which only a plain file's ids have
    assert _callers("_RowIds") == [("cli.py", "_read_plain")]


def test_one_kernel_computes_the_moments_of_a_sample_and_of_a_chunk():
    # one sample's covariances and correlations and a Monte Carlo chunk's come from the same
    # code, so the two cannot drift apart, and a third copy would have to be named here
    for kernel in ("_moments", "_correlations"):
        assert sorted(_callers(kernel)) == [("estimation.py", "_from_sums"),
                                            ("simulation.py", "_chunk_arguments")]


def test_one_kernel_forms_the_delta_method_variance_of_a_sample_and_of_a_chunk():
    # one sample's delta-method terms and their sum and a Monte Carlo chunk's come from the
    # same code, so the two cannot round apart, and a third copy would have to be named here
    assert sorted(_callers("_delta_form")) == [("inference.py", "index_variance"),
                                               ("simulation.py", "_chunk_arguments")]


def test_studies_take_moments_from_the_block_kernel_alone():
    # a flagged sample's variance comes from index_variance on the kernel's moments, so no
    # second moments path rebuilds a replication from its sums
    assert [caller for caller in _callers("_from_sums") if caller[0] == "simulation.py"] == []


def test_the_int64_bound_is_checked_only_when_a_sample_type_is_built():
    # a dataset's exact sums and a plan's sampled sums are then exact wherever they are reduced
    assert sorted(_callers("_require_exact")) == [
        ("domain.py", "AdoptionDataset.__post_init__"),
        ("simulation.py", "SimulationPlan.__post_init__"),
    ]
