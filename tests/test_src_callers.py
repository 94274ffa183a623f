"""Guard against dead source: every public module-level function in
`src/tsqa` is referenced somewhere in the package outside its own
definition, or is on the recorded list below.

A reference is a name or an attribute with the function's name, anywhere
in any module of the package, or an entry of a module's `__all__`.  Names
are matched without their module, so a name shared by two modules counts
for both; the guard catches a function that nothing in src names at all.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tsqa"

# Functions with no caller in src, kept on purpose.  A function leaves this
# list when a src caller appears or when it is deleted.
KEPT = {
    # Names the benchmark's tracer lists in `perfbench/tracing.py::EXPECTED`.
    "facts.bulk_load": "benchmark tracer name",
    "features.embed_temporal": "benchmark tracer name",
    "metrics.evaluate": "benchmark tracer name",
    "metrics.score_predictions": "benchmark tracer name; the oracle of evaluate_compiled's cached scores",
    "policy.featurize_record": "benchmark tracer name; the one-record oracle of the batched engine",
    "policy.featurize": "benchmark tracer name",
    "policy.forward": "benchmark tracer name; the one-record oracle of the batched engine",
    "policy.backward": "benchmark tracer name",
    # Oracles and checks that only the tests call.
    "corpus.parse_record": "the one-record reader the dataset tests check",
    "facts.resolve_question": "the gold-resolution oracle of the facts tests",
    "features.concat_masks": "the concatenated-mask oracle of the features tests",
    "policy.grad_check": "the finite-difference check of acceptance criterion 4",
}


def _references(stmt: ast.stmt, own: str | None) -> set[str]:
    names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
    if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
        names |= set(ast.literal_eval(stmt.value))
    return names - {own}


def public_functions_and_references() -> tuple[list[str], set[str]]:
    """`module.function` of each public module-level function, and every
    name the package references outside the definition of that name."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if own is not None and not own.startswith("_"):
                defined.append(f"{path.stem}.{own}")
            referenced |= _references(stmt, own)
    return defined, referenced


def test_every_public_function_has_a_caller_in_src():
    defined, referenced = public_functions_and_references()
    assert len(defined) > 50
    unreferenced = [name for name in defined if name.split(".")[1] not in referenced]
    assert [name for name in unreferenced if name not in KEPT] == []


def test_the_kept_list_names_only_functions_that_exist():
    defined, _ = public_functions_and_references()
    assert sorted(set(KEPT) - set(defined)) == []
