"""Module-level names are looked up at call time, and every exported
name exists.

A caller may wrap a public function where another module looks it up,
as the per-layer tracer in perfbench/spans.py does: compute_kernel must
reach each kernel through graphprox.kernels, the audit checks must reach
each property check and transform through graphprox.audit, and a kernel
result must reach what it derives its distances and proximity scan with
through graphprox.kernels. A table that held the functions themselves
would bypass the wrapper.
"""

import importlib
import pkgutil
import types

import pytest

import graphprox
from graphprox import audit, kernels
from graphprox.audit import CHECKS, export_embedding, run_check
from graphprox.kernels import MEASURES, compute_kernel

KERNEL_FUNCTIONS = {
    "katz": "katz",
    "comm": "communicability",
    "dfact": "double_factorial",
    "heat": "heat",
    "nheat": "normalized_heat",
    "regL": "regularized_laplacian",
    "absorp": "absorption",
    "ppr": "ppr",
    "modifppr": "modified_ppr",
    "heatppr": "pagerank_heat",
}

# The property checks and transforms the audit checks call by name, each
# with the module that looks it up: audit, or kernels for what a kernel
# result derives.
AUDIT_BINDINGS = [
    (module, name)
    for module in (audit, kernels)
    for name, obj in sorted(vars(module).items())
    if isinstance(obj, types.FunctionType)
    and not name.startswith("_")
    and obj.__module__ in ("graphprox.properties", "graphprox.transforms")
]
AUDIT_NAMES = {name for _, name in AUDIT_BINDINGS}
# Transforms that only export_embedding calls, not any check.
EMBED_ONLY = {"embed", "kernel_to_sq_dist"}


def wrap_counting(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("measure", MEASURES)
def test_compute_kernel_sees_a_wrapped_kernel(monkeypatch, path4, measure):
    calls = wrap_counting(monkeypatch, kernels, KERNEL_FUNCTIONS[measure])
    kres = compute_kernel(path4, measure, 0.05)
    assert calls == [KERNEL_FUNCTIONS[measure]]
    assert kres.measure == measure


def test_audit_names_cover_checks_and_transforms():
    assert {n for n in AUDIT_NAMES if not n.startswith("check_")} == {
        "embed", "kernel_to_sq_dist", "log_distance", "pair_to_dist", "symmetrize_geometric",
    }
    assert len([n for n in AUDIT_NAMES if n.startswith("check_")]) == 9
    # a kernel result derives its distances and proximity scan itself
    assert {n for m, n in AUDIT_BINDINGS if m is kernels} == {
        "check_proximity", "log_distance", "pair_to_dist", "symmetrize_geometric",
    }


def binding_id(binding) -> str:
    module, name = binding
    return name if module is audit else f"kernels.{name}"


@pytest.mark.parametrize("module,name", AUDIT_BINDINGS, ids=map(binding_id, AUDIT_BINDINGS))
def test_audit_sees_a_wrapped_check_or_transform(
    monkeypatch, tmp_path, path4, module, name
):
    calls = wrap_counting(monkeypatch, module, name)
    if name in EMBED_ONLY:
        export_embedding(path4, "heat", 1.0, str(tmp_path / "x.csv"))
    else:
        # a symmetric and an asymmetric kernel, so that every branch runs
        for measure in ("regL", "ppr"):
            kres = compute_kernel(path4, measure, 0.9)
            for check in CHECKS:
                run_check(check, kres, path4)
    assert calls


def public_modules():
    yield graphprox
    for info in pkgutil.iter_modules(graphprox.__path__):
        if not info.name.startswith("_"):
            yield importlib.import_module(f"graphprox.{info.name}")


@pytest.mark.parametrize("module", list(public_modules()), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
