"""Module-level names are looked up at call time, and every exported
name exists.

A caller may wrap a public function where another module looks it up,
as the per-layer tracer in perfbench/spans.py does: compute_kernel must
reach each kernel through graphprox.kernels, and the audit checks must
reach each property check and transform through graphprox.audit. A
table that held the functions themselves would bypass the wrapper.
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

# The property checks and transforms the audit module calls by name.
AUDIT_NAMES = sorted(
    name
    for name, obj in vars(audit).items()
    if isinstance(obj, types.FunctionType)
    and not name.startswith("_")
    and obj.__module__ in ("graphprox.properties", "graphprox.transforms")
)
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
def test_compute_kernel_sees_a_wrapped_kernel(monkeypatch, path4_gm, measure):
    calls = wrap_counting(monkeypatch, kernels, KERNEL_FUNCTIONS[measure])
    kres = compute_kernel(path4_gm, measure, 0.05)
    assert calls == [KERNEL_FUNCTIONS[measure]]
    assert kres.measure == measure


def test_audit_names_cover_checks_and_transforms():
    assert {n for n in AUDIT_NAMES if not n.startswith("check_")} == {
        "embed", "kernel_to_sq_dist", "log_distance", "pair_to_dist", "symmetrize_geometric",
    }
    assert len([n for n in AUDIT_NAMES if n.startswith("check_")]) == 9


@pytest.mark.parametrize("name", AUDIT_NAMES)
def test_audit_sees_a_wrapped_check_or_transform(monkeypatch, tmp_path, path4, path4_gm, name):
    calls = wrap_counting(monkeypatch, audit, name)
    if name in EMBED_ONLY:
        export_embedding(path4, "heat", 1.0, str(tmp_path / "x.csv"))
    else:
        # a symmetric and an asymmetric kernel, so that every branch runs
        for measure in ("regL", "ppr"):
            kres = compute_kernel(path4_gm, measure, 0.9)
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
