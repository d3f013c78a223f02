"""Module-level names are looked up at call time, and every exported
name exists.

A caller may wrap a public function where another module looks it up,
as the per-layer tracer in perfbench/spans.py does: compute_kernel must
reach each kernel through graphprox.kernels, the audit checks must reach
each property check and transform through graphprox.audit, and a kernel
result must reach what it derives its distances with through
graphprox.kernels. A table that held the functions themselves
would bypass the wrapper. Not every audit check reports through a
wrappable name, and those that do not are pinned: sym_psd, metric and
transitional run private cores (metric applies the T1 rule in
properties._metric, which reads the proximity reports and walks the
distances left), and an asymmetric kernel's proximity and sigma are
decided by its asymmetry alone. The CLI writes every JSON document through
graphprox.cli.report_json, the span the tracer times as audit.report_json.
"""

import importlib
import pkgutil
import types

import pytest

import graphprox
from graphprox import audit, cli, kernels
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
    # sym_psd, sigma and transitional go through private cores
    assert len([n for n in AUDIT_NAMES if n.startswith("check_")]) == 8
    # a kernel result derives its distances itself; the audit runs every check
    assert {n for m, n in AUDIT_BINDINGS if m is kernels} == {
        "log_distance", "pair_to_dist", "symmetrize_geometric",
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
        # a symmetric and an asymmetric kernel, so that every branch runs,
        # and heat, which fails transitional, so that cutpoint_additive
        # derives the logarithmic distance its passing transitional check
        # spares the others
        for measure in ("regL", "ppr", "heat"):
            kres = compute_kernel(path4, measure, 0.9)
            for check in CHECKS:
                run_check(check, kres)
    assert calls


# The public check each audit check reports through, where it does;
# sym_psd, metric and transitional have none.
PUBLIC_CHECK = {
    "psd": "check_psd",
    "proximity": "check_proximity",
    "sigma": "check_proximity",
    "egocentrism": "check_egocentrism",
    "sq_euclidean": "check_sq_euclidean",
    "sqrt_distance": "check_sqrt_distance",
    "distance_order": "check_distance_order",
    "cutpoint_additive": "check_cutpoint_additive",
    "log_metric": "check_metric",
    "log_proximity": "check_proximity",
    "log_psd": "check_psd",
    "log_order": "check_distance_order",
}


def test_audit_checks_that_bypass_a_wrapped_check_are_pinned(monkeypatch, path4):
    assert set(CHECKS) - set(PUBLIC_CHECK) == {"sym_psd", "metric", "transitional"}
    calls = {name: wrap_counting(monkeypatch, audit, name) for name in set(PUBLIC_CHECK.values())}
    bypassed = set()
    # regL passes proximity, ppr is asymmetric, heat fails proximity
    for measure in ("regL", "ppr", "heat"):
        for check, name in PUBLIC_CHECK.items():
            calls[name].clear()
            run_check(check, compute_kernel(path4, measure, 0.9))  # a fresh memo
            if not calls[name]:
                bypassed.add((check, measure))
    assert bypassed == {("proximity", "ppr"), ("sigma", "ppr")}


@pytest.mark.parametrize("argv", [
    ["audit", "paper:path4", "--measure", "regL:1.0,ppr:0.9", "--check", "all"],
    ["threshold", "paper:path4", "--measure", "heat", "--property", "proximity",
     "--range", "0.1", "1.0"],
], ids=["audit", "threshold"])
def test_cli_writes_json_through_report_json_once(monkeypatch, tmp_path, capsys, argv):
    calls = wrap_counting(monkeypatch, cli, "report_json")
    cli.main(argv + ["--json", str(tmp_path / "out.json")])
    assert calls == ["report_json"]
    assert (tmp_path / "out.json").exists()


def public_modules():
    yield graphprox
    for info in pkgutil.iter_modules(graphprox.__path__):
        if not info.name.startswith("_"):
            yield importlib.import_module(f"graphprox.{info.name}")


@pytest.mark.parametrize("module", list(public_modules()), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
