import ast
import importlib
from pathlib import Path

import pytest

import obflab

SRC = Path(obflab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _imports(tree: ast.AST):
    """Every module or module.name an import statement brings in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_adaptive_quadrature_in_the_package(path):
    # the adaptive references live in tests/oracles.py; the package has one grid integrator
    found = [name for name in _imports(ast.parse(path.read_text(encoding="utf-8")))
             if name == "scipy.integrate" or name.startswith("scipy.integrate.")]
    assert not found, f"{path.name} imports {found}"


# the scalar incomplete gamma, its exponential integrals, the upper gammas and
# the exact term algebra they once fed: the package's one Gamma route is
# numerics.lower_gamma_ladder, the only module that calls scipy's gammainc;
# the scalar reference lives in tests/oracles.py
_SCALAR_GAMMA = {"upper_incomplete_gamma", "exp1", "expn", "gammaincc", "Fraction", "GammaLadder"}


def _names(tree: ast.AST):
    """Every identifier a module defines, imports or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scalar_incomplete_gamma_in_the_package(path):
    banned = _SCALAR_GAMMA if path.name == "numerics.py" else _SCALAR_GAMMA | {"gammainc"}
    found = sorted(set(_names(ast.parse(path.read_text(encoding="utf-8")))) & banned)
    assert not found, f"{path.name} names {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_numerics_names_the_rank_cap(path):
    # numerics.check_rank is the one comparison with the cap; every other
    # module asks it, through grids.rank_laws or marginal_grid
    names = set(_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert path.name == "numerics.py" or "MAX_ANALYTIC_RANK" not in names, path.name


# numpy's bit generators and the calls that build one
_BIT_GENERATORS = {"BitGenerator", "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
                   "RandomState", "default_rng"}


def _bit_generator_uses(tree: ast.AST, scope: str = ""):
    """(enclosing function, name) for each bit generator a module names."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _bit_generator_uses(node, node.name)
            continue
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in _BIT_GENERATORS:
            yield scope, name
        yield from _bit_generator_uses(node, scope)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_channel_substream_builds_a_bit_generator(path):
    # every random draw of a run comes from channel.substream, so the bit
    # generator is named in one place and a run's streams follow its seed
    uses = list(_bit_generator_uses(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name == "channel.py":
        assert [scope for scope, _ in uses] == ["substream"], uses
    else:
        assert not uses, f"{path.name} builds {uses}"


def _module_imports(tree: ast.Module):
    """(bound name, what it names) for each import statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, f"{node.module or '.'}.{a.name}")
                        for a in node.names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    # no linter runs on the package: an import its module neither uses nor exports is dead
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = "obflab" if path.stem == "__init__" else f"obflab.{path.stem}"
    kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept |= set(getattr(importlib.import_module(module), "__all__", ()))
    unused = [target for name, target in _module_imports(tree) if name not in kept]
    assert not unused, f"{path.name} never uses {unused}"


@pytest.mark.parametrize("module", ["obflab", *(f"obflab.{m}" for m in MODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"


# every public name, module by module: adding or dropping one is an edit here
PUBLIC = {
    "obflab": [
        "__version__", "BeamformerMatrix", "ChannelSet", "SystemParams", "draw_channel_batch",
        "null_space_basis", "substream", "ScheduleOutcome", "adaptive_obf",
        "greedy_zfdp_schedule", "olbf", "sum_rate", "zfs_schedule", "ObfParams",
        "obf_joint_pdf_scheduled", "obf_marginal_pdf_grid", "obf_mean_sum_rate",
        "obf_selection_cdf", "obf_unordered_pdf", "OlbfParams", "olbf_cdf_z", "olbf_joint_pdf_t",
        "olbf_marginal_pdf_sinr_grid", "olbf_mean_sum_rate", "olbf_unordered_pdf_z",
        "DistributionGrid", "obf_sinr_grid", "olbf_sinr_grid", "SCHEMES", "ExperimentConfig",
        "ExperimentReport", "attach_analysis", "ks_distance", "run_experiment",
    ],
    "obflab.analytic_obf": [
        "ObfParams", "obf_x_to_v", "obf_v_to_x", "obf_unordered_pdf", "obf_phi",
        "obf_selection_cdf", "obf_joint_pdf_scheduled", "obf_marginal_pdf_grid", "obf_sinr_grid",
        "obf_mean_sum_rate",
    ],
    "obflab.analytic_olbf": [
        "OlbfParams", "olbf_x_to_v", "olbf_v_to_x", "olbf_unordered_pdf_z", "olbf_xi",
        "olbf_cdf_z", "olbf_joint_pdf_t", "olbf_marginal_pdf_t_grid",
        "olbf_marginal_pdf_sinr_grid", "olbf_sinr_grid", "olbf_mean_sum_rate",
    ],
    "obflab.batch": [
        "batch_adaptive_obf", "batch_olbf", "batch_zfs", "batch_zfdp", "batch_random_obf",
        "batch_random_olbf",
    ],
    "obflab.channel": [
        "BLOCK_ENTRIES", "SystemParams", "ChannelSet", "BeamformerMatrix", "draw_channel_batch",
        "draw_channel_blocks", "substream", "null_space_basis", "null_space_basis_batch",
    ],
    "obflab.cli": ["RunManifest", "main", "read_report_csv"],
    "obflab.grids": ["DistributionGrid", "MaxNormLaw", "rank_law", "rank_laws", "scheduled",
                     "mean_sum_rate", "CHEB_TOL", "CHEB_CAP", "MASS_TOL"],
    "obflab.montecarlo": [
        "SCHEMES", "SCHEME_TABLE", "Scheme", "Analytic", "ExperimentConfig", "ExperimentReport",
        "run_experiment", "worker_count", "ks_distance", "attach_analysis",
    ],
    "obflab.numerics": [
        "QuadratureError", "lower_gamma_ladder", "lower_gamma_moment", "GRID_BLOCK_BYTES",
        "INNER_NODES", "inner_rule", "MAX_ANALYTIC_RANK", "check_rank", "marginal_grid",
    ],
    "obflab.schedulers": [
        "ScheduleOutcome", "adaptive_obf", "olbf", "zfs_schedule", "greedy_zfdp_schedule",
        "sum_rate", "ZF_RANK_TOL",
    ],
    "obflab.textfmt": ["float_field", "int_field", "join_rows"],
}


@pytest.mark.parametrize("module", ["obflab", *(f"obflab.{m}" for m in MODULES)])
def test_public_surface_is_pinned(module):
    assert getattr(importlib.import_module(module), "__all__", None) == PUBLIC[module]


# names deleted because nothing but their own tests read them, the fixed
# point count per grid block that numerics.GRID_BLOCK_BYTES replaced, the
# rank-1 CDF that grids.MaxNormLaw replaced, the two schemes' names for
# the inverse per-stream SNR that params.c replaced, the per-scheme rules
# for the samples per trial and the antennas that SystemParams.r and
# Scheme.all_beams replaced, and the rank-cap notice of a fallback that
# never existed; every test file but this one is searched too
_DELETED = ("write_report_csv", "runtime_seconds", "draw_channels", "v_to_z", "z_to_v",
            "n_scheduled", "GRID_CHUNK", "_max_norm_cdf", "params.rp", "params.mp",
            "effective_r", "_R_SAMPLES", "_M_SAMPLES", "min_m", "numeric fallback")
TESTS = Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"
_SEARCHED = [*sorted(SRC.glob("*.py")), *sorted(DEMOS.glob("*.py")),
             *sorted(p for p in TESTS.glob("*.py") if p.name != "test_package.py")]


@pytest.mark.parametrize("path", _SEARCHED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_deleted_names_stay_gone(path):
    text = path.read_text(encoding="utf-8")
    found = [name for name in _DELETED if name in text]
    assert not found, f"{path.name} names {found}"
