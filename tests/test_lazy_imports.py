"""The package loads its modules on first use, and a command-line process
imports only the modules its subcommand runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schubert_git
from schubert_git import case_studies

ROOT = Path(__file__).resolve().parent.parent


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m for m in sys.modules if m.startswith('schubert_git'))"

_CLI_PROBE = """
import contextlib, io, json, sys
from schubert_git import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""

SCAN = {"cli", "weyl", "git_geometry"}

# Standard-library modules a light subcommand must not load: dataclasses
# and the inspection modules it pulls in, and, for the coset scan, exact
# rationals and random draws.
NO_RECORDS = {"dataclasses", "inspect"}
NO_POINT = NO_RECORDS | {"fractions", "random"}


@pytest.fixture(scope="module")
def bare_modules():
    """What a bare interpreter loads before any code runs, site hooks
    included."""
    return set(_fresh("import json, sys; print(json.dumps(sorted(sys.modules)))"))


@pytest.mark.parametrize(
    "argv, allowed, barred",
    [
        (["minimal", "--n", "8"], {"cli", "weyl"}, None),
        (["stability", "--n", "6", "--w", "4,6"], {"cli", "weyl"}, None),
        (["singular-count", "--n", "6"], SCAN, None),
        (["candidates", "--n", "8", "--w", "6,8"], SCAN, None),
        (["confluence", "--symbols", "6"], None, {"case_studies", "presentations"}),
        (
            ["verify", "--n", "6", "--lhs", "p[2,5]*p[3,4]", "--rhs", "p[2,4]*p[3,5] - p[2,3]*p[4,5]"],
            None,
            {"case_studies", "linalg", "formal"},
        ),
    ],
    ids=["minimal", "stability", "singular-count", "candidates", "confluence", "verify"],
)
def test_cli_loads_only_its_modules(argv, allowed, barred):
    code, loaded = _fresh(_CLI_PROBE, json.dumps(argv))
    assert code == 0
    ours = [name for name in loaded if name.startswith("schubert_git")]
    assert ours[0] == "schubert_git"
    modules = {name.split(".", 1)[1] for name in ours[1:]}
    if allowed is not None:
        assert modules == allowed
    if barred is not None:
        assert not modules & barred


@pytest.mark.parametrize(
    "argv, barred",
    [
        (["straighten", "p[2,5]*p[3,4]", "--n", "6"], NO_RECORDS),
        (["confluence", "--symbols", "6"], NO_RECORDS),
        (["singular-count", "--n", "6"], NO_POINT),
        (["candidates", "--n", "8", "--w", "6,8"], NO_POINT),
    ],
    ids=["straighten", "confluence", "singular-count", "candidates"],
)
def test_light_subcommands_skip_heavy_stdlib_modules(argv, barred, bare_modules):
    code, loaded = _fresh(_CLI_PROBE, json.dumps(argv))
    assert code == 0
    assert not (set(loaded) - bare_modules) & barred


def test_package_import_loads_no_module():
    assert _fresh(f"import json, sys, schubert_git; print(json.dumps({_LOADED}))") == ["schubert_git"]


def test_star_import_binds_every_public_name():
    bound, listed = _fresh(
        "import json, schubert_git\n"
        "listed = dir(schubert_git)\n"
        "namespace = {}\n"
        "exec('from schubert_git import *', namespace)\n"
        "print(json.dumps([sorted(namespace), listed]))"
    )
    assert set(schubert_git.__all__) <= set(bound)
    assert set(schubert_git.__all__) <= set(listed)


def test_public_names_are_their_home_objects():
    for name in schubert_git.__all__:
        if name == "__version__":
            continue
        value = getattr(schubert_git, name)
        assert value.__module__.startswith("schubert_git.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        schubert_git.no_such_name
    with pytest.raises(ImportError):
        from schubert_git import no_such_name  # noqa: F401
    with pytest.raises(AttributeError):
        case_studies.NO_SUCH_CASE


def test_cases_are_built_once():
    for attribute, name in [("G26", "g26"), ("X68", "x68"), ("X710", "x710")]:
        case = getattr(case_studies, attribute)
        assert case_studies.CASES[name] is case
        # generator_labels reads the cached cases: the same tuple each call.
        for _ in range(2):
            assert case_studies.generator_labels(case.n, case.v, case.w) is case.generators
