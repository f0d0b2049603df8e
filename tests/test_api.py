import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import cascadeg2
from cascadeg2 import cli

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    "CascadeBatch", "CascadeParams", "CorrelationCurve", "DetectorSetting",
    "DivergentAverageError", "Level", "N_LEVELS", "NumericError",
    "STANDARD_CHSH_ANGLES", "TSIRELSON_BOUND", "TwoPhotonResponse",
    "bell_s_chsh_from_response", "bell_s_from_response", "build_generator",
    "chsh_from_response", "correlation_curve", "degree_from_response",
    "evolve_grid", "g2_analytic", "g2_avg_analytic",
    "g2_avg_numeric", "g2_numeric", "g2_numeric_grid", "omega_star",
    "two_photon_response", "unvectorize", "vectorize", "__version__",
}


def test_exported_names_are_pinned_and_resolve():
    assert len(cascadeg2.__all__) == len(PUBLIC_NAMES) == 28
    assert set(cascadeg2.__all__) == PUBLIC_NAMES
    for name in cascadeg2.__all__:
        assert getattr(cascadeg2, name) is not None


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("[False  True]")


def _readme_commands():
    """The argument lists of the ``cascadeg2`` lines in the README's sh
    blocks, continuation lines joined and comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = (shlex.split(line, comments=True) for line in lines)
    return [argv[1:] for argv in commands if argv[:1] == ["cascadeg2"]]


_README_COMMANDS = _readme_commands()


def test_readme_command_examples_are_found():
    assert [argv[0] for argv in _README_COMMANDS] == [
        "figure", "figure", "degree", "bell", "bell", "correlate", "sweep",
        "verify", "verify"]


# verify has a CI step of its own
@pytest.mark.parametrize("argv", [argv for argv in _README_COMMANDS
                                  if argv[0] != "verify"], ids=" ".join)
def test_readme_command_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


# :func:`name`, :meth:`name` and :class:`name` in the package's docstrings
_CROSS_REFERENCE = re.compile(r":(?:func|meth|class):`~?([\w.]+)`")


def _resolves(module, target: str) -> bool:
    """Whether ``target`` names an attribute of ``module``, an attribute of a
    class defined there, or, as a dotted ``cascadeg2.`` path, anything."""
    if target.startswith("cascadeg2."):
        try:
            pkgutil.resolve_name(target)
        except (ImportError, AttributeError):
            return False
        return True
    classes = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__]
    return any(hasattr(owner, target) for owner in (module, *classes))


def test_docstring_cross_references_resolve():
    package = Path(cascadeg2.__file__).parent
    stale, found = [], 0
    for source in sorted(package.glob("*.py")):
        name = "" if source.stem == "__init__" else f".{source.stem}"
        module = importlib.import_module(f"cascadeg2{name}")
        for target in _CROSS_REFERENCE.findall(source.read_text(encoding="utf-8")):
            found += 1
            if not _resolves(module, target):
                stale.append(f"{source.name}: {target}")
    assert found >= 20 and not stale
    # names deleted from the code do not resolve
    correlate = importlib.import_module("cascadeg2.correlate")
    assert not _resolves(correlate, "_expm2")
    assert not _resolves(correlate, "cascadeg2.correlate._sinhc")
