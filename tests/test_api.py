import re
from pathlib import Path

import cascadeg2

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    "BellResult", "CascadeBatch", "CascadeParams", "CorrelationCurve",
    "CorrelationDegree", "DetectorSetting", "DivergentAverageError", "Level",
    "N_LEVELS", "NumericError", "STANDARD_CHSH_ANGLES", "TSIRELSON_BOUND",
    "bell_s_chsh", "bell_s_from_response", "bell_s_shortcut",
    "build_generator", "chsh_coefficient", "correlation_curve",
    "degree_from_response", "degree_of_correlation", "evolve", "evolve_grid",
    "g2_analytic", "g2_avg_analytic", "g2_avg_numeric", "g2_numeric",
    "g2_numeric_grid", "omega_star", "two_photon_response", "unvectorize",
    "vectorize", "__version__",
}


def test_exported_names_are_pinned_and_resolve():
    assert len(cascadeg2.__all__) == len(PUBLIC_NAMES) == 32
    assert set(cascadeg2.__all__) == PUBLIC_NAMES
    for name in cascadeg2.__all__:
        assert getattr(cascadeg2, name) is not None


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "False" and "violated=True" in out[3]
