"""The benchmark's tracer wraps modlat functions by name; a rename in the
package must fail here, under every Python the tests run on."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import modlat.bol
import modlat.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_current_names(tmp_path, capsys):
    tracing = _load_tracing()
    names = {**tracing.SPANNED, **tracing.COUNTED}
    originals = {name: getattr(home, attr) for name, (home, attr) in names.items()}
    canonical_bol = modlat.bol.canonical_bol
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert modlat.bol.canonical_bol is not canonical_bol
        lat = tmp_path / "z3z3.json"
        assert modlat.cli.main(["subgroup-lattice", "--group", "3,3", "--out", str(lat)]) == 0
        assert modlat.cli.main(["bol", "--lattice", str(lat)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counts["bol.canonical_bol_calls"] == 1
    for name, (home, attr) in names.items():
        assert getattr(home, attr) is originals[name], name
