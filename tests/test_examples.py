"""Every example script must run end-to-end."""

import runpy
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

#: Examples whose output a named test below checks; ``test_runs`` runs the rest.
CHECKED = ("quickstart", "io_protection", "virtualized_guest")


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "pmpt" in out and "hpmp" in out
        # The headline reference counts appear in the output.
        assert " 12 " in out and " 6 " in out

    def test_io_protection(self, capsys):
        out = run_example("io_protection", capsys)
        assert "DENIED" in out
        assert "table mode" in out

    def test_virtualized_guest(self, capsys):
        out = run_example("virtualized_guest", capsys)
        assert "48" in out and "18" in out

    @pytest.mark.parametrize("name", sorted(p.stem for p in EXAMPLES.glob("*.py") if p.stem not in CHECKED))
    def test_runs(self, name, capsys):
        assert run_example(name, capsys)
