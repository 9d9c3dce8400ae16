"""The CLI builds its argument parser once per process and reuses it."""

import argparse

import sig3.cli
from sig3.cli import main


def test_parser_is_built_once(monkeypatch):
    sig3.cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["eval", "f2", "0.5"]) == 0
    first = len(built)
    assert first >= 1
    assert main(["eval", "f3", "0.5"]) == 0
    assert main(["bogus"]) == 2
    assert len(built) == first


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["verify", "--quiet", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["verify", "--out", str(out)]) == 0
    assert "grid points" in capsys.readouterr().out
    for _ in range(2):
        assert main(["verify", "--grid"]) == 2
        assert "expected one argument" in capsys.readouterr().err
    assert main(["--help"]) == 0
    first = capsys.readouterr().out
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == first and first.startswith("usage: sig3")
