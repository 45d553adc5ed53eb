"""Package surface: the names spinscape exports, and the README's tour of them."""

import sys
from pathlib import Path

import spinscape


def test_every_exported_name_resolves():
    # a stale __all__ entry would break ``from spinscape import *``
    missing = [name for name in spinscape.__all__ if not hasattr(spinscape, name)]
    assert missing == []
    assert len(set(spinscape.__all__)) == len(spinscape.__all__)


def test_import_binds_the_landscape_module():
    # no exported name shadows the module it comes from
    import spinscape.landscape as m

    assert m is sys.modules["spinscape.landscape"]
    assert spinscape.landscape is m


def test_readme_library_quick_tour_runs(capsys):
    # the README's code must keep up with the public signatures
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert "wells," in capsys.readouterr().out
