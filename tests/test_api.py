import re
from pathlib import Path

import hoferbilliards


def _readme_api_names():
    """The names of the README's "Library API" list, in order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listing = next(block for block in section.split("\n\n") if block.startswith("- "))
    return re.findall(r"`(\w+)`", listing)


def test_readme_api_list_is_the_public_surface():
    # adding or dropping a public name updates both the list and __all__
    names = _readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(hoferbilliards.__all__)
    for name in names:
        assert getattr(hoferbilliards, name) is not None


def _run_without_scipy(code, *args, cwd):
    """Run ``code`` in a fresh interpreter that cannot import scipy."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(Path(hoferbilliards.__file__).parents[1]))
    blocked = "import sys; sys.modules['scipy'] = None\n" + code
    return subprocess.run([sys.executable, "-c", blocked, *args], capture_output=True, text=True, cwd=cwd, env=env)


def test_runtime_needs_no_scipy(tmp_path):
    # numpy is the one runtime dependency; the tests keep scipy as an oracle
    import json

    (tmp_path / "square.json").write_text(json.dumps(
        {"vertices": [[0.125, -0.125], [0.125, 0.125], [-0.125, 0.125], [-0.125, -0.125]], "mark": 0.125}))
    (tmp_path / "disc.json").write_text(json.dumps({"type": "disc"}))
    (tmp_path / "oval.json").write_text(json.dumps({"type": "fourier_support", "c0": 1.0, "cos": [0.0, 0.03]}))
    hb = "from hoferbilliards.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (["verify", "all", "--seed", "7"],
                 ["polygon", "cauchy", "--polygon", "square.json"],
                 ["barcode", "stability", "--table", "disc.json", "--table2", "oval.json", "--resolution", "24"]):
        run = _run_without_scipy(hb, *argv, "--out", "out", cwd=tmp_path)
        assert run.returncode == 0, (argv, run.stderr[-2000:])
    # importing the CLI loads every module of the package
    run = _run_without_scipy(
        "del sys.modules['scipy']\nimport hoferbilliards.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))", cwd=tmp_path)
    assert run.returncode == 0 and run.stdout.strip() == "[]", run.stderr[-2000:]
