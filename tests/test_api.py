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
