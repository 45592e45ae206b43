"""The public surface: what deformfield exports and what README names."""

import os
import re

import deformfield

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_all_resolves_once_and_sorted():
    names = deformfield.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    missing = [name for name in names if not hasattr(deformfield, name)]
    assert missing == []


def test_readme_lower_level_pieces_are_exported():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Lower-level pieces")
    paragraph = text[start : text.index("\n\n", start)]
    named = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(named) >= 10  # the paragraph was found and parsed
    assert [name for name in named if name not in deformfield.__all__] == []
