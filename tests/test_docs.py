"""Docs stay honest: links resolve and knob docs track the config.

Cheap, deterministic checks that CI runs as the docs gate:

* every relative markdown link in ``README.md`` and ``docs/*.md``
  points at a file that exists (dead links fail the build),
* every ``*.md`` file a module under ``src/`` names exists, and
* ``docs/engines.md`` mentions every ``HyRecConfig`` field, so adding
  a knob without documenting it -- or documenting a knob that no
  longer exists -- is caught at test time.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import pytest

from repro.core.config import HyRecConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

# [text](target) -- excluding images and code spans is unnecessary at
# this repo's scale; external and intra-page targets are filtered out.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(path: pathlib.Path) -> list[str]:
    links = []
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target.split("#", 1)[0])
    return links


class TestDocLinks:
    @pytest.mark.parametrize(
        "path", DOC_FILES, ids=[p.name for p in DOC_FILES]
    )
    def test_relative_links_resolve(self, path):
        missing = [
            target
            for target in _relative_links(path)
            if not (path.parent / target).exists()
        ]
        assert not missing, f"dead links in {path.name}: {missing}"

    def test_docs_exist_and_are_linked_from_readme(self):
        readme_links = set(_relative_links(REPO_ROOT / "README.md"))
        assert "docs/architecture.md" in readme_links
        assert "docs/engines.md" in readme_links
        assert "docs/observability.md" in readme_links
        assert "docs/http.md" in readme_links


class TestConfigDrift:
    def test_engines_doc_covers_every_config_field(self):
        documented = (REPO_ROOT / "docs" / "engines.md").read_text()
        missing = [
            field.name
            for field in dataclasses.fields(HyRecConfig)
            if f"`{field.name}`" not in documented
        ]
        assert not missing, (
            "HyRecConfig fields missing from docs/engines.md: "
            f"{missing} -- document the knob (or prune it)"
        )

    def test_engines_doc_names_no_phantom_executors(self):
        # The executor table must list exactly the names the config
        # accepts; keep the two in sync by hand when adding one.
        from repro.cluster.executors import EXECUTOR_NAMES

        documented = (REPO_ROOT / "docs" / "engines.md").read_text()
        for name in EXECUTOR_NAMES:
            assert f'`"{name}"`' in documented, (
                f"executor {name!r} undocumented in docs/engines.md"
            )


# A markdown path as a docstring names it: ``docs/http.md``, DESIGN.md.
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


class TestSourceDocReferences:
    def test_every_md_named_in_src_exists(self):
        missing = sorted(
            f"{path.relative_to(REPO_ROOT)}: {name}"
            for path in (REPO_ROOT / "src").rglob("*.py")
            for name in set(_MD_NAME.findall(path.read_text()))
            if not (REPO_ROOT / name).exists()
        )
        assert not missing, f"src/ names markdown files that do not exist: {missing}"
