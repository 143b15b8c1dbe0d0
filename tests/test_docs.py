"""Documentation-site sanity: the nav and the docs tree stay in sync.

CI builds the site with ``mkdocs build --strict`` (which fails on broken
nav entries and dead internal links); these tests keep the config and
sources consistent in environments without mkdocs installed, and run the
real build when it is available.
"""

from __future__ import annotations

import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
MKDOCS_YML = REPO / "mkdocs.yml"


def nav_pages() -> list[str]:
    """Page paths referenced by mkdocs.yml's nav (cheap YAML-less parse)."""
    pages = []
    in_nav = False
    for line in MKDOCS_YML.read_text().splitlines():
        if line.startswith("nav:"):
            in_nav = True
            continue
        if in_nav:
            if line and not line.startswith(" "):
                break
            m = re.search(r":\s*(\S+\.md)\s*$", line)
            if m:
                pages.append(m.group(1))
    return pages


def test_mkdocs_config_exists() -> None:
    assert MKDOCS_YML.is_file()
    assert "docs_dir: docs" in MKDOCS_YML.read_text()


def test_nav_entries_exist_on_disk() -> None:
    pages = nav_pages()
    assert "index.md" in pages
    assert len(pages) >= 5
    for page in pages:
        assert (DOCS / page).is_file(), f"nav references missing page {page}"


def test_docs_pages_are_all_in_nav() -> None:
    # Nav entries may live in subdirectories (the api/ reference pages),
    # so compare docs-relative paths, not bare file names.
    on_disk = {
        p.relative_to(DOCS).as_posix() for p in DOCS.rglob("*.md")
    }
    assert on_disk == set(nav_pages())


def test_api_reference_pages_cover_bdd_and_shard() -> None:
    """The mkdocstrings pages must reference the live module paths."""
    bdd = (DOCS / "api" / "bdd.md").read_text()
    shard = (DOCS / "api" / "shard.md").read_text()
    for directive in ("::: repro.bdd.manager", "::: repro.bdd.io"):
        assert directive in bdd
    for directive in (
        "::: repro.shard.plan",
        "::: repro.shard.pool",
        "::: repro.shard.worker",
    ):
        assert directive in shard
    assert "mkdocstrings" in MKDOCS_YML.read_text()


def test_api_reference_pages_cover_automata_and_eqn() -> None:
    """The automata / eqn layer pages (the remaining ROADMAP docs item)."""
    automata = (DOCS / "api" / "automata.md").read_text()
    eqn = (DOCS / "api" / "eqn.md").read_text()
    for directive in (
        "::: repro.automata.automaton",
        "::: repro.automata.ops",
        "::: repro.automata.language",
    ):
        assert directive in automata
    for directive in (
        "::: repro.eqn.config",
        "::: repro.eqn.problem",
        "::: repro.eqn.solver",
        "::: repro.eqn.subset",
        "::: repro.eqn.partitioned",
        "::: repro.eqn.monolithic",
    ):
        assert directive in eqn


def test_api_reference_page_covers_serve() -> None:
    """The serve layer's mkdocstrings page (the service PR's docs item)."""
    serve = (DOCS / "api" / "serve.md").read_text()
    for directive in (
        "::: repro.serve.keys",
        "::: repro.serve.payload",
        "::: repro.serve.store",
        "::: repro.serve.jobs",
        "::: repro.serve.executor",
        "::: repro.serve.server",
        "::: repro.serve.client",
    ):
        assert directive in serve


def test_api_reference_page_covers_backends() -> None:
    """The pluggable-backend layer's mkdocstrings page."""
    backends = (DOCS / "api" / "backends.md").read_text()
    for directive in (
        "::: repro.bdd.backends",
        "::: repro.bdd.backends.protocol",
        "::: repro.bdd.backends.buddy",
        "::: repro.bdd.backends.conformance",
    ):
        assert directive in backends


def test_backends_docs_cover_the_contract() -> None:
    """The prose page must document the protocol, adapter and kit."""
    backends = (DOCS / "backends.md").read_text()
    for token in (
        "create_manager",
        "BddBackend",
        "--backend",
        "REPRO_BUDDY_LIB",
        "BackendFallbackWarning",
        "register_backend",
        "missing_ops",
        "run_conformance_case",
        "cache key",
    ):
        assert token in backends, f"backends.md is missing {token!r}"


def test_serving_docs_cover_the_operational_surface() -> None:
    """The prose pages must document what the service actually promises."""
    serving = (DOCS / "serving.md").read_text()
    for token in (
        "cache key",
        "--shards",
        "progress",
        "checkpoint",
        "resume",
        "/jobs",
        "since=",
        "repro submit",
    ):
        assert token in serving, f"serving.md is missing {token!r}"
    operations = (DOCS / "operations.md").read_text()
    for token in (
        "--cache-dir",
        "--max-entries",
        "--shards",
        "systemd",
        "LRU",
        "Troubleshooting",
        "/healthz",
    ):
        assert token in operations, f"operations.md is missing {token!r}"


def test_api_reference_page_covers_obs() -> None:
    """The observability layer's mkdocstrings page."""
    obs = (DOCS / "api" / "obs.md").read_text()
    for directive in (
        "::: repro.obs.trace",
        "::: repro.obs.metrics",
        "::: repro.obs.log",
    ):
        assert directive in obs


def test_observability_docs_cover_the_surface() -> None:
    """The prose page must document the flags and the span catalogue."""
    page = (DOCS / "observability.md").read_text()
    for token in (
        "--trace",
        "--log-level",
        "--log-json",
        "chrome://tracing",
        "shard-worker-",
        "frontier_batch",
        "gc_sweep",
        "validate_trace",
        "--require-workers",
        "/metrics",
        "phases",
        "MetricsRegistry",
    ):
        assert token in page, f"observability.md is missing {token!r}"
    # The operations page owns the scrape config and family table.
    operations = (DOCS / "operations.md").read_text()
    for token in (
        "/metrics",
        "scrape_configs",
        "repro_solves_total",
        "repro_cache_hits_total",
        "repro_steals_total",
    ):
        assert token in operations, f"operations.md is missing {token!r}"


def test_api_reference_modules_exist() -> None:
    """Every ``::: module`` directive must point at an importable module.

    ``mkdocs --strict`` would catch this in CI; this keeps the check in
    plain test environments without the docs toolchain.
    """
    import importlib

    for page in (DOCS / "api").glob("*.md"):
        for module in re.findall(
            r"^::: ([\w.]+)$", page.read_text(), flags=re.MULTILINE
        ):
            importlib.import_module(module)


def test_api_reference_page_covers_residency_and_compose() -> None:
    """The bounded-memory layer's mkdocstrings page."""
    streaming = (DOCS / "api" / "streaming.md").read_text()
    for directive in (
        "::: repro.eqn.residency",
        "::: repro.eqn.compose",
    ):
        assert directive in streaming


def test_streaming_docs_cover_the_surface() -> None:
    """The prose page must document the flags and the invariants."""
    page = (DOCS / "streaming.md").read_text()
    for token in (
        "--resident-budget",
        "--spill-dir",
        "--checkpoint-seconds",
        "--compose",
        "--u-signals",
        "content-addressed",
        "psi_spill",
        "psi_reload",
        "repro_psi_spills_total",
        "spill_bytes",
        "plan_components",
        "twin16x4@budget",
        "twin20_4@compose",
    ):
        assert token in page, f"streaming.md is missing {token!r}"


def test_internal_links_resolve() -> None:
    """Relative .md links between docs pages must point at real files."""
    for page in DOCS.rglob("*.md"):
        for target in re.findall(
            r"\]\(((?:\.\./)?\w[\w/-]*\.md)\)", page.read_text()
        ):
            resolved = (page.parent / target).resolve()
            assert resolved.is_file(), f"{page.name} links to missing {target}"


def test_docs_mention_the_tuning_flags() -> None:
    tuning = (DOCS / "tuning.md").read_text()
    for token in ("gc_min_live", "gc_growth", "reclaim"):
        assert token in tuning
    # The kernel policy objects and their bench row are gone.
    for token in (
        "gc_policy=",
        "reorder_policy=",
        "adaptive",
        "misordered_product_reorder",
    ):
        assert token not in tuning, f"tuning.md documents removed {token!r}"
    # The solver knobs, the kernel policies and in-place sifting are
    # gone; no page may still document them.
    for page in (*DOCS.rglob("*.md"), REPO / "README.md"):
        text = page.read_text()
        for flag in (
            "--reorder",
            "--gc ",
            "--product-order",
            "GcPolicy",
            "ReorderPolicy",
            "sift_now",
            "swap_levels",
            "set_reorder_boundaries",
        ):
            assert flag not in text, f"{page.name} documents removed {flag!r}"


def test_mkdocs_build_when_available(tmp_path) -> None:
    mkdocs = pytest.importorskip("mkdocs")  # noqa: F841  (CI installs it)
    from mkdocs.commands.build import build as mkdocs_build
    from mkdocs.config import load_config

    config = load_config(str(MKDOCS_YML), site_dir=str(tmp_path / "site"))
    mkdocs_build(config)
    assert (tmp_path / "site" / "index.html").is_file()
