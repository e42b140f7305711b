"""Documentation-consistency tests.

DESIGN.md and EXPERIMENTS.md promise specific benchmark files, modules
and experiment ids; these tests keep the promises honest as the code
evolves.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text()


class TestDesignDoc:
    def test_exists(self):
        assert (REPO / "DESIGN.md").exists()

    def test_every_referenced_benchmark_exists(self):
        text = read("DESIGN.md")
        for match in re.finditer(r"benchmarks/([\w.]+\.py)", text):
            assert (REPO / "benchmarks" / match.group(1)).exists(), \
                match.group(0)

    def test_every_benchmark_is_indexed(self):
        text = read("DESIGN.md")
        for path in (REPO / "benchmarks").glob("test_bench_*.py"):
            assert path.name in text, (
                f"{path.name} is not referenced in DESIGN.md")

    def test_every_referenced_module_importable(self):
        text = read("DESIGN.md")
        for match in re.finditer(r"`(repro(?:\.\w+)+)`", text):
            module_name = match.group(1)
            importlib.import_module(module_name)

    def test_paper_confirmation_present(self):
        # The mandated title-collision check.
        assert "matches the target title" in read("DESIGN.md")


class TestEngineKnobTable:
    """docs/engine.md lists every ``REPRO_*`` variable the code reads."""

    def test_table_matches_source_constants(self):
        in_source = set()
        for path in (REPO / "src").rglob("*.py"):
            in_source.update(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']",
                                        path.read_text()))
        text = read("docs/engine.md")
        table = text.split(
            "All `REPRO_*` environment variables in one place:", 1)[1]
        table = table.strip().split("\n\n", 1)[0]
        in_table = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)`", table,
                                  flags=re.MULTILINE))
        assert in_table == in_source
        assert len(in_source) == 11


class TestExperimentsDoc:
    def test_exists(self):
        assert (REPO / "EXPERIMENTS.md").exists()

    def test_covers_every_evaluation_figure_and_table(self):
        text = read("EXPERIMENTS.md")
        for artefact in ("Fig. 3", "Fig. 7", "Fig. 8", "Fig. 9",
                         "Fig. 10", "Fig. 11", "Fig. 12/13", "Fig. 14",
                         "Fig. 15", "Table I", "Sec. V-A"):
            assert artefact in text, artefact

    def test_referenced_benchmarks_exist(self):
        text = read("EXPERIMENTS.md")
        for match in re.finditer(r"`(test_bench_[\w.]+\.py)`", text):
            assert (REPO / "benchmarks" / match.group(1)).exists(), \
                match.group(0)

    def test_known_deviations_documented(self):
        assert "Known deviations" in read("EXPERIMENTS.md")


class TestReadme:
    def test_quickstart_code_runs(self):
        # The README's quickstart snippet must actually work.
        import repro

        system = repro.H2PSystem()
        setting = repro.CoolingSetting(flow_l_per_h=150.0,
                                       inlet_temp_c=52.0)
        watts = system.server_generation_w(0.25, setting)
        assert 3.0 < watts < 5.0
        assert system.is_safe(1.0, repro.CoolingSetting(
            flow_l_per_h=150.0, inlet_temp_c=45.0))

    def test_examples_listed_and_present(self):
        text = read("README.md")
        for match in re.finditer(r"examples/(\w+\.py)", text):
            assert (REPO / "examples" / match.group(1)).exists(), \
                match.group(0)

    def test_docs_folder_promises(self):
        text = read("README.md")
        assert (REPO / "docs" / "calibration.md").exists()
        assert (REPO / "docs" / "architecture.md").exists()
        assert "calibration.md" in text


class TestRegistryDocAlignment:
    def test_design_ids_match_registry(self):
        # Every E-F*/E-T*/E-VA id in DESIGN.md's experiment index that
        # the registry claims to cover must resolve.
        from repro.experiments import list_experiments

        registered = {experiment_id
                      for experiment_id, _ in list_experiments()}
        text = read("DESIGN.md")
        indexed = set(re.findall(r"\| (E-(?:F\d+|T1|VA|BATCH|FAULTS))[ /]",
                                 text))
        assert registered <= indexed | {"E-F13"}, (
            registered - indexed)


class TestExamplesHaveDocstrings:
    @pytest.mark.parametrize("path", sorted(
        (REPO / "examples").glob("*.py")))
    def test_example_documented(self, path):
        source = path.read_text()
        assert source.lstrip().startswith('"""'), path.name
        assert "Run:" in source or "python examples/" in source, \
            path.name
