"""Graceful-degradation runner tests: poisoned cells never kill a sweep."""

import dataclasses

import pytest

from repro.analysis import experiments, parallel
from repro.analysis.experiments import (ErrorLedger, run_graceful_sweep,
                                        run_one_safe)
from repro.errors import SimulationError, WorkloadError
from repro.obs.telemetry import SweepMonitor, use_monitor


def _poisoned_cell(poisoned, real=parallel.simulate_sweep_cell):
    """A simulate_sweep_cell stand-in that explodes for one workload."""
    def fake(cell):
        if cell.workload == poisoned:
            raise SimulationError("poisoned workload", cycle=123)
        return real(dataclasses.replace(cell, length=300))
    return fake


class TestRunOneSafe:
    def test_failure_lands_in_ledger_not_raised(self, monkeypatch):
        monkeypatch.setattr(parallel, "simulate_sweep_cell",
                            _poisoned_cell("rawcaudio"))
        ledger = ErrorLedger()
        result = run_one_safe("rawcaudio", 4, ledger=ledger, retries=1)
        assert result is None
        assert len(ledger) == 2  # first attempt + one retry
        entry = ledger.entries[0]
        assert entry.workload == "rawcaudio"
        assert entry.error_type == "SimulationError"
        assert "poisoned" in entry.message

    def test_retry_once_recovers_transient_failures(self, monkeypatch):
        calls = {"n": 0}
        real = parallel.simulate_sweep_cell

        def flaky(cell):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SimulationError("transient hiccup")
            return real(dataclasses.replace(cell, length=300))

        monkeypatch.setattr(parallel, "simulate_sweep_cell", flaky)
        ledger = ErrorLedger()
        result = run_one_safe("rawcaudio", 2, ledger=ledger, retries=1)
        assert result is not None
        assert calls["n"] == 2
        assert len(ledger) == 1  # the transient failure is still recorded

    def test_success_leaves_ledger_clean(self):
        ledger = ErrorLedger()
        result = run_one_safe("rawcaudio", 1, length=300, ledger=ledger)
        assert result is not None
        assert not ledger


class TestGracefulSweep:
    def test_poisoned_workload_does_not_abort_sweep(self, monkeypatch):
        monkeypatch.setattr(parallel, "simulate_sweep_cell",
                            _poisoned_cell("gsmdec"))
        result = run_graceful_sweep(workloads=["rawcaudio", "gsmdec"],
                                    configs=[(2, "stride", "vpb")],
                                    length=300)
        # The healthy cell completed; the poisoned one is ledgered.
        assert result.completed == 1
        assert ("rawcaudio", "2cl/stride/vpb") in result.ipc
        assert result.ledger.failed_cells == [("gsmdec", "2cl/stride/vpb")]
        assert len(result.ledger) == 2  # attempt + retry

    def test_clean_sweep_has_empty_ledger(self):
        result = run_graceful_sweep(workloads=["rawcaudio"],
                                    configs=[(1, "none", "baseline")],
                                    length=300)
        assert result.completed == 1
        assert not result.ledger
        assert "clean" in result.ledger.render()

    def test_ledger_render_names_every_failure(self, monkeypatch):
        monkeypatch.setattr(parallel, "simulate_sweep_cell",
                            _poisoned_cell("rawcaudio"))
        result = run_graceful_sweep(workloads=["rawcaudio"],
                                    configs=[(4, "none", "baseline"),
                                             (4, "stride", "vpb")],
                                    length=300)
        text = result.ledger.render()
        assert "4cl/none/baseline" in text and "4cl/stride/vpb" in text
        assert "SimulationError" in text


    def test_serial_event_order(self, monkeypatch):
        monkeypatch.setattr(parallel, "simulate_sweep_cell",
                            _poisoned_cell("gsmdec"))
        with use_monitor(SweepMonitor()) as monitor:
            result = run_graceful_sweep(workloads=["rawcaudio", "gsmdec"],
                                        configs=[(2, "stride", "vpb")],
                                        length=300, jobs=1)
        healthy, poisoned = (str((name, "2cl/stride/vpb"))
                             for name in ("rawcaudio", "gsmdec"))
        assert [(e["event"], e.get("key"), e.get("attempt"), e.get("ok"))
                for e in monitor.events] == [
            ("sweep_start", None, None, None),
            ("cell_start", healthy, None, None),
            ("cell_done", healthy, None, True),
            ("cell_start", poisoned, None, None),
            ("cell_retry", poisoned, 1, None),
            ("cell_retry", poisoned, 2, None),
            ("cell_done", poisoned, None, False),
            ("sweep_done", None, None, None)]
        assert [entry.render() for entry in result.ledger.entries] == [
            f"gsmdec [2cl/stride/vpb] attempt {attempt}: SimulationError: "
            f"{SimulationError('poisoned workload', cycle=123)}"
            for attempt in (1, 2)]


class TestSelectedWorkloads:
    def test_unknown_env_subset_raises_workload_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "rawcaudio,nope")
        with pytest.raises(WorkloadError, match="nope"):
            experiments.selected_workloads()

    def test_workload_error_still_satisfies_value_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "nope")
        with pytest.raises(ValueError, match="nope"):
            experiments.selected_workloads()
