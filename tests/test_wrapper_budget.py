"""Line budgets for two rings around the compiler: the compile service
(the ``driver``, ``runtime``, ``obs`` and ``faults`` packages) and the
analytical machine models (``machine``); and for the integer set
library at its core (``isl``).  Ratchets beside the analysis
and emit budgets: lower a ceiling when a change shrinks its packages; a
change that needs more lines there should take them out elsewhere in
the same ring first."""

from pathlib import Path

REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

WRAPPER = ("driver", "runtime", "obs", "faults")

#: ``wc -l`` of every module under WRAPPER.  5005 while the batch
#: compile pool and its failure policy were a backends module of their
#: own (271 lines); 4880 since the compile service owns them; 4878 since
#: a warm hit keeps its fingerprint's tokens by computation; 4869 since
#: no cost model replays a fault plan (``FaultPlan.clone``); 4865 since
#: ``repro.obs`` no longer re-exports the metrics writers of its
#: ``export`` module, which a compile loads only for ``metrics_file``.
WRAPPER_LINES_CEILING = 4865

#: ``wc -l`` of every module under ``machine``.  1103 with a trace-driven
#: cache simulator and network estimators that nothing but their tests
#: read; 801 with the models a figure or the schedule search reads.
MACHINE_LINES_CEILING = 801

#: ``wc -l`` of every module of ``isl``.  3152 while a constraint was a
#: ``{(kind, index): coeff}`` dict; 3259 with constraints as integer rows
#: over a map's columns and Omega, FM and the memos working on the rows.
ISL_LINES_CEILING = 3259


def _wc_l(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def test_service_wrapper_within_its_line_budget():
    per_package = {name: sum(_wc_l(p) for p in (REPRO / name).rglob("*.py"))
                   for name in WRAPPER}
    assert sum(per_package.values()) <= WRAPPER_LINES_CEILING, per_package


def test_machine_models_within_their_line_budget():
    per_module = {p.name: _wc_l(p) for p in (REPRO / "machine").rglob("*.py")}
    assert sum(per_module.values()) <= MACHINE_LINES_CEILING, per_module


def test_isl_within_its_line_budget():
    per_module = {p.name: _wc_l(p) for p in (REPRO / "isl").glob("*.py")}
    assert sum(per_module.values()) <= ISL_LINES_CEILING, per_module
