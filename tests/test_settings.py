"""The one settings table (repro.settings): resolution order per row,
the uniform malformed-value error at the first read, fork inheritance,
the ``python -m repro.settings`` views, and the structural gate that
keeps knob handling in one module."""

import ast
import multiprocessing
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import Computation, Function, Var, settings
from repro.driver import BatchCompiler, CircuitBreaker
from tests.test_supervise import SRC, _modules_where

REPO = Path(__file__).resolve().parent.parent
HOME = "repro/settings.py"

#: knob -> (environment spelling, the value it parses to, another valid
#: explicit value).  A new table row needs a sample here.
SAMPLES = {
    "trace": ("on", True, True),
    "trace_file": (" /tmp/t.json ", "/tmp/t.json", Path("/tmp/u.json")),
    "event_log": ("/tmp/e.jsonl", "/tmp/e.jsonl", "/tmp/f.jsonl"),
    "metrics_file": ("/tmp/m.prom", "/tmp/m.prom", "/tmp/m.json"),
    "isl_cache": ("0", False, False),
    "timeout": ("7.5", 7.5, 3.0),
    "breaker_threshold": ("5", 5, 1),
    "breaker_cooldown": ("1.5", 1.5, 0.25),
    "cache_dir": ("/tmp/cache", "/tmp/cache", Path("/tmp/other")),
    "cache_max_bytes": ("12345", 12345, 99),
    "cache_max_quarantine": ("0", 0, 2),
    "max_pending": ("4", 4, 2),
    "max_queued_bytes": ("4096", 4096, 1),
    "admission_policy": ("block", "block", "shed-oldest"),
}


@pytest.fixture(autouse=True)
def _scrubbed_environment(monkeypatch):
    for knob in settings.KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)


def test_every_row_has_a_sample():
    assert SAMPLES.keys() == settings.KNOBS.keys()
    assert len(settings.KNOBS) == 14


@pytest.mark.parametrize("name", list(SAMPLES))
class TestResolutionOrder:
    def test_default_then_env_then_override(self, name, monkeypatch):
        knob = settings.KNOBS[name]
        raw, parsed, explicit = SAMPLES[name]
        assert settings.get(name) == knob.default
        assert settings.source(name) == "default"
        monkeypatch.setenv(knob.env, raw)
        assert settings.get(name) == parsed      # read at call time
        assert settings.source(name) == "env"
        monkeypatch.setenv(knob.env, "   ")       # blank reads as unset
        assert settings.get(name) == knob.default
        monkeypatch.setenv(knob.env, raw)
        settings.set(**{name: explicit})
        want = str(explicit) if isinstance(explicit, Path) else explicit
        assert settings.get(name) == want
        assert type(settings.get(name)) is type(want)
        assert settings.source(name) == "override"
        settings.reset(name)
        assert settings.get(name) == parsed

    def test_explicit_none_beats_the_environment(self, name, monkeypatch):
        knob = settings.KNOBS[name]
        monkeypatch.setenv(knob.env, SAMPLES[name][0])
        with settings.override(**{name: None}):
            assert settings.get(name) == knob.default
            assert settings.source(name) == "override"
        assert settings.get(name) == SAMPLES[name][1]

    def test_override_nests_and_restores_after_an_exception(self, name):
        knob = settings.KNOBS[name]
        _, parsed, explicit = SAMPLES[name]
        with settings.override(**{name: parsed}):
            with pytest.raises(RuntimeError):
                with settings.override(**{name: explicit}):
                    assert settings.source(name) == "override"
                    raise RuntimeError("boom")
            assert settings.get(name) == parsed   # the outer pin is back
        assert settings.get(name) == knob.default
        assert settings.source(name) == "default"

    def test_reset_forgets_every_override(self, name):
        settings.set(**{name: SAMPLES[name][2]})
        settings.reset()
        assert settings.source(name) == "default"


MALFORMED = [   # one per parser kind, and the consumer probes below
    ("trace", "maybe"),                      # flag
    ("cache_max_bytes", "lots"),             # positive_int, not a number
    ("breaker_threshold", "2.7"),            # ... truncated to 2 before
    ("max_pending", "0"),                    # ... out of range
    ("cache_max_quarantine", "-1"),          # non_negative_int
    ("timeout", "soon"),                     # positive_float
    ("admission_policy", "drop"),            # choice
]


class TestMalformedValues:
    @pytest.mark.parametrize("name,raw", MALFORMED)
    def test_env_value_raises_the_one_shape(self, name, raw, monkeypatch):
        knob = settings.KNOBS[name]
        monkeypatch.setenv(knob.env, raw)
        with pytest.raises(ValueError) as err:
            settings.get(name)
        assert str(err.value) == \
            f"{knob.env} must be {knob.kind.label}, got {raw!r}"

    @pytest.mark.parametrize("raw,want", [
        ("1", True), ("true", True), ("ON", True), ("yes", True),
        ("0", False), ("False", False), ("off", False), ("no", False)])
    def test_flag_spellings(self, raw, want, monkeypatch):
        for name in ("trace", "isl_cache"):
            monkeypatch.setenv(settings.KNOBS[name].env, raw)
            assert settings.get(name) is want

    @pytest.mark.parametrize("name,bad", [
        ("cache_dir", 3), ("cache_dir", " "), ("trace", 2),
        ("breaker_threshold", 2.7), ("max_pending", True),
        ("timeout", 0), ("admission_policy", "drop")])
    def test_explicit_value_is_validated_and_names_the_knob(
            self, name, bad):
        label = settings.KNOBS[name].kind.label
        for install in (lambda: settings.set(**{name: bad}),
                        lambda: settings.override(**{name: bad}).__enter__(),
                        lambda: settings.resolve(name, bad)):
            with pytest.raises(ValueError) as err:
                install()
            assert str(err.value) == f"{name} must be {label}, got {bad!r}"
        assert settings.source(name) == "default"   # nothing half-set

    def test_unknown_knob_is_a_key_error(self):
        with pytest.raises(KeyError, match="bogus"):
            settings.set(bogus=1)
        with pytest.raises(KeyError):
            settings.get("bogus")

    # The probes, through the consumer that reads the knob first.

    def test_cache_max_bytes_fails_by_name_inside_compile(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIRAMISU_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("TIRAMISU_CACHE_MAX_BYTES", "lots")
        with Function("f") as f:
            Computation("c", [Var("i", 0, 4)], 1.0)
        with pytest.raises(ValueError, match="TIRAMISU_CACHE_MAX_BYTES"):
            f.compile("cpu")

    def test_breaker_threshold_is_no_longer_truncated(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_BREAKER_THRESHOLD", "2.7")
        with pytest.raises(ValueError, match="TIRAMISU_BREAKER_THRESHOLD"):
            CircuitBreaker("t")

    def test_admission_policy_blames_the_environment(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_ADMISSION_POLICY", "drop")
        with pytest.raises(ValueError) as err:
            BatchCompiler()
        assert str(err.value).startswith("TIRAMISU_ADMISSION_POLICY must")


class TestResolve:
    def test_an_argument_beats_the_table_for_that_object(self, monkeypatch):
        monkeypatch.setenv("TIRAMISU_BREAKER_THRESHOLD", "5")
        settings.set(breaker_cooldown=2.0)
        assert settings.resolve("breaker_threshold", 1) == 1
        assert settings.resolve("breaker_threshold") == 5
        breaker = CircuitBreaker("t", threshold=1)
        assert (breaker.threshold, breaker.cooldown) == (1, 2.0)
        assert settings.get("breaker_threshold") == 5   # table untouched


def _read_in_worker(names):
    return [settings.get(name) for name in names]


def test_forked_worker_sees_the_parents_override_and_environment(
        monkeypatch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this host")
    monkeypatch.setenv("TIRAMISU_CACHE_DIR", "/tmp/from-env")
    monkeypatch.setenv("TIRAMISU_EVENT_LOG", "/tmp/hidden.jsonl")
    settings.set(event_log=None, max_pending=3)
    names = ["cache_dir", "event_log", "max_pending", "timeout"]
    with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")) as pool:
        seen = pool.submit(_read_in_worker, names).result(timeout=60)
    assert seen == ["/tmp/from-env", None, 3, None] \
        == _read_in_worker(names)


class TestResolvedTable:
    def test_cli_prints_value_and_source_per_knob(self, monkeypatch,
                                                   capsys):
        monkeypatch.setenv("TIRAMISU_TIMEOUT", "9")
        monkeypatch.setenv("TIRAMISU_MAX_PENDING", "none")
        settings.set(trace=True)
        assert settings.main([]) == 0
        rows = {line.split()[0]: line
                for line in capsys.readouterr().out.splitlines()}
        assert rows.keys() == {"knob", *settings.KNOBS}
        assert re.search(r"TIRAMISU_TIMEOUT .* 9\.0 +env$", rows["timeout"])
        assert rows["trace"].endswith("override")
        assert rows["cache_dir"].endswith("default")
        # a malformed value does not hide the other fourteen
        assert "error: TIRAMISU_MAX_PENDING must be" in rows["max_pending"]
        assert settings.main(["--bogus"]) == 2

    def test_doc_table_is_the_generated_one(self, capsys):
        """docs/compiler_driver.md carries ``python -m repro.settings
        --markdown`` verbatim: a new row, default or kind updates the
        doc or fails here."""
        assert settings.main(["--markdown"]) == 0
        table = capsys.readouterr().out.strip()
        doc = (REPO / "docs" / "compiler_driver.md").read_text()
        assert table in doc, "regenerate the knob table in the doc"


# -- keep it one place --------------------------------------------------------

def _is_environment_access(node):
    if isinstance(node, ast.Attribute):
        return node.attr in ("environ", "environb", "getenv", "putenv")
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(a.name in ("environ", "environb", "getenv", "putenv")
                   for a in node.names)
    return False


def _is_env_name_literal(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and node.value.startswith("TIRAMISU_")


_STATE_MACHINE_NAME = re.compile(r"_forced|_explicit|_configured_\w+")


def _module_level_names(tree):
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id


class TestOneTable:
    """A 15th parse site or a sixth override state machine should fail
    tier-1, not wait for review."""

    def test_only_the_table_touches_the_environment(self):
        assert _modules_where(_is_environment_access) == {HOME}

    def test_only_the_table_spells_an_environment_variable(self):
        assert _modules_where(_is_env_name_literal) == {HOME}

    def test_the_table_is_a_leaf(self):
        tree = ast.parse((SRC / HOME).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "repro"
                               for a in node.names)
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0
                assert (node.module or "").split(".")[0] != "repro"

    def test_no_override_state_machine_remains(self):
        found = {
            f"{path.relative_to(SRC).as_posix()}:{name}"
            for path in SRC.rglob("*.py")
            for name in _module_level_names(ast.parse(path.read_text()))
            if _STATE_MACHINE_NAME.fullmatch(name)}
        assert not found
