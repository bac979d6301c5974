"""An analysis budget beside the emit budget: how many emptiness questions
a cold compile of the ``tensor`` kernels asks isl with legality and the
race check on.  A count, so it repeats exactly and fails here before the
benchmark's ``compile_cold_ms`` could drift; the hash-seed runs also
repeat the differential against the reference formulation, because isl
iterates over hashed sets."""

import os
import subprocess
import sys
from unittest import mock

import pytest

import repro.isl.cache as isl_cache
import repro.isl.omega as omega
from repro import kernels as K
from repro.evaluation.schedules import tiramisu_cpu

#: The benchmark's ``tensor`` set under its hand schedules.
TENSOR = [
    (K.build_sgemm, lambda bundle: K.schedule_sgemm_cpu(bundle, 32, 8)),
    (K.build_conv, K.schedule_conv_cpu),
    (K.build_vgg_block, K.schedule_vgg_fused),
    (K.build_baryon, K.schedule_baryon_cpu),
    (K.build_spmv27, K.schedule_spmv_cpu),
    (K.build_heat, K.schedule_heat_cpu),
    (K.build_symgs_forward, K.schedule_symgs_wavefront),
]

#: Summed ``BasicMap.is_empty`` calls / Omega tests run (memo misses)
#: over TENSOR, isl memo cleared before each compile.  The per-position
#: checker with two dependence passes asked 1226 / 512.  Lower these
#: when the analysis gets leaner.  (303 / 169 until the slab lowering
#: asked whether heat's *time* loop may join its vector loop: three
#: more questions, answered "carried flow" -- the one level of the 15
#: programs the structural fast path does not settle.  The rise is the
#: one ISSUE 21 allows, <=5% over all 15 cold compiles, which
#: ``test_slab_verdicts_ask_isl_almost_nothing`` holds it to: +3 on 699;
#: refusing the level unasked would take its reason out of the loop
#: comment, or make the verdict depend on what legality happened to
#: ask first.)
EMPTY_CALLS_CEILING = 306
OMEGA_TESTS_CEILING = 172

#: Summed constraints of the systems those Omega tests receive.  8093,
#: over 2973 existential divs, while every composition kept the dims it
#: hid as divs; 3573 over none since isl substitutes away each div an
#: equality defines (``BasicMap.drop_defined_divs``).  A size, beside
#: the counts: the same questions can get dearer without being more.
OMEGA_CONSTRAINTS_CEILING = 3573


def _blur_race_free(bundle):
    """The benchmark's blur: Fig. 3a less ``parallelize("i0")``."""
    bx, by = bundle.computations["bx"], bundle.computations["by"]
    by.tile("i", "j", 32, 32, "i0", "j0", "i1", "j1")
    bx.compute_at(by, "j0")
    by.interchange("j1", "c")
    by.vectorize("j1", 8)


#: The benchmark's ``image`` set (``bench/programs.py``: blur and
#: ticket2373 under its two race-free schedules).
IMAGE = [
    (K.build_blur, _blur_race_free), (K.build_cvtcolor, tiramisu_cpu),
    (K.build_conv2d, tiramisu_cpu), (K.build_warp_affine, tiramisu_cpu),
    (K.build_gaussian, tiramisu_cpu), (K.build_nb, tiramisu_cpu),
    (K.build_edge_detector, tiramisu_cpu),
    (K.build_ticket2373, lambda bundle: None),
]

#: ``is_empty`` calls of each of the 15 cold compiles before the vector
#: lowering asked about the loops *around* a vector loop (IMAGE, then
#: TENSOR).  Every level but one is settled by the structural fast path
#: or by a level profile legality already filled: heat now asks 27.
SEED_EMPTY_CALLS = [316, 3, 4, 3, 13, 34, 18, 5,
                    47, 44, 150, 30, 4, 24, 4]


#: Summed ``is_empty`` calls over IMAGE, asked like TENSOR's.  316 of the
#: 396 before were blur's: bx's three overlapping windows, three pieces
#: the AST could not merge; one exact hull since (11).  Without this
#: ceiling those questions could come back as slack under the 5% of
#: ``test_slab_verdicts_ask_isl_almost_nothing``.
IMAGE_EMPTY_CALLS_CEILING = 91


def _cold_compile_questions(builder, schedule):
    """(``is_empty`` calls, Omega tests run, constraints those tests
    received) of one cold compile."""
    bundle = builder()
    schedule(bundle)
    isl_cache.clear()
    received = []
    decide = omega.conjunction_is_empty

    def counted(bmap):
        received.append(len(bmap.constraints))
        return decide(bmap)
    before = isl_cache.stats().tier("isl.empty")
    with mock.patch.object(omega, "conjunction_is_empty", counted):
        bundle.function.compile("cpu", cache=False, check_legality=True,
                                check_races=True, num_threads=2)
    after = isl_cache.stats().tier("isl.empty")
    return (after.hits + after.misses - before.hits - before.misses,
            after.misses - before.misses, sum(received))


def test_tensor_set_analysis_within_budget():
    asked = [_cold_compile_questions(b, s) for b, s in TENSOR]
    calls, tests, constraints = (sum(column) for column in zip(*asked))
    assert calls <= EMPTY_CALLS_CEILING, calls
    assert tests <= OMEGA_TESTS_CEILING, tests
    assert constraints <= OMEGA_CONSTRAINTS_CEILING, constraints


def test_image_set_analysis_within_budget():
    calls = sum(_cold_compile_questions(b, s)[0] for b, s in IMAGE)
    assert calls <= IMAGE_EMPTY_CALLS_CEILING, calls


def test_benchmark_instance_sets_are_div_free():
    """Every instance set of the 15 benchmark schedules: no existential
    div survives the scheduling commands."""
    for builder, schedule in IMAGE + TENSOR:
        bundle = builder()
        schedule(bundle)
        for comp in bundle.function.computations:
            for piece in comp.instances.pieces:
                assert piece.n_div == 0, (comp.name, piece)


def test_slab_verdicts_ask_isl_almost_nothing():
    """Per-level slab verdicts for all 15 bench programs: at most 5%
    more emptiness questions than the single-level verdict asked."""
    calls = [_cold_compile_questions(b, s)[0] for b, s in IMAGE + TENSOR]
    assert sum(calls) <= 1.05 * sum(SEED_EMPTY_CALLS), calls


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_budget_and_differential_under_hash_seed(hashseed):
    if os.environ.get("TIRAMISU_NESTED_PYTEST"):
        pytest.skip("already inside the hash-seed run")
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               TIRAMISU_NESTED_PYTEST="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "tests/test_analysis_budget.py", "tests/test_dependence_summary.py"],
        env=env, capture_output=True, text=True, timeout=600,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
