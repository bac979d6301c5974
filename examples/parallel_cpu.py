#!/usr/bin/env python3
"""`parallelize` on real cores, gated by the static race detector.

The CPU backend emits every safe top-level parallel loop as a chunked
worker function; the runtime (`repro.backends.parallel`) decides per
region and per call what runs the chunks — threads over the caller's
arrays for a whole-slab body, the calling thread alone (inline) for a
Python loop nest, which holds the GIL, or for a call too small to pay
for threads — and records why.  A whole-slab body of a large call runs
in L2-sized strips, inside each thread's chunk and sequentially alike.  Before emission, the
`race-check` pipeline stage proves each tagged level carries no
dependence — an illegal tag is rejected at compile time with the exact
violating dependence, instead of racing at run time.

Run:  python examples/parallel_cpu.py
"""

import numpy as np

from repro import settings
from repro.core.errors import IllegalScheduleError
from repro.evaluation.schedules import tiramisu_cpu
from repro.kernels import build_gaussian
from repro.kernels.linalg import TEST_SGEMM, build_sgemm

# -- 1. a legal parallel schedule on the Fig. 1 kernel -----------------------

bundle = build_sgemm()
acc, scale = bundle.computations["acc"], bundle.computations["scale"]
acc.interchange("j", "k")    # make j innermost ...
acc.vectorize("j", 8)        # ... a full NumPy lane
acc.parallelize("i")         # a Python loop nest: inline (python-loop)
scale.vectorize("j2", 8)     # one whole-slab statement per chunk ...
scale.parallelize("i2")      # ... so threads — or, this small, inline

with settings.override(trace=True):   # print the stage table (incl. race-check)
    kernel = bundle.function.compile("cpu", num_threads=2)

rng = np.random.default_rng(0)
inputs = bundle.make_inputs(TEST_SGEMM, rng)
out = kernel(**{k: v.copy() for k, v in inputs.items()}, **TEST_SGEMM)

ref = bundle.reference(inputs, TEST_SGEMM)
assert np.allclose(out["C"], ref["C"], atol=1e-3)
stats = kernel.runtime.stats
print(f"OK: sgemm ran {stats.regions} parallel region(s) on threads "
      f"({stats.chunks} chunks), {stats.declined} inline")
for region, plan in kernel.runtime.plans.items():
    print(f"  {region}: {plan.kind} ({plan.reason})")

# -- 2. the race detector rejects a dependence-carried tag -------------------

bad = build_sgemm()
bad.computations["acc"].parallelize("k")   # the reduction loop!
try:
    bad.function.compile("cpu", num_threads=2)
    raise SystemExit("race detector failed to fire")
except IllegalScheduleError as exc:
    print(f"rejected as expected:\n  {exc}")

# -- 3. sequential fallback is automatic -------------------------------------

solo = build_sgemm()
solo.computations["acc"].parallelize("i")
k1 = solo.function.compile("cpu", num_threads=1)
assert k1.runtime is None    # a loop region only: nothing to attach
print("num_threads=1 compiles the same schedule to sequential code")

# -- 4. a sequential slab region still runs in cache strips ------------------

# gaussian's two stages are whole-slab bodies; at 514 x 514 x 3 float32
# (3.2 MB an operand) each range runs as strips of ~512 KiB of its
# largest array, so operands and temporaries stay in the L2 cache.
# parallel=False attaches a one-worker runtime for them: no thread.
params = {"N": 514, "M": 514}
gauss = build_gaussian()
tiramisu_cpu(gauss)
k_seq = gauss.function.compile("cpu", parallel=False)
inputs = gauss.make_inputs(params, rng)
out = k_seq(**{k: v.copy() for k, v in inputs.items()}, **params)
ref = gauss.reference(inputs, params)
assert np.allclose(out["gy"], ref["gy"], atol=1e-4)
runtime = k_seq.runtime
assert runtime.num_threads == 1 and runtime.stats.regions == 0
print(f"OK: sequential gaussian ran {runtime.stats.strips} strips on the "
      f"calling thread")
for region, plan in runtime.plans.items():
    print(f"  {region}: {plan.kind} ({plan.reason}, {plan.strips} strips)")
