"""Python calls per request of each benchmark workload, pinned.

Host time cannot be compared across machines or sessions; the number
of Python-level calls a request makes can. This test drives one
session of each ``perfbench/workloads.py`` workload (seed 1, part 0,
loaded by path and left untouched) under ``sys.setprofile`` and counts
the ``call`` events of frames whose code lives in the ``repro``
package: function calls and generator resumptions. Comprehension
frames are left out, because Python 3.12 inlines them.

Each workload runs in a fresh interpreter with the cyclic collector
paused during ``drive()``: the simulator recycles timeouts and spans
only when no other reference holds them, so a collection at an
arbitrary point, or objects left by an earlier run, could move the
count. How many objects get recycled also depends on the interpreter's
reference counting, so the ceilings are per Python version.

A change that adds work to a hot path fails here on any machine; one
that removes work lowers the ceiling in the same change.
"""

import gc
import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS_PY = os.path.join(ROOT, "perfbench", "workloads.py")
SEED = 1
PART = 0

#: Ceiling on calls per request, by Python (major, minor) and workload:
#: the counts measured (rounded up) when the attributor began folding
#: each invoke in one pass and both run loops of the engine began
#: sharing one drain loop. Each was the same under ``PYTHONHASHSEED``
#: 0 and 1 (overload-open's in three fresh runs under each).
_OLDER = {"invoke-warm": 185.01, "invoke-planes": 312.57,
          "pipeline-storage": 2329.05, "overload-open": 228.35}
CEILINGS = {
    (3, 9): _OLDER,
    (3, 10): _OLDER,
    (3, 11): {"invoke-warm": 183.01, "invoke-planes": 305.79,
              "pipeline-storage": 2241.08, "overload-open": 218.30},
    (3, 12): {"invoke-warm": 183.01, "invoke-planes": 305.79,
              "pipeline-storage": 2241.08, "overload-open": 218.30},
    (3, 13): {"invoke-warm": 183.01, "invoke-planes": 304.79,
              "pipeline-storage": 2241.08, "overload-open": 218.31},
}

#: Comprehension frames, which Python 3.12 inlines into their caller.
COMPREHENSIONS = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))


def calls_per_request(workload: str) -> float:
    """Drive one session of ``workload``; its calls per request."""
    import repro

    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    session = module.WORKLOADS[workload](seed=SEED, part=PART)
    session.setup()
    package = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package) \
                    and code.co_name not in COMPREHENSIONS:
                calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        session.drive()
    finally:
        sys.setprofile(None)
        gc.enable()
    assert not session.errors, session.errors
    return calls / session.attempted


@pytest.mark.parametrize("workload", ["invoke-warm", "invoke-planes",
                                      "pipeline-storage", "overload-open"])
def test_calls_per_request_stay_under_the_ceiling(workload):
    ceilings = CEILINGS.get(sys.version_info[:2])
    if ceilings is None:
        pytest.skip(f"no call ceilings measured for Python "
                    f"{sys.version_info[0]}.{sys.version_info[1]}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, __file__, workload], env=env,
                         capture_output=True, text=True, check=True)
    measured = float(out.stdout)
    assert measured <= ceilings[workload], (
        f"{workload}: {measured:.4f} calls/request, ceiling "
        f"{ceilings[workload]}")


if __name__ == "__main__":
    print(repr(calls_per_request(sys.argv[1])))
