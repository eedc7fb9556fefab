"""Set-up probe: a fresh interpreter that imports selbergfe and does the
workload's own set-up, then reports on one line and exits.

    python3 bench/probe.py <workload>

prints {"import_s": ..., "program_s": ...}: the time of `import
selbergfe` and of the program set-up after it, by this process's clock.
The caller times the whole probe from before it starts the interpreter
to the moment that line arrives.  This file imports nothing but the
standard library and selbergfe, so it measures what a user pays.
"""
import json
import sys
import time

EULER_WORD_LEN = 7   # the spectrum euler_products reads: 3262 lengths


def program_setup(workload: str):
    """The program's own set-up for a workload, shared with run.py."""
    if workload == "euler_products":
        from selbergfe import geodesics
        return geodesics.enumerate_spectrum(geodesics.bolza_group(),
                                            EULER_WORD_LEN)
    return None


if __name__ == "__main__":
    t0 = time.perf_counter()
    import selbergfe  # noqa: F401
    t1 = time.perf_counter()
    program_setup(sys.argv[1])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "program_s": t2 - t1}), flush=True)
