"""One untraced command run, in the fresh interpreter that executes this file.

Times the import of conflictmetrics.cli (the set-up a user pays on every
invocation), as wall time and as CPU time of the importing thread, then
calls cli.main(argv) for each argv in turn, exactly as a user would type
them, and prints one JSON line: the two import times, wall seconds and exit
code per argv (-1 for an uncaught exception, which also ends the sequence),
and the peak resident set of this process or of its largest worker process,
whichever is larger.

Run: python3 bench/cmd.py SRC_DIR '[["events", "--input", ...], ...]'
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> None:
    src = Path(sys.argv[1]).resolve()
    argvs = json.loads(sys.argv[2])
    sys.path.insert(0, str(src))
    t0, c0 = time.perf_counter(), time.thread_time()
    import conflictmetrics.cli as cli
    import_s, import_cpu_s = time.perf_counter() - t0, time.thread_time() - c0
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    walls, codes = [], []
    for argv in argvs:
        t0 = time.perf_counter()
        try:
            codes.append(cli.main(argv))
        except Exception:  # an uncaught error aborts the command, as it would for a user
            traceback.print_exc()
            codes.append(-1)
        walls.append(time.perf_counter() - t0)
        if codes[-1]:
            break
    # VmHWM is this process's own peak: ru_maxrss of RUSAGE_SELF would also
    # count the launching process, whose memory the child shared until exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    peak_kb = max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"import_s": import_s, "import_cpu_s": import_cpu_s, "walls": walls, "codes": codes, "peak_mb": peak_kb / 1024}))


if __name__ == "__main__":
    main()
