"""Run one piece of work in a forked child process.

The benchmark imports the program once and forks one child per batch
repetition (and per reference run), so every repetition starts from the
same freshly imported state, has a peak RSS of its own, and leaves
nothing behind for the next one.
"""

from __future__ import annotations

import json
import os
import traceback


def forked(fn, *args) -> dict:
    """Run ``fn(*args)`` in a forked child and return its JSON-encodable
    result, with ``peak_rss_mb`` (the child's peak resident set) added."""
    # forking is safe only while this process has a single thread
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise RuntimeError(f"refusing to fork with {threads} threads running")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                pipe.write(json.dumps(fn(*args)))
            code = 0
        except BaseException:  # the child must never return into the parent's code
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "r", encoding="utf-8") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"{fn.__name__}{args} exited with {code}")
    result = json.loads(data)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result
