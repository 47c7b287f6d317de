"""Leave no process behind: every path out of ``python -m bench`` ends
with :func:`stop_children`.

The workloads start processes on purpose (the ``serve-analysts`` server)
and the program starts some on its own: a fork-parallel join creates a
``multiprocessing.shared_memory`` block, which launches Python's
resource-tracker helper, and that helper only ends *after* its parent
has exited — a run that was over still had a process alive.  So the
bench process adopts whatever its children orphan, and before it exits
it stops and waits for every process below it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent
    dies (Linux child subreaper), so :func:`stop_children` sees it, and
    turn SIGTERM into an exit that runs ``finally`` blocks."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The program's forked pool workers must die on SIGTERM as before.
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))


def children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        if fields[1] == me:
            found.append(int(entry))
    return found


def _reap(pid: int, block: bool) -> bool:
    """True once ``pid`` has ended and been waited for."""
    try:
        done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
    except ChildProcessError:
        return True  # someone (a Popen object) already waited
    return done == pid


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process below this one and wait until each has ended."""
    try:
        # Ends on its own once its pipe closes; ``_stop`` closes it and
        # waits.  (It ignores SIGTERM, so asking first saves the grace.)
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except Exception:  # private API: the sweep below is the guarantee
        pass
    # Loop: stopping a parent hands its children to us (subreaper).
    while True:
        live = children()
        if not live:
            return
        for pid in live:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while live and time.monotonic() < deadline:
            live = [pid for pid in live if not _reap(pid, block=False)]
            if live:
                time.sleep(0.01)
        for pid in live:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _reap(pid, block=True)
