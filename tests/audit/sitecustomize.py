"""The execution audit's hook: which ``src/repro`` functions a process ran.

Loaded by ``site`` at interpreter start when this directory is on
``PYTHONPATH`` and ``REPRO_AUDIT_RAW`` names a directory; otherwise it
does nothing.  A ``sys.setprofile``/``threading.setprofile`` hook adds
the code object of every Python call to a set, and the set's
``(path, qualname)`` pairs under ``src/repro`` are written to
``<REPRO_AUDIT_RAW>/<pid>.json``: every half second while they grow (a
``serve-*`` process ends by SIGTERM and a match worker by
``process.kill()``, and neither runs ``atexit``), and once more at exit.
A forked child starts its own file and its own flusher.
"""

import atexit
import json
import os
import sys
import threading
import time

OUT = os.environ.get("REPRO_AUDIT_RAW")
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src", "repro") + os.sep
FLUSH_S = 0.5

_codes = set()
_written = [0]
_lock = threading.Lock()


def _hook(frame, event, arg, _add=_codes.add):
    if event == "call":
        _add(frame.f_code)


def _flush():
    with _lock:
        if len(_codes) == _written[0]:
            return
        _written[0] = len(_codes)
        seen = sorted(
            {(code.co_filename[len(SRC):], code.co_qualname) for code in list(_codes)
             if code.co_filename.startswith(SRC)}
        )
        path = os.path.join(OUT, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump({"argv": sys.argv, "functions": seen}, handle)
        os.replace(path + ".tmp", path)


def _flusher():
    sys.setprofile(None)  # a thread started after threading.setprofile
    while True:
        time.sleep(FLUSH_S)
        _flush()


def _start_flusher():
    thread = threading.Thread(target=_flusher, name="repro-audit-flush", daemon=True)
    thread.start()


def _after_fork():
    global _lock
    _lock = threading.Lock()  # the parent's flusher may have held it
    _written[0] = 0
    _start_flusher()


if OUT:
    os.makedirs(OUT, exist_ok=True)
    _start_flusher()
    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(_flush)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
