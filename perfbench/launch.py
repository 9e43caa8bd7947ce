"""Run one ``slidesvm`` CLI command from the checkout's ``src/``.

    python3 perfbench/launch.py MODE OUT_DIR -- <slidesvm arguments>

MODE is one of
  plain  wrap ``train`` only: stamp the clock at the first solve of any
         process of the command and append one line per solve to
         OUT_DIR/events;
  probe  as plain, but kill the command's process group at the first
         solve, so the command measures set-up time and nothing else;
  trace  record spans with ``spans.install`` into OUT_DIR.

The first solve's stamp is ``time.monotonic()``, the clock the benchmark
reads before it starts the process. Pool workers are forked, so they inherit
the wrapper and the events file descriptor; each event is one ``os.write`` on
an ``O_APPEND`` descriptor and lines from different processes do not mix.
"""

from __future__ import annotations

import functools
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def wrap_train(events_fd: int, probe: bool):
    import spans
    from slidesvm import admm

    original = admm.train
    stamped = []

    @functools.wraps(original)
    def train(ds, cfg, *args, **kwargs):
        if not stamped:
            stamped.append(True)
            os.write(events_fd, f"stamp {time.monotonic()!r}\n".encode())
            if probe:
                os.killpg(os.getpgrp(), signal.SIGKILL)
        result = original(ds, cfg, *args, **kwargs)
        diag = result[1]
        sweeps = getattr(diag, "iterations", -1)
        converged = int(getattr(diag, "converged", False))
        os.write(events_fd, f"solve {sweeps} {converged} {getattr(cfg, 'K', -1)}\n".encode())
        return result

    spans.rebind(sys.modules, original, train)


def main() -> int:
    mode, out_dir, sep, *argv = sys.argv[1:]
    if mode not in ("plain", "probe", "trace") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    events_fd = os.open(
        os.path.join(out_dir, "events"), os.O_WRONLY | os.O_APPEND | os.O_CREAT
    )
    started = time.monotonic()
    import slidesvm.cli

    os.write(events_fd, f"import {time.monotonic() - started!r}\n".encode())
    if mode == "trace":
        import spans

        spans.install(out_dir)
    else:
        wrap_train(events_fd, probe=mode == "probe")
    return slidesvm.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
