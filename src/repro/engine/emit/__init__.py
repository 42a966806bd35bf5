"""Emitters: lower the kernel IR of :mod:`repro.engine.ir` onto a target.

Two targets exist today:

* :mod:`repro.engine.emit.python` — renders one specialized tree into the
  exec-compiled per-shape Python source (pinned by golden snapshots and
  the fuzz parity suite).  Its line renderer serves the C tree too.
* :mod:`repro.engine.emit.c` — renders the same specialized tree into one
  self-contained C translation unit (``int64_t kernel(int64_t *a)`` over a
  flat argument vector).  :mod:`repro.engine.native` owns compiling,
  caching, and calling the result; this module only produces source, so it
  stays importable — and its golden snapshots testable — on machines with
  no compiler at all.

Emitters never re-derive specialization decisions: the IR transforms
(:func:`repro.engine.ir.lower_kernel`) already resolved them.
"""
