"""Built-in benchmark programs used by the test suite and the CLI docs.

Each program is small enough for exhaustive bounded exploration; the location
numbering produced by the parser (sequential, source order) is relied on
by golden tests, so edits here are breaking changes.
"""

from __future__ import annotations

from .lang import Program, parse_program

# Two threads keep x = y in lockstep under lock m; z is private to the second
# thread.  coupled_xy_regions groups {x, y}, leaving z alone.
COUPLED_XY = """\
var x, y, z;
lock m;

thread t1 {
  acquire(m);
  x := y;
  x := x + 1;
  y := y + 1;
  assert(x == y);
  release(m);
}

thread t2 {
  z := z + 1;
  assert(z == 1);
  acquire(m);
  assert(x == y);
  release(m);
}
"""

COUPLED_XY_REGIONS = "region rxy { x, y };\n"

# Writer increments x under the lock; a reader observes it under the same
# lock.  The sync edges form a cycle through both threads, so only an
# analysis that can drop stale self-originated facts bounds x from above.
CAPPED_COUNTER = """\
var x;
lock m;

thread t1 {
  acquire(m);
  x := x + 1;
  assert(x <= 1);
  release(m);
}

thread t2 {
  acquire(m);
  assume(x >= 0);
  release(m);
}
"""

# Both threads advance x and y together inside the critical section; the
# classic target for comparing variable-granular and region-granular joins.
DOUBLE_INCREMENT = """\
var x, y;
lock l;

thread t1 {
  acquire(l);
  x := y;
  x := x + 1;
  y := y + 1;
  release(l);
}

thread t2 {
  acquire(l);
  x := x + 1;
  y := y + 1;
  release(l);
}
"""

DOUBLE_INCREMENT_REGIONS = "region rxy { x, y };\n"

# Race free even though the accesses of x at the end of t2 hold no lock:
# t2 only leaves the loop after observing y = 1, which happens-after t1's
# writes.  Proving assert(p != 1) needs the semantic owned set.
FLAG_HANDOFF = """\
var x, y, p;
lock m;

thread t1 {
  acquire(m);
  x := 1;
  y := 1;
  release(m);
}

thread t2 {
  while (p != 1) {
    acquire(m);
    p := y;
    release(m);
  }
  x := 2;
  p := x;
  assert(p != 1);
}
"""

SOURCES: dict[str, str] = {
    "coupled_xy": COUPLED_XY,
    "capped_counter": CAPPED_COUNTER,
    "double_increment": DOUBLE_INCREMENT,
    "flag_handoff": FLAG_HANDOFF,
}

REGION_TEXTS: dict[str, str] = {
    "coupled_xy": COUPLED_XY_REGIONS,
    "double_increment": DOUBLE_INCREMENT_REGIONS,
}


def load(name: str) -> Program:
    """Parse a built-in program by name."""
    return parse_program(SOURCES[name])


def names() -> tuple[str, ...]:
    return tuple(SOURCES)
