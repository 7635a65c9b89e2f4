"""Per-request span trees: the fine-grained monitoring the paper calls for.

A :class:`SpanTracer` installed on :attr:`Environment.tracer
<repro.sim.core.Environment.tracer>` records one :class:`RequestTrace`
per request, with one :class:`Span` per hop — client TCP send (and each
retransmission wait), web-tier accept queue, worker service, balancer
decision and endpoint wait, app-tier queue and service, database pool
and service — so "why did *this* request take 3.007 s" is answerable
from the trace alone (the question Figs. 2-4 answer with external
monitors).

The tracer follows the kernel's zero-cost-when-off hook pattern:
``Environment.tracer`` defaults to ``None``, every call site guards
with a single attribute check, and the tracer itself never creates or
schedules events — recording is pure observation, so the event
schedule (and the golden-trace hashes built on it) is byte-identical
with tracing on, off, or absent.

Span parentage is inferred per request: a span opened while another is
open for the same request becomes its child.  The hop structure is
sequential within one request, so this yields properly nested trees;
cross-component waits (a queue wait opened by the producer and closed
by the consumer) go through the *named* span API instead of carrying
the span object across the hop.

Packed store
------------
A traced run records one span per hop per request — over a hundred
thousand on a full-scale Table-I cell — and keeps them all until the
run is analysed.  Stored as objects linked parent <-> children and
span <-> trace, such a heap is one large web of reference cycles that
the cyclic garbage collector re-scans on every full collection.  The
tracer therefore stores each span as one *row* of packed columns:

* start time in ``array("d")``;
* parent row and owning trace's root row in ``array("q")`` (a root's
  parent is ``-1``; the span id is ``row + 1``);
* an interned name code in ``array("I")``;
* end time in a list, ``None`` while the span is open.  It is the one
  column read and written after the append: closing a span writes its
  end, and the close reads ends to skip double closes and to unwind
  the open stack.  An array boxes a float on every read and parses
  one on every write, at two to three times a list's cost, while
  the list only holds the clock's own float objects;
* a metadata column: the call's keyword dict, or ``None``.  Metadata
  values are strings and numbers, so these dicts stay untracked.

The per-request open stack is a ``root row -> innermost open row`` map:
a span's parent is the innermost open span when it opened, so the
stack below any open span is its chain of parent rows, minus the spans
already closed (an out-of-order close leaves a closed row in the chain,
skipped when the stack unwinds past it).  None of these containers
refers to another, so the store holds no reference cycle and almost
nothing the collector tracks.

:class:`RequestTrace` and :class:`Span` are read-only views over those
rows, built on access; :attr:`SpanTracer.traces` maps request ids to
trace views in begin order.  ``span_count`` and ``signature`` read the
columns directly.  A trace view caches the span views it hands out, so
``span.parent is other`` holds for views taken from the same trace
view.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = ["Span", "RequestTrace", "SpanTracer"]

_ROOT_NAME = "request"


class Span:
    """Read-only view of one timed hop of one request.

    :meth:`SpanTracer.start` returns one as the handle to pass back to
    :meth:`SpanTracer.finish`; :class:`RequestTrace` builds the rest.
    """

    __slots__ = ("_tracer", "_row", "_trace")

    def __init__(self, tracer: "SpanTracer", row: int,
                 trace: Optional["RequestTrace"] = None) -> None:
        self._tracer = tracer
        self._row = row
        #: The trace view that built this view (``None`` for handles);
        #: parent and child views come from its cache.
        self._trace = trace

    def _view(self, row: int) -> "Span":
        trace = self._trace
        if trace is None:
            return Span(self._tracer, row)
        return trace._span(row)

    @property
    def span_id(self) -> int:
        return self._row + 1

    @property
    def name(self) -> str:
        tracer = self._tracer
        return tracer._names[tracer._name[self._row]]

    @property
    def start(self) -> float:
        return self._tracer._start[self._row]

    @property
    def end(self) -> Optional[float]:
        """Close time, or ``None`` while the span is open."""
        return self._tracer._end[self._row]

    @property
    def meta(self) -> Optional[MappingProxyType]:
        """Read-only annotations, or ``None`` when there are none."""
        meta = self._tracer._meta[self._row]
        return None if meta is None else MappingProxyType(meta)

    @property
    def parent(self) -> Optional["Span"]:
        parent = self._tracer._parent[self._row]
        return None if parent < 0 else self._view(parent)

    @property
    def children(self) -> list["Span"]:
        """Child views in open order (empty for a leaf)."""
        return [self._view(row)
                for row in self._tracer._children().get(self._row, ())]

    @property
    def duration(self) -> float:
        """Seconds from start to end (``0.0`` while still open)."""
        tracer, row = self._tracer, self._row
        end = tracer._end[row]
        return 0.0 if end is None else end - tracer._start[row]

    @property
    def finished(self) -> bool:
        return self._tracer._end[self._row] is not None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, in open order."""
        view = self._view
        for row in self._tracer._walk_rows(self._row):
            yield view(row)

    @property
    def depth(self) -> int:
        parents = self._tracer._parent
        depth, row = 0, parents[self._row]
        while row >= 0:
            depth, row = depth + 1, parents[row]
        return depth

    def __repr__(self) -> str:
        end = self.end
        return "<Span #{} {} [{:.6f}, {}]>".format(
            self.span_id, self.name, self.start,
            "open" if end is None else format(end, ".6f"))


class RequestTrace:
    """Read-only view of one request's span tree, rooted at its
    client-visible span."""

    __slots__ = ("_tracer", "request_id", "_root", "_views")

    def __init__(self, tracer: "SpanTracer", request_id: int,
                 root: int) -> None:
        self._tracer = tracer
        self.request_id = request_id
        self._root = root
        #: row -> the span view handed out for it (created on first use).
        self._views: Optional[dict[int, Span]] = None

    def _span(self, row: int) -> Span:
        views = self._views
        if views is None:
            views = self._views = {}
        view = views.get(row)
        if view is None:
            view = views[row] = Span(self._tracer, row, self)
        return view

    @property
    def root(self) -> Span:
        return self._span(self._root)

    @property
    def status(self) -> Optional[str]:
        """Root-span status annotation (``ok``/``abandoned``/...)."""
        meta = self._tracer._meta[self._root]
        return None if meta is None else meta.get("status")

    @property
    def completed(self) -> bool:
        return (self._tracer._end[self._root] is not None
                and self.status == "ok")

    @property
    def duration(self) -> float:
        tracer, root = self._tracer, self._root
        end = tracer._end[root]
        return 0.0 if end is None else end - tracer._start[root]

    def span_count(self) -> int:
        return self._tracer._span_counts()[self._root]

    def spans_named(self, name: str) -> list[Span]:
        tracer = self._tracer
        code = tracer._codes.get(name)
        codes = tracer._name
        return [self._span(row) for row in tracer._walk_rows(self._root)
                if codes[row] == code]

    def signature(self) -> str:
        """Canonical nesting signature: ``name(child,child(...),...)``.

        Depends only on span names and parent/child shape — not on
        timing — which is what the trace-structure golden test pins.
        """
        tracer = self._tracer
        names, codes, kids = tracer._names, tracer._name, tracer._children()

        def render(row: int) -> str:
            children = kids.get(row)
            if not children:
                return names[codes[row]]
            return "{}({})".format(names[codes[row]],
                                   ",".join(map(render, children)))
        return render(self._root)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestTrace):
            return NotImplemented
        return self._tracer is other._tracer and self._root == other._root

    def __hash__(self) -> int:
        return hash((id(self._tracer), self._root))

    def __repr__(self) -> str:
        return "<RequestTrace #{} spans={} {}>".format(
            self.request_id, self.span_count(),
            "open" if self.root.end is None else self.status)


class _Traces(Mapping):
    """``request_id -> RequestTrace`` view, in begin order."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "SpanTracer") -> None:
        self._tracer = tracer

    def __getitem__(self, request_id: int) -> RequestTrace:
        return RequestTrace(self._tracer, request_id,
                            self._tracer._roots[request_id])

    def __iter__(self) -> Iterator[int]:
        return iter(self._tracer._roots)

    def __len__(self) -> int:
        return len(self._tracer._roots)


class SpanTracer:
    """Records one span tree per request as events unfold.

    Every method is a no-op for requests without a begun trace, so
    instrumented components never need to know whether a particular
    request (a unit-test probe object, say) is being traced.
    """

    __slots__ = ("env", "_roots", "_start", "_end", "_parent", "_trace",
                 "_name", "_meta", "_codes", "_names", "_top", "_named",
                 "_counts", "_kids", "_add_start", "_add_end", "_add_parent",
                 "_add_trace", "_add_name", "_add_meta")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: request_id -> root row, in begin order (dicts preserve it).
        self._roots: dict[int, int] = {}
        # One entry per span row in each column.
        self._start = array("d")
        self._end: list[Optional[float]] = []
        self._parent = array("q")
        self._trace = array("q")
        self._name = array("I")
        self._meta: list[Optional[dict]] = []
        # Bound appends: a row is added per span, on the hot path.
        self._add_start = self._start.append
        self._add_end = self._end.append
        self._add_parent = self._parent.append
        self._add_trace = self._trace.append
        self._add_name = self._name.append
        self._add_meta = self._meta.append
        #: Span name <-> name code.
        self._codes: dict[str, int] = {}
        self._names: list[str] = []
        #: root row -> innermost open row (absent: nothing but the root
        #: is open, so new spans become the root's children).
        self._top: dict[int, int] = {}
        #: (root row, name) -> row of an open cross-component span.
        self._named: dict[tuple[int, str], int] = {}
        #: ``(row count, index)`` caches of the lazily built indexes.
        self._counts: Optional[tuple[int, Counter]] = None
        self._kids: Optional[tuple[int, dict[int, list[int]]]] = None

    @property
    def traces(self) -> Mapping[int, RequestTrace]:
        """request_id -> trace view, in begin order."""
        return _Traces(self)

    # -- rows ----------------------------------------------------------------
    def _code(self, name: str) -> int:
        """Intern a span name not seen before."""
        code = self._codes[name] = len(self._names)
        self._names.append(name)
        return code

    def _add(self, name: str, parent: int, root: int, meta: dict,
             end: Optional[float] = None) -> int:
        """Append one span row; returns the row."""
        row = len(self._start)
        self._add_start(self.env._now)
        self._add_end(end)
        self._add_parent(parent)
        self._add_trace(root)
        code = self._codes.get(name)
        self._add_name(self._code(name) if code is None else code)
        self._add_meta(meta or None)
        return row

    def _annotate(self, row: int, meta: dict) -> None:
        current = self._meta[row]
        if current is None:
            self._meta[row] = meta
        else:
            current.update(meta)

    def _close(self, row: int, meta: dict) -> None:
        """Close an open ``row``; unwind the open stack past it when it
        was innermost (an out-of-order close is skipped later)."""
        ends = self._end
        ends[row] = self.env._now
        if meta:
            self._annotate(row, meta)
        root = self._trace[row]
        top = self._top
        if top.get(root) != row:
            return
        parents = self._parent
        row = parents[row]
        while row != root:
            end = ends[row]
            if end is None:  # still open: the new innermost span
                top[root] = row
                return
            row = parents[row]
        del top[root]

    # -- trace lifecycle ---------------------------------------------------
    def begin(self, request_id: int, **meta) -> RequestTrace:
        """Open the root span of a new request."""
        row = len(self._start)
        self._add(_ROOT_NAME, -1, row, meta)
        self._roots[request_id] = row
        return RequestTrace(self, request_id, row)

    def end(self, request_id: int, status: str = "ok", **meta) -> None:
        """Close the root span (stragglers stay open for finalize)."""
        root = self._roots.get(request_id)
        if root is None:
            return
        ends = self._end
        end = ends[root]
        if end is not None:
            return
        ends[root] = self.env._now
        meta["status"] = status
        self._annotate(root, meta)

    def get(self, request_id: int) -> Optional[RequestTrace]:
        root = self._roots.get(request_id)
        return None if root is None else RequestTrace(self, request_id, root)

    # -- spans -------------------------------------------------------------
    def start(self, request_id: int, name: str, _new=Span.__new__,
              _cls=Span, **meta) -> Optional[Span]:
        """Open a span as a child of the request's innermost open span.

        Returns the handle :meth:`finish` takes (``None`` when the
        request is not traced).
        """
        root = self._roots.get(request_id)
        if root is None:
            return None
        # _add() inlined: one span per hop per request opens here.
        row = len(self._start)
        self._add_start(self.env._now)
        self._add_end(None)
        top = self._top
        self._add_parent(top.get(root, root))
        self._add_trace(root)
        code = self._codes.get(name)
        self._add_name(self._code(name) if code is None else code)
        self._add_meta(meta or None)
        top[root] = row
        span = _new(_cls)
        span._tracer = self
        span._row = row
        span._trace = None
        return span

    def finish(self, span: Optional[Span], **meta) -> None:
        """Close ``span`` (``None`` and double closes are no-ops)."""
        if span is None:
            return
        row = span._row
        ends = self._end
        end = ends[row]
        if end is not None:
            return
        # _close() inlined: nearly every span closes here.
        ends[row] = self.env._now
        if meta:
            self._annotate(row, meta)
        root = self._trace[row]
        top = self._top
        if top.get(root) != row:
            return
        parents = self._parent
        row = parents[row]
        while row != root:
            end = ends[row]
            if end is None:
                top[root] = row
                return
            row = parents[row]
        del top[root]

    def start_named(self, request_id: int, name: str, **meta) -> None:
        """Open a cross-component span the consumer will close by name."""
        root = self._roots.get(request_id)
        if root is None:
            return
        key = (root, name)
        named = self._named
        if key in named:
            return
        top = self._top
        named[key] = top[root] = self._add(name, top.get(root, root), root,
                                           meta)

    def finish_named(self, request_id: int, name: str, **meta) -> None:
        root = self._roots.get(request_id)
        if root is None:
            return
        row = self._named.pop((root, name), None)
        if row is None:
            return
        end = self._end[row]
        if end is not None:
            return
        self._close(row, meta)

    def instant(self, request_id: int, name: str, **meta) -> None:
        """A zero-duration annotation span (decision points).

        Equivalent to ``finish(start(...))`` — the span is attached to
        the innermost open span and never touches the open stack (the
        push/pop pair cancels out).
        """
        root = self._roots.get(request_id)
        if root is None:
            return
        self._add(name, self._top.get(root, root), root, meta,
                  self.env._now)

    # -- completion --------------------------------------------------------
    def finalize(self) -> None:
        """Close every still-open span at the current time.

        Called once after the run: requests in flight at the horizon
        (and ghost work whose client already moved on) get their spans
        closed with an ``unfinished`` marker so exporters and the
        decomposer see only well-formed intervals.
        """
        now = self.env.now
        ends, parents, metas = self._end, self._parent, self._meta
        for row, end in enumerate(ends):
            if end is not None:
                continue
            ends[row] = now
            meta = metas[row]
            if meta is None:
                meta = metas[row] = {"unfinished": True}
            else:
                meta["unfinished"] = True
            if parents[row] < 0 and meta.get("status") is None:
                meta["status"] = "unfinished"
        self._top.clear()
        self._named.clear()

    def completed_traces(self) -> list[RequestTrace]:
        """Traces whose request finished normally, in begin order."""
        return [trace for trace in self.traces.values() if trace.completed]

    # -- indexes (built on first use, rebuilt after new rows) --------------
    def _span_counts(self) -> Counter:
        """root row -> number of spans in its trace."""
        rows = len(self._start)
        cached = self._counts
        if cached is None or cached[0] != rows:
            cached = self._counts = (rows, Counter(self._trace))
        return cached[1]

    def _children(self) -> dict[int, list[int]]:
        """row -> child rows in open order (leaves are absent)."""
        rows = len(self._start)
        cached = self._kids
        if cached is None or cached[0] != rows:
            kids: dict[int, list[int]] = {}
            for row, parent in enumerate(self._parent):
                if parent >= 0:
                    siblings = kids.get(parent)
                    if siblings is None:
                        kids[parent] = [row]
                    else:
                        siblings.append(row)
            cached = self._kids = (rows, kids)
        return cached[1]

    def _walk_rows(self, row: int) -> Iterator[int]:
        """``row`` and its descendants, depth-first, in open order."""
        kids = self._children()
        stack = [row]
        while stack:
            row = stack.pop()
            yield row
            children = kids.get(row)
            if children:
                stack.extend(reversed(children))

    def __len__(self) -> int:
        return len(self._roots)

    def __repr__(self) -> str:
        return "<SpanTracer traces={} spans={}>".format(
            len(self._roots), len(self._start))
