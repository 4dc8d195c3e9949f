"""Run one ``simplexledger`` command with spans around its public calls.

Usage: python3 perfbench/tracer.py SPANS_JSON <simplexledger arguments...>

The program is not changed: the public names are wrapped where they are
imported (``cli.tabulate``, ``CorpusStore.digest``, ...) before ``cli.main``
runs.  Spans are kept in memory and written to SPANS_JSON when the command
ends.  A wrapped name that no longer exists is listed as missing, with the
span it would have fed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import simplexledger.cli as cli
import simplexledger.ledger as ledger

# (owner, attribute, span name).  Several attributes may share a span name.
WRAPPED = [
    ("cli", "load_ontology", "ontology.load"),
    ("cli", "ingest_tsv", "corpus.ingest_tsv"),
    ("cli", "save_store", "corpus.save_store"),
    ("cli", "load_store", "corpus.load_store"),
    ("cli", "tabulate", "ledger.tabulate"),
    ("cli", "build_metrics", "metrics.build"),
    ("cli", "write_metrics_csv", "metrics.csv"),
    ("cli", "fit_linear", "fitting.fit"),
    ("cli", "fit_exponential", "fitting.fit"),
    ("cli", "svg_line_chart", "plots.svg"),
    ("ledger", "keyword_debut_years", "ledger.debut_years"),
    ("CorpusStore", "digest", "corpus.digest"),
    ("CorpusStore", "records_in", "corpus.records_in"),
    ("CorpusStore", "max_keyword_id", "corpus.max_keyword_id"),
]


def _io_counters() -> tuple[int, int, int] | None:
    """(rchar, wchar, bytes this read added to rchar), or None off Linux."""
    try:
        fd = os.open("/proc/self/io", os.O_RDONLY)
    except OSError:
        return None
    try:
        raw = os.read(fd, 4096)
    finally:
        os.close(fd)
    fields = dict(line.split(": ") for line in raw.decode().splitlines())
    return int(fields["rchar"]), int(fields["wchar"]), len(raw)


class Tracer:
    def __init__(self) -> None:
        # (id, parent id, name, start ns, end ns, extra); the clock is the
        # process's CPU time, as for the end-to-end ``cpu_s``.
        self.spans: list[tuple[int, int, str, int, int, dict]] = []
        self.stack: list[int] = [0]
        # Wrapped name that no longer exists -> the span name it would feed.
        self.missing: dict[str, str] = {}

    def call(self, name: str, fn, args, kwargs, is_tabulate: bool = False):
        """``fn(*args, **kwargs)`` inside a span; a ``tabulate`` span also
        records its I/O byte deltas and the new keys it found."""
        span_id = len(self.spans) + 1
        parent = self.stack[-1]
        self.stack.append(span_id)
        self.spans.append((span_id, parent, name, 0, 0, {}))
        before = _io_counters() if is_tabulate else None
        start = time.process_time_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.process_time_ns()
            after = _io_counters() if is_tabulate else None
            self.stack.pop()
            extra = {}
            if before and after:
                extra["read_bytes"] = after[0] - before[0] - before[2]
                extra["write_bytes"] = after[1] - before[1]
            self.spans[span_id - 1] = (span_id, parent, name, start, end, extra)
        if is_tabulate:
            extra["new_keys"] = sum(result.new_simplices)
        return result

    def wrap(self, owner, attr: str, name: str, label: str) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing[label] = name
            return
        is_tabulate = name == "ledger.tabulate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, is_tabulate)

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "missing": self.missing}, f)


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    owners = {"cli": cli, "ledger": ledger, "CorpusStore": getattr(cli, "CorpusStore", None)}
    for owner_name, attr, name in WRAPPED:
        label = f"{owner_name}.{attr}"
        if owners[owner_name] is None:
            tracer.missing[label] = name
        else:
            tracer.wrap(owners[owner_name], attr, name, label)
    try:
        return tracer.call(f"cli.{command[0]}", cli.main, (command,), {})
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
