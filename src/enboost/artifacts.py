"""On-disk format of the artifacts one command hands to the next: network
specs, the pool, the ensemble manifest, the q-table, build summaries and
reports (JSON), and the reward-curve and report tables (CSV;
`simrun.write_events` writes the events table row by row).

JSON is written with sorted keys, two-space indent and a trailing newline,
so reruns are byte-identical. A failed read raises one `ArtifactError`
naming the file (CLI exit code 2); `reading(path)` does the same for a file
read another way, such as the pool's `.npy` parameters.

Import the module, not its functions (`from . import artifacts`): tracing
wraps the public functions in each package module's namespace, and one
imported by name would be traced under a module no per-module total counts.
"""
from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager

from .errors import ArtifactError, ShapeError

# raised by a corrupt artifact: OSError by the file, ValueError by JSON and
# numpy loads and reshapes, EOFError by an empty .npy, KeyError/TypeError/
# IndexError by a document of the wrong shape, ShapeError by spec checks
_DECODE_ERRORS = (OSError, ValueError, EOFError, KeyError, TypeError,
                  IndexError, ShapeError)


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc):
    with open(path, "w") as f:
        f.write(json_text(doc))


def read_json(path, decode, version=None):
    """`decode(doc)` of the JSON object in `path`, whose `version` must equal
    `version` when one is given."""
    with reading(path):
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        if version is not None and doc.get("version") != version:
            raise ValueError(f"unsupported version {doc.get('version')!r}, "
                             f"expected {version}")
        return decode(doc)


@contextmanager
def reading(path):
    """Turn a failure to read or decode `path` into an `ArtifactError`
    naming it; an `ArtifactError` from a nested read passes unchanged."""
    try:
        yield
    except _DECODE_ERRORS as exc:
        raise ArtifactError(f"{path}: {_describe(exc)}") from exc


def _describe(exc):
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    if isinstance(exc, OSError) and exc.strerror:
        return exc.strerror
    return str(exc)


def csv_text(header, rows) -> str:
    """CSV with `None` cells as `n/a`; floats are written by `repr`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["n/a" if v is None else v for v in row])
    return buf.getvalue()
