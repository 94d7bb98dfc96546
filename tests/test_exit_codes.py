"""Exit-code contract under malformed input: `gusbox estimate` returns 0, 2
or 3 and never raises, and on 2 or 3 it writes exactly one ``error:`` line.

The inputs are the golden desk documents of ``test_golden`` and their CSVs,
each damaged one way at a time, in a fixed order (no randomness):

- every JSON value in the plan replaced by ``true``, ``"x"``, ``null``,
  ``[1]``, ``{}`` or ``1e400``;
- every key deleted;
- the byte ``0xff`` or a NUL byte inserted at the midpoint of the plan or of
  one CSV;
- the plan or one CSV truncated at its midpoint, or emptied;
- one float column of one CSV set to the finite but huge ``1e308`` or
  ``1e200``, in its middle row or in every row, so that the sums or squares
  the estimator forms from it overflow float64.

Every exit 0 writes a strict JSON report: no ``NaN`` or ``Infinity``, which
RFC 8259 cannot represent, and no numpy ``RuntimeWarning`` reaches stderr.

A damaged plan value or a deleted key that exits 2 does so before the first
CSV is read (a spy on ``gusbox.cli.ingest_csv`` counts the reads): the
parser checks every name, type and expression against the declared
``columnTypes``. Only a table's ``path`` needs its file to fail, and the
cases in ``NEEDS_DATA``, each with its reason.
"""

import copy
import json
import traceback
import warnings

import pytest

from gusbox import cli
from gusbox.cli import main

from conftest import strict_json
from test_golden import DOCUMENTS

_INFINITY = "\u0000 1e400 \u0000"  # stands for the literal 1e400, which json.dumps cannot write
REPLACEMENTS = {"true": True, '"x"': "x", "null": None, "[1]": [1], "{}": {}, "1e400": _INFINITY}


# (document, case) whose exit 2 depends on the rows read, and why
NEEDS_DATA = {
    ("wor_over_select", "plan.child.child.right.child.where.0.value=1e400"):
        "the select keeps no row, so the WOR above it draws 20 rows from 0",
}


def _dumps(doc) -> bytes:
    return json.dumps(doc).replace(json.dumps(_INFINITY), "1e400").encode("utf-8")


def _slots(node, path=()):
    """The path of every value below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _slots(child, path + (key,))


def _keys(node):
    """The path of every dict key below ``node``."""
    return [p for p in _slots(node) if isinstance(_parent(node, p), dict)]


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _damaged(data: bytes):
    """The byte-level damage applied to one file, by name."""
    mid = len(data) // 2
    return {
        "0xff": data[:mid] + b"\xff" + data[mid:],
        "nul": data[:mid] + b"\0" + data[mid:],
        "truncated": data[:mid],
        "empty": b"",
    }


def _huge(data: bytes, column: int, rows: slice, value: bytes) -> bytes:
    """The CSV ``data`` with ``value`` in ``column`` on the data ``rows``."""
    header, *body = data.splitlines(keepends=True)
    for i in range(len(body))[rows]:
        row = body[i].rstrip(b"\r\n")
        cells = row.split(b",")
        cells[column] = value
        body[i] = b",".join(cells) + body[i][len(row):]
    return header + b"".join(body)


def _is_strict_json(text: bytes) -> bool:
    try:
        strict_json(text)
    except ValueError:
        return False
    return True


def _reads_no_data(path) -> bool:
    """Whether damage at ``path`` must fail before any CSV is read: all of
    the document but a table's ``path``, which names the file to read."""
    return not (path[0] == "tables" and path[2:] == ("path",))


def _cases(doc):
    """(name, plan bytes, {table: CSV bytes replacing its file}, whether an
    exit 2 must come before ingest) per damage."""
    for path in _slots(doc):
        for text, value in REPLACEMENTS.items():
            bad = copy.deepcopy(doc)
            _parent(bad, path)[path[-1]] = value
            yield f"{'.'.join(map(str, path))}={text}", _dumps(bad), {}, _reads_no_data(path)
    for path in _keys(doc):
        bad = copy.deepcopy(doc)
        del _parent(bad, path)[path[-1]]
        yield f"del {'.'.join(map(str, path))}", _dumps(bad), {}, _reads_no_data(path)
    plan = _dumps(doc)
    for how, data in _damaged(plan).items():
        yield f"plan {how}", data, {}, False
    for table, spec in doc["tables"].items():
        with open(spec["path"], "rb") as handle:
            csv = handle.read()
        for how, data in _damaged(csv).items():
            yield f"{table} csv {how}", plan, {table: data}, False
        header, *body = csv.decode("ascii").splitlines()
        middle = len(body) // 2
        for column, name in enumerate(header.split(",")):
            if spec["columnTypes"].get(name) != "float64":
                continue
            for how, rows in (("middle row", slice(middle, middle + 1)), ("every row", slice(None))):
                for value in ("1e308", "1e200"):
                    data = _huge(csv, column, rows, value.encode())
                    yield f"{table} csv {name}={value} in {how}", plan, {table: data}, False


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_damaged_inputs_end_in_a_known_exit_code(desk_paths, tmp_path, capsys, monkeypatch,
                                                 document):
    doc = DOCUMENTS[document](desk_paths)
    reads = []
    ingest_csv = cli.ingest_csv

    def spy(path, name, *args):
        reads.append(name)
        return ingest_csv(path, name, *args)

    monkeypatch.setattr(cli, "ingest_csv", spy)
    faults, codes = [], {0: 0, 2: 0, 3: 0}
    for case, (name, plan, csvs, reads_no_data) in enumerate(_cases(doc)):
        where = tmp_path / str(case)
        where.mkdir()
        if csvs:  # point the table at a damaged copy of its file
            parsed = json.loads(plan)
            for table, data in csvs.items():
                (where / f"{table}.csv").write_bytes(data)
                parsed["tables"][table]["path"] = str(where / f"{table}.csv")
            plan = _dumps(parsed)
        (where / "plan.json").write_bytes(plan)
        reads.clear()
        try:
            with warnings.catch_warnings():  # a numpy warning would reach stderr
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["estimate", str(where / "plan.json"), "--out", str(where / "out")])
        except BaseException:  # SystemExit included: only a return counts
            faults.append(f"{name}: raised\n{traceback.format_exc()}")
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        if code not in codes:
            faults.append(f"{name}: exit {code}")
        elif code == 0 and err:
            faults.append(f"{name}: exit 0 with stderr {err!r}")
        elif code == 0 and not _is_strict_json((where / "out").read_bytes()):
            faults.append(f"{name}: exit 0 with a report that is not strict JSON")
        elif (document, name) in NEEDS_DATA and not (code == 2 and reads):
            faults.append(f"{name}: listed in NEEDS_DATA, but exit {code} after reading {reads}")
        elif code == 2 and reads_no_data and reads and (document, name) not in NEEDS_DATA:
            faults.append(f"{name}: exit 2 after reading tables {reads}: {err!r}")
        elif code and not (err.startswith("error: ") and err.count("\n") == 1
                           and err.endswith("\n")):
            faults.append(f"{name}: exit {code} with stderr {err!r}")
        else:
            codes[code] += 1
    assert not faults, "\n".join(faults)
    assert codes[2] > codes[0] > 0  # the damage reaches both parse and run
