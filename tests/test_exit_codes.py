"""Exit-code contract under malformed input: `gusbox estimate` returns 0, 2
or 3 and never raises, and on 2 or 3 it writes exactly one ``error:`` line.

The inputs are the golden desk documents of ``test_golden`` and their CSVs,
each damaged one way at a time, in a fixed order (no randomness):

- every JSON value in the plan replaced by ``true``, ``"x"``, ``null``,
  ``[1]``, ``{}`` or ``1e400``;
- every key deleted;
- the byte ``0xff`` or a NUL byte inserted at the midpoint of the plan or of
  one CSV;
- the plan or one CSV truncated at its midpoint, or emptied.
"""

import copy
import json
import traceback

import pytest

from gusbox.cli import main

from test_golden import DOCUMENTS

_INFINITY = "\u0000 1e400 \u0000"  # stands for the literal 1e400, which json.dumps cannot write
REPLACEMENTS = {"true": True, '"x"': "x", "null": None, "[1]": [1], "{}": {}, "1e400": _INFINITY}


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


def _cases(doc):
    """(name, plan bytes, {table: CSV bytes replacing its file}) per damage."""
    for path in _slots(doc):
        for text, value in REPLACEMENTS.items():
            bad = copy.deepcopy(doc)
            _parent(bad, path)[path[-1]] = value
            yield f"{'.'.join(map(str, path))}={text}", _dumps(bad), {}
    for path in _keys(doc):
        bad = copy.deepcopy(doc)
        del _parent(bad, path)[path[-1]]
        yield f"del {'.'.join(map(str, path))}", _dumps(bad), {}
    plan = _dumps(doc)
    for how, data in _damaged(plan).items():
        yield f"plan {how}", data, {}
    for table, spec in doc["tables"].items():
        with open(spec["path"], "rb") as handle:
            csv = handle.read()
        for how, data in _damaged(csv).items():
            yield f"{table} csv {how}", plan, {table: data}


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_damaged_inputs_end_in_a_known_exit_code(desk_paths, tmp_path, capsys, document):
    doc = DOCUMENTS[document](desk_paths)
    faults, codes = [], {0: 0, 2: 0, 3: 0}
    for case, (name, plan, csvs) in enumerate(_cases(doc)):
        where = tmp_path / str(case)
        where.mkdir()
        if csvs:  # point the table at a damaged copy of its file
            parsed = json.loads(plan)
            for table, data in csvs.items():
                (where / f"{table}.csv").write_bytes(data)
                parsed["tables"][table]["path"] = str(where / f"{table}.csv")
            plan = _dumps(parsed)
        (where / "plan.json").write_bytes(plan)
        try:
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
        elif code and not (err.startswith("error: ") and err.count("\n") == 1
                           and err.endswith("\n")):
            faults.append(f"{name}: exit {code} with stderr {err!r}")
        else:
            codes[code] += 1
    assert not faults, "\n".join(faults)
    assert codes[2] > codes[0] > 0  # the damage reaches both parse and run
