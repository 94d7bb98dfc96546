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
``columnTypes``. Only a table's ``path`` needs its file to fail.
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


@pytest.fixture
def reads(monkeypatch):
    """The names of the tables ``gusbox estimate`` ingests, in order."""
    names = []
    ingest_csv = cli.ingest_csv

    def spy(path, name, *args):
        names.append(name)
        return ingest_csv(path, name, *args)

    monkeypatch.setattr(cli, "ingest_csv", spy)
    return names


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_damaged_inputs_end_in_a_known_exit_code(desk_paths, tmp_path, capsys, reads, document):
    doc = DOCUMENTS[document](desk_paths)
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
        elif code == 2 and reads_no_data and reads:
            faults.append(f"{name}: exit 2 after reading tables {reads}: {err!r}")
        elif code and not (err.startswith("error: ") and err.count("\n") == 1
                           and err.endswith("\n")):
            faults.append(f"{name}: exit {code} with stderr {err!r}")
        else:
            codes[code] += 1
    assert not faults, "\n".join(faults)
    assert codes[2] > codes[0] > 0  # the damage reaches both parse and run


@pytest.mark.parametrize("suffix", ["/1", "*1.0", "+True"])
@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_float_id_expression_exits_before_ingest(desk_paths, tmp_path, capsys, reads,
                                                 document, suffix):
    # '/' and a float literal make every id a float; each exited 2 only after
    # its table was read ("produced non-integer"). A bool literal passed as a
    # number: True as an id exited 2 only after ingest, and in a sum exited 0.
    doc = DOCUMENTS[document](desk_paths)
    what = {"/1": "'/' makes a float; use '//'", "*1.0": "float literal 1.0 makes a float",
            "+True": "literal True is not numeric"}[suffix]
    cases = []
    for name, spec in doc["tables"].items():
        bad = copy.deepcopy(doc)
        bad["tables"][name]["idColumn"] = spec["idColumn"] + suffix
        cases.append((bad, f"tables.{name}.idColumn"))
    if suffix == "+True":
        first = next(iter(doc["tables"]))
        bad = copy.deepcopy(doc)
        bad["tables"][first]["idColumn"] = "True"
        cases.append((bad, f"tables.{first}.idColumn"))
        bad = copy.deepcopy(doc)
        bad["plan"]["expr"] += suffix
        cases.append((bad, "plan.expr"))
    for bad, path in cases:
        (tmp_path / "plan.json").write_bytes(_dumps(bad))
        assert main(["estimate", str(tmp_path / "plan.json")]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {what}\n")
    assert reads == []


def test_ambiguous_subset_keys_exit_before_ingest(tmp_path, capsys, reads):
    # the report keys the subset {a, b} and the table ab both "ab"; this
    # exited 2 only after every table was read and the plan executed
    tables = {}
    for name in ("a", "ab", "b"):
        (tmp_path / f"{name}.csv").write_text(f"{name}_k,{name}_v\n1,1.0\n")
        tables[name] = {"path": str(tmp_path / f"{name}.csv"), "idColumn": f"{name}_k",
                        "columnTypes": {f"{name}_k": "int64", f"{name}_v": "float64"}}
    scan = {name: {"op": "scan", "table": name} for name in tables}
    doc = {"tables": tables, "plan": {"op": "sum", "expr": "a_v", "child": {
        "op": "join", "eq": [["a_k", "ab_k"]], "right": scan["ab"],
        "left": {"op": "join", "eq": [["a_k", "b_k"]], "left": scan["a"], "right": scan["b"]}}}}
    (tmp_path / "plan.json").write_text(json.dumps(doc))
    assert main(["estimate", str(tmp_path / "plan.json")]) == 2
    assert capsys.readouterr() == ("", "error: schema ('a', 'ab', 'b') has ambiguous subset "
                                       "keys; rename relations to serialize\n")
    assert reads == []


_REPEATED_KEY_DOCUMENT = (
    '{"tables": {"t": {"path": "t.csv", "idColumn": "k", '
    '"columnTypes": {"k": "int64", "v": "float64"%(column)s}}%(table)s}, '
    '"plan": {"op": "sum", "expr": "v", "child": {"op": "sample", '
    '"method": {"method": "bernoulli", "p": 0.3%(p)s, "seed": 1}, '
    '"child": {"op": "scan", "table": "t"}}}}')


@pytest.mark.parametrize("slot, text, key", [
    ("p", ', "p": 1.0', "p"),
    ("table", ', "t": {"path": "t.csv", "idColumn": "k", "columnTypes": {"k": "int64"}}', "t"),
    ("column", ', "v": "float64"', "v"),
], ids=["sampler", "table", "column"])
def test_repeated_key_exits_before_ingest(tmp_path, capsys, reads, slot, text, key):
    # json.loads keeps a repeated key's last value: the repeated "p" ran
    # with p = 1.0 and exited 0 with variance 0
    (tmp_path / "t.csv").write_text("k,v\n1,1.0\n2,2.0\n")
    slots = {"column": "", "table": "", "p": ""}
    (tmp_path / "plan.json").write_text(_REPEATED_KEY_DOCUMENT % slots)
    assert main(["estimate", str(tmp_path / "plan.json")]) == 0
    assert reads == ["t"]
    capsys.readouterr()
    reads.clear()
    slots[slot] = text
    (tmp_path / "plan.json").write_text(_REPEATED_KEY_DOCUMENT % slots)
    assert main(["estimate", str(tmp_path / "plan.json")]) == 2
    assert capsys.readouterr() == ("", f"error: key {key!r} repeated in one object\n")
    assert reads == []


@pytest.mark.parametrize("spec, message", [
    ("", "empty subsample spec"),
    (" ", "empty subsample spec"),
    (",", "empty subsample spec"),
    ("l", "bad subsample entry 'l'; expected relation=probability"),
], ids=["empty", "blank", "comma", "no-value"])
def test_bad_subsample_spec_exits_before_ingest(tmp_path, capsys, reads, spec, message):
    # an empty spec, as `--subsample "$SPEC"` passes with SPEC unset, ran
    # without a sub-sample and exited 0
    (tmp_path / "t.csv").write_text("k,v\n1,1.0\n2,2.0\n")
    plan = _REPEATED_KEY_DOCUMENT % {"column": "", "table": "", "p": ""}
    (tmp_path / "plan.json").write_text(plan)
    assert main(["estimate", str(tmp_path / "plan.json"), "--subsample", spec]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert reads == []
