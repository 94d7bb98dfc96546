"""Byte-identity contract: `gusbox estimate` reports on the desk catalog, and
the CSVs `gusbox generate` writes, keep the exact bytes recorded for them.

Each report case runs the CLI in-process on the ``desk_paths`` data
(``DESK_SCALE`` at ``DESK_SEED``) and compares the sha256 of its stdout with
the digest recorded when the case was added, and parses a JSON report as
strict JSON (no ``NaN`` or ``Infinity``). Each generator case compares
the sha256 of every CSV ``generate_tpch_tiny`` writes for a (scale, seed).
A digest changes only with an intended report or data change, which
CHANGES.md names.
"""

import hashlib
import json
import math
import sys

import pytest

from gusbox.cli import main
from gusbox.datagen import DEFAULT_SCALE, generate_tpch_tiny

from conftest import CUSTOMER_TYPES, strict_json
from test_dsl_ingest import query1_document


def _query1(paths):
    return query1_document(str(paths["lineitem"]), str(paths["orders"]), p=0.3, n=25)


def _wor_over_select(paths):
    doc = _query1(paths)
    right = doc["plan"]["child"]["child"]["right"]
    right["method"]["n"] = 20
    right["child"] = {"op": "select", "child": right["child"],
                      "where": [{"col": "o_totalprice", "cmp": ">", "value": 50000.0}]}
    return doc


def _keyed(paths):
    doc = _query1(paths)
    doc["tables"]["c"] = {"path": str(paths["customer"]), "idColumn": "c_custkey",
                          "columnTypes": CUSTOMER_TYPES}
    join = doc["plan"]["child"]["child"]
    join["left"] = join["left"]["child"]
    join["right"] = join["right"]["child"]
    doc["plan"]["child"]["child"] = {
        "op": "sample",
        "method": {"method": "lineage_bernoulli",
                   "dims": {"l": {"p": 0.6, "seed": 3}, "c": {"p": 0.5, "seed": 4}}},
        "child": {"op": "join", "eq": [["o_custkey", "c_custkey"]],
                  "left": join, "right": {"op": "scan", "table": "c"}},
    }
    return doc


DOCUMENTS = {"query1": _query1, "wor_over_select": _wor_over_select, "keyed": _keyed}

FORMATS = {
    "json": [],
    "json_explain": ["--explain"],
    "json_oracle": ["--explain", "--oracle", "--oracle-trials", "50"],
    "text_explain": ["--format", "text", "--explain"],
    "subsample": ["--subsample", "l=0.5,o=0.7"],
    "text_subsample": ["--format", "text", "--subsample", "l=0.5,o=0.7"],
}

# sha256 of stdout, by (document, format, run seed)
GOLDEN = {
    ("keyed", "json", 0): "70dac0bc9536a7223b3bdcae41e4434253ad74dc929e15cc916c15adc180f2a1",
    ("keyed", "json", 5): "cc7d83298b328695ddc27ebdd295a64296630dc91e3081c5cff44ada024e3316",
    ("keyed", "json_explain", 0): "6847b9fb42facc6d365ecd5516af45406fe813020192bbf93d641ef518043c14",
    ("keyed", "json_explain", 5): "25fcd31facc0158944852b08f4663627f4bd41ca49d6a2f568257fd8faffaa69",
    ("keyed", "json_oracle", 0): "e245457843ba9e9f7d71d2525d4942e09efe9c35cd52303e6c5488a55919330f",
    ("keyed", "json_oracle", 5): "22e3156ca451cc173d85c1329a2ef57a07dcc255287990bc2437bdc1d44e6048",
    ("keyed", "subsample", 0): "d244b3229fba68eb9e2beaf141812a7fbd23ad149cab4de0c7b4ab4a34e6f434",
    ("keyed", "subsample", 5): "f028f36cdb44947ba7658a0471e47b68d8c23c22b5eb159eb9ca059c6bc0df9b",
    ("keyed", "text_explain", 0): "51cbfaa6f8bfdc42f670730602ee87b75601a9879676bf6d162ab1e6ed5a166b",
    ("keyed", "text_explain", 5): "ba2bf13f3b7e3ad3caf4626fb3c7b7da9a0c80f6a580afd7a7ba80d8bd5fd4ff",
    ("keyed", "text_subsample", 0): "c36028ce72027757d4933c4c122c12ddaf8e1e17be4aeea5b8335cfb22a1b095",
    ("keyed", "text_subsample", 5): "62d019bccd36255bcb1c6b0fcad757c2ef6460ef389e7a1b80bbc07d6527e41c",
    ("query1", "json", 0): "a9c7641b0d6c59e47b486699ae4d611dcd28c06e5e2bb9ab6c9870ba25e396b5",
    ("query1", "json", 5): "bffb1d68e48c7da6d1131f28c9ee4f76d4cb71e078f673778bb7411711a2cdcc",
    ("query1", "json_explain", 0): "6477e0989ce5a7d9e6f571ec40eecf981c8a867a52e44c71ed8983c53ffe8e9d",
    ("query1", "json_explain", 5): "8878377b069db2b44b34b82f07589bd5f18aac13c845cea1be826e0157dd9293",
    ("query1", "json_oracle", 0): "37f7f6c239e83a7d2f052bf99783da30c3bc289da01f05cef701c1c0f35ce3e3",
    ("query1", "json_oracle", 5): "c26423b114ffecc041430387cc47a9bb2308e6cd7e38e015decf2d76cb56984e",
    ("query1", "subsample", 0): "4aaf0a8ae5b6144216cf878123b5959e7eaa418e2ce0bab7ff98eb249cf162b5",
    ("query1", "subsample", 5): "f858588171c940b4751de2d7461b90bf2c1e35ef1b1e9cfc851f61a33cd32794",
    ("query1", "text_explain", 0): "297ec795ad7abb0bd3f7391d8fa92d22f76fe45ceaaf22448d65fe23d080408c",
    ("query1", "text_explain", 5): "946b02245fff1d6cc7a25760472dd39b16f085638d8345f1974adb4af36fb00f",
    ("query1", "text_subsample", 0): "049c11beddc0c35cb01c608e9fbd263264ea2406775733655b83a8964700890f",
    ("query1", "text_subsample", 5): "d62f9ef326b1262105b43f7f63e686569cc8a4502c4ca9376a311b42aa0ac189",
    ("wor_over_select", "json", 0): "90be9f332a8f0cb981cda0b7f3928a6d87d942b71b354c4a42e4c9d0f32b5c68",
    ("wor_over_select", "json", 5): "c498a043b6c483c557655bebea1533f4f040c8f0f97309bf9e94b9214afa296f",
    ("wor_over_select", "json_explain", 0): "83122b35850700bb28d698c9c924494bca630780650d7c211c71c87d61228890",
    ("wor_over_select", "json_explain", 5): "49f392c04804ba90d88445f296ade93c4215546f04cb3640d4f94d3fc72cf835",
    ("wor_over_select", "json_oracle", 0): "846cf748b702edf785cfb2305037d3b7de2dd72645c6a8259ba1391dc79dd7ef",
    ("wor_over_select", "json_oracle", 5): "24c4518b5edc0df19849f72afe408d9704500676e4d1716f0a984fe5e0461052",
    ("wor_over_select", "subsample", 0): "06392e380cc7888602d4c7bb558a275e04528ee90877d9b8ac30dbb0ba9897e9",
    ("wor_over_select", "subsample", 5): "44b98a84b3a75674fcff44b2e3bfe4d8b3e52f0f9a9ae54bc1bd25896ef1dae1",
    ("wor_over_select", "text_explain", 0): "04e6af65bb712b396fbbd17f178f7606f9134107aef994ff28dc4f361af86ebb",
    ("wor_over_select", "text_explain", 5): "f27fde0b15869f5ca5c4dca8e37e8374861aebe450e89f5153eda36a9ec0b6d8",
    ("wor_over_select", "text_subsample", 0): "f7e3c90c79166c72c00c381ca42f3ee7e182ea3c9dd65d273122014be18c5a57",
    ("wor_over_select", "text_subsample", 5): "4108379d138442bf2ef67096669c9647039a141ec67df7b89cc131996743091a",
}


@pytest.fixture(scope="module")
def plan_paths(desk_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, build in DOCUMENTS.items():
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps(build(desk_paths)))
    return paths


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_report_bytes(plan_paths, capsys, document, fmt, seed):
    assert main(["estimate", str(plan_paths[document]), "--seed", str(seed),
                 *FORMATS[fmt]]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN[document, fmt, seed]
    if not fmt.startswith("text"):
        strict_json(out)


def compensated_sum(values, start=0):
    """The builtin ``sum`` of CPython 3.12 and later over ints and floats:
    from the first float on, Neumaier's compensated summation."""
    total, c = start, 0.0
    for x in values:
        if type(total) is not float:
            total = total + x
            continue
        x = float(x)
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    if type(total) is float and c and math.isfinite(c):
        total += c
    return total


def test_report_bytes_under_compensated_sum(plan_paths, capsys, monkeypatch):
    """Reports do not depend on the Python version: with 3.12's ``sum`` in
    every gusbox module, every golden report keeps its digest."""
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    for name, module in list(sys.modules.items()):
        if name == "gusbox" or name.startswith("gusbox."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    for (document, fmt, seed), digest in GOLDEN.items():
        assert main(["estimate", str(plan_paths[document]), "--seed", str(seed),
                     *FORMATS[fmt]]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == digest, (document, fmt, seed)


SCALES = {
    "default": DEFAULT_SCALE,
    "tiny": {"l": 9, "o": 1, "c": 1, "p": 1},
    # perfbench's tpch-join data; its reference.json holds estimates over it
    "benchmark": {"l": 200000, "o": 50000, "c": 5000, "p": 10000},
}

# sha256 of each generated CSV, by (scale, data seed, table)
GENERATED = {
    ("default", 0, "customer"): "ffd1edbdf5f491e5cb4daa39bd26d1c3d5233e54b90ed12a5990e09bb0733fb1",
    ("default", 0, "lineitem"): "f759b9ec7fc5d598e145fe815377144c73d87349175f3d343a6343852bd6f82f",
    ("default", 0, "orders"): "10053abc86777842174af79885152c2c2f9caddd97f657cedc6abdb047a3a1c6",
    ("default", 0, "part"): "5ba348256477bfbd4e52df8533d066e6da2bb11ac32751fe0fadd581ba637ce4",
    ("default", 7, "customer"): "9a8b073f085b0b59c9577f69358c6983895661d5a1e9d006fd64229570530eea",
    ("default", 7, "lineitem"): "de170002d6d50b6a0334f05593408056417cc1f51a01c6aad31bedb91728eec5",
    ("default", 7, "orders"): "4f3fa6ca513fdf4abaaf9ad1335fb7e5a77cf9d0f391b6afa8b4ffec6774a416",
    ("default", 7, "part"): "26de6fefcda8f823bffb7f4db0ad6ef5ce7e846859850205ecc14dd342abb697",
    ("tiny", 2, "customer"): "c2f2c153b04d250cbd4f6cc16f095d1710e84b3dadd06d6e1ced4c0196dd4c6e",
    ("tiny", 2, "lineitem"): "e62f39aa6d1f983d808da47636fc84b7841c1596f2e573c7a7cc1aab8afe7bd4",
    ("tiny", 2, "orders"): "2a05906b8dcac3c05d257c0cd5e9e3adbce9e076e73a3055ae230ca234b2be77",
    ("tiny", 2, "part"): "932146f9f6f21c0afd870c441d9511cdd7bca46e2cec231ee897e438440cc660",
    ("benchmark", 3, "customer"): "150ea0829417bbbf362767aed1e9ca65b2478a94a1649157c691b92282befab5",
    ("benchmark", 3, "lineitem"): "7415f4f85075f2334bb5ac1ad3f23ff3982b6048943f7ecd9e82e64e42610d3f",
    ("benchmark", 3, "orders"): "42ab19792b9a537a88824d922e1605404ce9f794f8ecb23573bc9d9a9879b3af",
    ("benchmark", 3, "part"): "b8c9bbcf8edbbed3c69149c0e2ac5db96956698406312f943de58dbec1cfc3ce",
}


@pytest.mark.parametrize("scale,seed", sorted({key[:2] for key in GENERATED}))
def test_generated_bytes(tmp_path, scale, seed):
    paths = generate_tpch_tiny(SCALES[scale], seed, tmp_path)
    assert list(paths) == ["customer", "part", "orders", "lineitem"]
    for table, path in paths.items():
        assert path == tmp_path / f"{table}.csv"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GENERATED[scale, seed, table]
