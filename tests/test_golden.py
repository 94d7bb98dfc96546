"""Byte-identity contract: `gusbox estimate` reports on the desk catalog keep
the exact bytes recorded for them.

Each case runs the CLI in-process on the ``desk_paths`` data (``DESK_SCALE``
at ``DESK_SEED``) and compares the sha256 of its stdout with the digest
recorded when the case was added. A digest changes only with an intended
report change, which CHANGES.md names.
"""

import hashlib
import json

import pytest

from gusbox.cli import main

from conftest import CUSTOMER_TYPES
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
    "text_explain": ["--format", "text", "--explain"],
    "subsample": ["--subsample", "l=0.5,o=0.7"],
    "text_subsample": ["--format", "text", "--subsample", "l=0.5,o=0.7"],
}

# sha256 of stdout, by (document, format, run seed)
GOLDEN = {
    ("keyed", "json", 0): "70dac0bc9536a7223b3bdcae41e4434253ad74dc929e15cc916c15adc180f2a1",
    ("keyed", "json", 5): "cc7d83298b328695ddc27ebdd295a64296630dc91e3081c5cff44ada024e3316",
    ("keyed", "subsample", 0): "d244b3229fba68eb9e2beaf141812a7fbd23ad149cab4de0c7b4ab4a34e6f434",
    ("keyed", "subsample", 5): "f028f36cdb44947ba7658a0471e47b68d8c23c22b5eb159eb9ca059c6bc0df9b",
    ("keyed", "text_explain", 0): "51cbfaa6f8bfdc42f670730602ee87b75601a9879676bf6d162ab1e6ed5a166b",
    ("keyed", "text_explain", 5): "ba2bf13f3b7e3ad3caf4626fb3c7b7da9a0c80f6a580afd7a7ba80d8bd5fd4ff",
    ("keyed", "text_subsample", 0): "c36028ce72027757d4933c4c122c12ddaf8e1e17be4aeea5b8335cfb22a1b095",
    ("keyed", "text_subsample", 5): "62d019bccd36255bcb1c6b0fcad757c2ef6460ef389e7a1b80bbc07d6527e41c",
    ("query1", "json", 0): "a9c7641b0d6c59e47b486699ae4d611dcd28c06e5e2bb9ab6c9870ba25e396b5",
    ("query1", "json", 5): "bffb1d68e48c7da6d1131f28c9ee4f76d4cb71e078f673778bb7411711a2cdcc",
    ("query1", "subsample", 0): "4aaf0a8ae5b6144216cf878123b5959e7eaa418e2ce0bab7ff98eb249cf162b5",
    ("query1", "subsample", 5): "f858588171c940b4751de2d7461b90bf2c1e35ef1b1e9cfc851f61a33cd32794",
    ("query1", "text_explain", 0): "297ec795ad7abb0bd3f7391d8fa92d22f76fe45ceaaf22448d65fe23d080408c",
    ("query1", "text_explain", 5): "946b02245fff1d6cc7a25760472dd39b16f085638d8345f1974adb4af36fb00f",
    ("query1", "text_subsample", 0): "049c11beddc0c35cb01c608e9fbd263264ea2406775733655b83a8964700890f",
    ("query1", "text_subsample", 5): "d62f9ef326b1262105b43f7f63e686569cc8a4502c4ca9376a311b42aa0ac189",
    ("wor_over_select", "json", 0): "90be9f332a8f0cb981cda0b7f3928a6d87d942b71b354c4a42e4c9d0f32b5c68",
    ("wor_over_select", "json", 5): "c498a043b6c483c557655bebea1533f4f040c8f0f97309bf9e94b9214afa296f",
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
