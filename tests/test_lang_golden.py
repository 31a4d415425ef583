"""Golden equivalence and error-table tests for the ResCCLang parser.

``data/lang_ast_golden.json`` pins a SHA-256 of ``repr(parse_module(text))``
for every example program and for ``to_source()`` of each registry
algorithm at 2x8 and 4x8, so a parser rewrite must build exactly the
same AST.  Regenerate it (only when the AST is meant to change) with::

    PYTHONPATH=src python tests/test_lang_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.algorithms import available_algorithms, build_algorithm
from repro.lang import parse_module, parse_program
from repro.topology import multi_node

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "lang_ast_golden.json"
SHAPES = ((2, 8), (4, 8))
#: An absent fixture leaves ``test_golden_covers_every_source`` failing.
DIGESTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def golden_sources():
    """``name -> ResCCLang text`` for every source the fixture pins."""
    sources = {}
    for path in sorted((ROOT / "examples" / "algorithms").glob("*.rescclang")):
        sources[f"examples/{path.name}"] = path.read_text(encoding="utf-8")
    for algo in available_algorithms():
        for nodes, gpus in SHAPES:
            program = build_algorithm(algo, multi_node(nodes, gpus))
            sources[f"{algo}@{nodes}x{gpus}"] = program.to_source()
    return sources


def ast_digest(text: str) -> str:
    return hashlib.sha256(repr(parse_module(text)).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def sources():
    return golden_sources()


def test_golden_covers_every_source(sources):
    assert sorted(DIGESTS) == sorted(sources)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_ast_matches_golden(name, sources):
    assert ast_digest(sources[name]) == DIGESTS[name]


@pytest.mark.parametrize("algo", available_algorithms())
@pytest.mark.parametrize("nodes,gpus", SHAPES)
def test_to_source_round_trips(algo, nodes, gpus):
    program = build_algorithm(algo, multi_node(nodes, gpus))
    reparsed = parse_program(program.to_source())
    assert reparsed.transfers == program.transfers
    assert reparsed.header == program.header


if __name__ == "__main__":
    digests = {name: ast_digest(text) for name, text in golden_sources().items()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
