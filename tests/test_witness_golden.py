"""Golden outputs of the line-level routes: witnesses, brute witnesses and traced cycles.

Each digest is the first 16 hex digits of a SHA-256 over a grid's
answers, recorded from an earlier stretch-by-stretch walk with two
bisections per stretch; every walk since must reproduce them.  The grids mix walks from cell 0 that close at
a wrap ((1, 5), (6, 10)), walks that reach cell 0 by an up move from
(1, 0), in the middle of a stretch ((3, 7), (4, 5), (5, 7)), and grids
with gcd(n, m) > 1.
"""

import hashlib

import pytest

from bitorus.diagonals import decompose
from bitorus.hamiltonicity import hamiltonian_witness, is_hamiltonian_brute, trace_components
from bitorus.surface import GridParams

GRIDS = [(1, 5), (6, 10), (3, 7), (4, 5), (5, 7), (1, 1), (2, 3), (3, 3),
         (2, 4), (4, 6), (6, 9), (7, 3), (10, 6), (12, 8)]


def _witness_bytes(witness) -> bytes:
    if witness is None:
        return b"none"
    return witness.orientation.encode() + b":" + witness.cycle.astype("<i8").tobytes()


def _orientations(count: int, witness) -> list[str]:
    """All up, all right, both alternations, and the witness's string when there is one."""
    omegas = ["U" * count, "R" * count, ("UR" * count)[:count], ("RU" * count)[:count]]
    return omegas + ([witness.orientation] if witness is not None else [])


def digests(n: int, m: int) -> tuple[str, str, str]:
    witness = hamiltonian_witness(n, m)
    verdict, brute = is_hamiltonian_brute(n, m)
    dec = decompose(GridParams(n, m))
    traced = hashlib.sha256()
    for omega in _orientations(len(dec), witness):
        for cycle in trace_components(dec, omega):
            traced.update(omega.encode() + b":" + cycle.astype("<i8").tobytes() + b";")
    return (
        hashlib.sha256(_witness_bytes(witness)).hexdigest()[:16],
        hashlib.sha256(str(verdict).encode() + _witness_bytes(brute)).hexdigest()[:16],
        traced.hexdigest()[:16],
    )


GOLDEN = {
    (1, 5): ('94df947337e8f028', '1f34512e64722fa1', 'db7aaa5743f7227c'),
    (6, 10): ('b6c4faa03e1691e7', 'fb5788293db4900f', '1b296c02ec6d031e'),
    (3, 7): ('72ac4a341b5cb883', '5e9cae2bacb95d70', 'c21afbe1fe8b1bf3'),
    (4, 5): ('9957d893c3a7e0e2', '1485d4a162fd9bc9', '10692ae7bc68cd4b'),
    (5, 7): ('c232fd67ac7dc81d', '11351e51e9339141', '0422156c2bdf245c'),
    (1, 1): ('75c06eb889a531af', '7a2bc2a90a06ed3e', '4b0cc0adc1a6e9e6'),
    (2, 3): ('140bedbf9c3f6d56', 'd42089ff7e98d6c5', 'ae2f5610fa2e2b99'),
    (3, 3): ('569e4ccb5131c240', 'd34a6784581e09fa', 'd25bceedb310d7ed'),
    (2, 4): ('28487252a8e4c87f', '7cfaebc13be81211', '71a2dcdae5c870c2'),
    (4, 6): ('c4fe00fba859c739', '56a706a361d9f8ba', 'ad79e339efb51d06'),
    (6, 9): ('0573f6f5de75cdb8', 'faa356c82aad97de', 'fc4cf021a336c6df'),
    (7, 3): ('98253545f8f6ad2c', '57fcab2ddc829954', 'f2a6d4f1d2d5e6a8'),
    (10, 6): ('d38b9e950fca57e6', '775731ac8932a8d5', '2cd7627da4ebdde1'),
    (12, 8): ('140bedbf9c3f6d56', 'd42089ff7e98d6c5', '60d6e92ba3b17f29'),
}


@pytest.mark.parametrize("n,m", GRIDS)
def test_line_level_outputs_match_the_golden_digests(n, m):
    assert digests(n, m) == GOLDEN[(n, m)]
