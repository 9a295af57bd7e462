"""Byte pins of the online path.

The digests were taken from the per-round learner protocol that the one
round loop replaced: the ``monolearn adversarial`` CSV of the shipped toy
config against each scripted adversary, and ``run_eag_adversary``'s plays
and regret. Any change to an online iterate, gradient or regret changes
them.
"""

import hashlib
from pathlib import Path

import pytest

from monolearn.harness import main
from monolearn.verify import run_eag_adversary

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "adversarial_toy.json"

ADVERSARIAL_CSV_SHA256 = {
    "appendix_d": "ed9754028f3e9c4ecb36880e7871cf9290620aca0c0f7c22b105dd44f27fdf7c",
    "random_box": "6a8f93aa75432a91ecf7e155a913cd26190c3bf68fd5d401dfb945efb1367567",
    "zero": "a40fd14a1bb375ea9b3ede57907e49b948bbaa5ee7e24ba1e0e2f51ebb6dc3a0",
}

EAG_SHA256 = {
    1: "5afcd4bfe60bd6f023a7f8032dcd9297419f9da77637bcabf83b02249a116a1a",
    2: "5ee1bdba78d3f8313f7bcd0a1fa007f119c0b5d4e3792b82406801f80fcf91c9",
    7: "8ae22648414c64f39eab9858981db48e4f0ad45aa64b63bd21ccb851f6feebcd",
    1000: "d738196b6ecbfbb9e3a1eec90e11cc0b1b2cefcb7f17543ceea4b49007bb39e6",
}


def eag_digest(regret, played):
    """sha256 of repr(regret), then each play's action and gradient bytes."""
    h = hashlib.sha256(repr(float(regret)).encode())
    for action, g in played:
        h.update(action.tobytes())
        h.update(g.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("adversary", sorted(ADVERSARIAL_CSV_SHA256))
def test_adversarial_csv_bytes(tmp_path, capsys, adversary):
    out = tmp_path / "regret.csv"
    assert main(["adversarial", "--config", str(CONFIG), "--adversary", adversary,
                 "--T", "2001", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ADVERSARIAL_CSV_SHA256[adversary]


@pytest.mark.parametrize("T", sorted(EAG_SHA256))
def test_eag_adversary_bytes(T):
    regret, played = run_eag_adversary(T, eta=0.5)
    assert len(played) == T
    assert eag_digest(regret, played) == EAG_SHA256[T]
