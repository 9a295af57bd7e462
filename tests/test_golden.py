"""Byte pins of the online and self-play paths.

The online digests were taken from the per-round learner protocol that the
one round loop replaced: the ``monolearn adversarial`` CSV of the shipped
toy config against each scripted adversary, and ``run_eag_adversary``'s
plays and regret. Any change to an online iterate, gradient or regret
changes them.

The self-play digests were taken from the measurement pass that evaluated
exact best responses and losses one profile at a time: the CSV of the
shipped bilinear config, and stride-1 bilinear runs with the potential
whose horizon ends in a partial block. They pin every column, the exact
``tgap_exact`` and ``dynreg_i`` columns included.
"""

import hashlib
from pathlib import Path

import pytest

from monolearn.harness import BLOCK_ROWS, ExperimentConfig, main, run_self_play
from monolearn.verify import run_eag_adversary

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG = CONFIGS / "adversarial_toy.json"

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

BILINEAR_CONFIG_SHA256 = "0868e5ce3c69c21a7bd08c1d2e3c2d892af0d5b24bb274494d687acfa1c299f9"

# dims -> digest of a stride-1 bilinear run of 2 * BLOCK_ROWS + 5 rounds
BILINEAR_STRIDE1_SHA256 = {
    1: "1922403bf64cf5ed093000f987903527fc06cfe61f14c7804ab9fb2e7a16340c",
    3: "cd818472ef0e43cfa8d1b959a513f0920165e205356a92cca2295b3fb7616efa",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert sha256_of(out) == ADVERSARIAL_CSV_SHA256[adversary]


@pytest.mark.parametrize("T", sorted(EAG_SHA256))
def test_eag_adversary_bytes(T):
    regret, played = run_eag_adversary(T, eta=0.5)
    assert len(played) == T
    assert eag_digest(regret, played) == EAG_SHA256[T]


def test_bilinear_selfplay_config_csv_bytes(tmp_path, capsys):
    out = tmp_path / "bilinear.csv"
    assert main(["selfplay", "--config", str(CONFIGS / "bilinear_selfplay.json"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256_of(out) == BILINEAR_CONFIG_SHA256


@pytest.mark.parametrize("d", sorted(BILINEAR_STRIDE1_SHA256))
def test_bilinear_stride1_potential_csv_bytes(tmp_path, d):
    out = tmp_path / "run.csv"
    T = 2 * BLOCK_ROWS + 5
    result = run_self_play(ExperimentConfig(game="bilinear", game_params={"dims": [d, d]},
                                            T=T, stride=1, record_potential=True,
                                            out=str(out)))
    assert len(result.records) == T
    assert sha256_of(out) == BILINEAR_STRIDE1_SHA256[d]
