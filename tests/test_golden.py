"""Byte pins of the online and self-play paths.

The online digests were taken from the per-round learner protocol that the
one round loop replaced: the ``monolearn adversarial`` CSV of the shipped
toy config against each scripted adversary, and ``run_eag_adversary``'s
plays and regret. Any change to an online iterate, gradient or regret
changes them. The adversarial CSV digests were retaken when the command
began to record every ``stride``-th round (the toy config's stride is 1)
instead of round T alone; each new CSV's last row is the old one's.

The self-play digests were taken from the measurement pass that evaluated
exact best responses and losses one profile at a time: the CSV of the
shipped bilinear config, and stride-1 bilinear runs with the potential
whose horizon ends in a partial block. They pin every column, the exact
``tgap_exact`` and ``dynreg_i`` columns included.

The play-stream and mixed-tag digests were taken when ``eag`` still divided
its anchor displacement by t+1 while ``aog`` multiplied it by 1/(t+1): the
actions and gradients of ``gd``, ``og``, ``eg`` and ``aog`` against the
seeded ``random_box`` adversary, and the stride-1 CSV of an ``og`` player
beside an ``aog`` player, whose anchor is laid out per coordinate. Only
``eag`` moved when the two anchor forms became one.
"""

import hashlib
from pathlib import Path

import pytest

from monolearn.geometry import symmetric_box
from monolearn.harness import (
    BLOCK_ROWS,
    ExperimentConfig,
    main,
    make_adversary,
    run_self_play,
)
from monolearn.learners import make_learner, play_rows
from monolearn.verify import run_eag_adversary

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONFIG = CONFIGS / "adversarial_toy.json"

ADVERSARIAL_CSV_SHA256 = {
    "appendix_d": "ad37d2a33a07b12e1aab06c270966c2cbd31da4f5acff1da61fd1df049cdd9cd",
    "random_box": "5a699f653bc830661d77620135fee6e787c1b0e6713a5164aae55f9a39764e39",
    "zero": "499771e605833a81f16d88a9cfb7e8d59b7b99a6dce8e488fc863975a72e440a",
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

# tag -> digest of its 1001-round play stream against random_box (dim 3, seed 4)
PLAY_SHA256 = {
    "gd": "20de64797a72df5d504410a0a402d0823db8794e8b05605ad529e0a67c9244c5",
    "og": "9baba7e8ffcb9ca2a6f23c56227283e777e4987487d321cfbf65e9eac43ed1b3",
    "eg": "caa4c99e2afde26a8c9a31b3274fe82f2336b0efb8618c3128766247d761a71a",
    "aog": "58b7138e10692fe9e300b9d4915982e7dcb5bd1a12d59fd2edaa07a887817208",
}

# stride-1 appendix_e (n=5) run of 2 * BLOCK_ROWS + 5 rounds, tags og and aog
MIXED_TAGS_SHA256 = "5c1e83c38556d953a78515869cc07f2ca03a429ca6acd906cfb3265990fb0790"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def play_digest(played, prefix=b""):
    """sha256 of ``prefix``, then each play's action and gradient bytes."""
    h = hashlib.sha256(prefix)
    for action, g in played:
        h.update(action.tobytes())
        h.update(g.tobytes())
    return h.hexdigest()


def eag_digest(regret, played):
    """:func:`play_digest` of the plays, prefixed by repr(regret)."""
    return play_digest(played, repr(float(regret)).encode())


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
    assert result["t"] == list(range(1, T + 1))
    assert sha256_of(out) == BILINEAR_STRIDE1_SHA256[d]


@pytest.mark.parametrize("tag", sorted(PLAY_SHA256))
def test_play_stream_bytes(tag):
    learner = make_learner(tag, symmetric_box(1.0, 3), [0.5, -0.25, 0.0], eta=0.2)
    adversary = make_adversary("random_box", 3, seed=4)
    plays, grads = play_rows(learner, adversary, 1001)
    assert play_digest(zip(plays, grads)) == PLAY_SHA256[tag]


def test_mixed_tags_stride1_csv_bytes(tmp_path):
    out = tmp_path / "run.csv"
    T = 2 * BLOCK_ROWS + 5
    result = run_self_play(ExperimentConfig(game="appendix_e", game_params={"n": 5},
                                            algo=["og", "aog"], T=T, stride=1,
                                            out=str(out)))
    assert result["t"] == list(range(1, T + 1))
    assert sha256_of(out) == MIXED_TAGS_SHA256
