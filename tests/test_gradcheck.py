"""The FD machinery itself plus the named verification registry."""

import pytest

from mxt.gradcheck import (
    STANDARD_BLOCKS,
    run_standard_check,
    run_standard_suite,
)
from mxt.model import HybridModule


def test_registry_names_cover_required_surface():
    need = {"layer_norm", "conv2d", "depthwise_conv2d", "causal_conv1d",
            "srsa", "mamba_block", "gdfn", "cbfn", "ssm_scan"}
    assert need <= set(STANDARD_BLOCKS)
    assert any(n.startswith("loss_") for n in STANDARD_BLOCKS)
    # every term of the training objective has a named check
    for term in ("l1", "masked_l1", "style", "perceptual"):
        assert f"loss_{term}" in STANDARD_BLOCKS
    for mode in ("nonsat", "hinge"):
        assert f"loss_adv_g_{mode}" in STANDARD_BLOCKS
        assert f"loss_adv_d_{mode}" in STANDARD_BLOCKS
    assert "model" in STANDARD_BLOCKS


def test_unknown_block_name_raises():
    with pytest.raises(ValueError, match="unknown gradcheck block"):
        run_standard_check("nope")


def test_representative_checks_pass():
    assert run_standard_check("layer_norm")["worst"] < 1e-5
    assert run_standard_check("loss_masked_l1")["worst"] < 1e-5


def test_suite_respects_name_subset():
    got = dict(run_standard_suite(names=["loss_l1"]))
    assert list(got) == ["loss_l1"]
    assert got["loss_l1"]["worst"] < 1e-5


def test_model_check_passes_along_random_directions():
    # the assembled network under the full generator loss, three directions
    # per adversarial mode
    report = run_standard_check("model")
    assert set(report) == {f"{mode}.v{i}" for mode in ("nonsat", "hinge")
                           for i in range(3)} | {"worst"}
    assert report["worst"] < 1e-5, report


def test_model_check_catches_a_detached_residual(monkeypatch):
    # the values stay the same and the gradient through the Mamba residual
    # is lost: every block check still passes, the model check does not
    def forward(self, x):
        for i, block in enumerate(self._blocks):
            x = (x.detach() if i == 1 else x) + block(x)
        return x

    monkeypatch.setattr(HybridModule, "forward", forward)
    assert run_standard_check("mamba_block")["worst"] < 1e-5
    assert run_standard_check("model")["worst"] > 1e-3
