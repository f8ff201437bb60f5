"""The `nn.Module` registry against the hand-written `parameters()` methods
it replaced.

The oracle below is those methods, one per class. The registry must give the
same dotted names, in the same insertion order, bound to the very same Tensor
objects; checkpoints and clipped training must come out bit-identical.
"""

import numpy as np
import pytest

from sgear import dataio, encoder, nn, pa, semantic, tca
from sgear.autodiff import Tensor
from sgear.decoder import CausalDecoder, DecoderConfig
from sgear.encoder import EncoderConfig
from sgear.model import TABLE3_SETTINGS, ModelConfig, SgearModel
from sgear.semantic import ProtoStore
from sgear.trainer import TrainConfig, fit, save_checkpoint

K, T, D = 5, 4, 8


# -- oracle: the per-class methods --------------------------------------------------

def prefixed(prefix, params):
    return {f"{prefix}.{k}": v for k, v in params.items()}


def merge_params(*dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            assert k not in out, f"duplicate parameter name '{k}'"
            out[k] = v
    return out


def blocks_of(blocks):
    return merge_params(*(prefixed(f"block{i}", oracle_parameters(b))
                          for i, b in enumerate(blocks)))


def linears(obj, *names):
    return merge_params(*(prefixed(n, oracle_parameters(getattr(obj, n)))
                          for n in names))


def oracle_parameters(obj):
    """What `obj.parameters()` returned before the registry."""
    if isinstance(obj, nn.Linear):
        return {"w": obj.w, "b": obj.b}
    if isinstance(obj, nn.LayerNorm):
        return {"gain": obj.gain, "bias": obj.bias}
    if isinstance(obj, nn.Mlp):
        return linears(obj, "fc1", "fc2")
    if isinstance(obj, nn.SelfAttention):
        return linears(obj, "wq", "wk", "wv", "wo")
    if isinstance(obj, nn.TransformerBlock):
        return linears(obj, "ln1", "attn", "ln2", "mlp")
    if isinstance(obj, tca.TcaBlock):
        return merge_params(linears(obj, "wq", "wk", "wv", "wo"),
                            {"alpha": obj.alpha},
                            linears(obj, "ln1", "ln2", "mlp"))
    if isinstance(obj, tca.TcaStack):
        return blocks_of(obj.blocks)
    if isinstance(obj, pa.PaBlock):
        return merge_params(linears(obj, "wq", "wk", "wv", "wo"),
                            {"toe_weights": obj.toe_weights, "beta": obj.beta,
                             "lam": obj.lam})
    if isinstance(obj, CausalDecoder):
        return merge_params({"pos": obj.pos}, blocks_of(obj.blocks))
    if isinstance(obj, (encoder.FeatureAdapter, encoder.PassthroughEncoder)):
        return linears(obj, "lin")
    if isinstance(obj, semantic.CosineHead):
        return merge_params({"alpha": obj.alpha}, linears(obj, "w_cls"))
    if isinstance(obj, semantic.LinearHead):
        return linears(obj, "w_cls")
    if isinstance(obj, SgearModel):
        params = prefixed("encoder", oracle_parameters(obj.encoder))
        if obj.tca is not None:
            params = merge_params(params, prefixed("tca", oracle_parameters(obj.tca)))
        if obj.pa is not None:
            params = merge_params(params, prefixed("pa", oracle_parameters(obj.pa)))
        params = merge_params(params,
                              prefixed("decoder", oracle_parameters(obj.decoder)),
                              prefixed("head", oracle_parameters(obj.head)))
        if obj.visual_store is not None and obj.visual_store.tensor.requires_grad:
            params = merge_params(params, {"protos.visual": obj.visual_store.tensor})
        return params
    raise TypeError(f"no oracle for {type(obj).__name__}")


def assert_same_registry(obj):
    got, want = obj.parameters(), oracle_parameters(obj)
    assert list(got) == list(want)                      # names and their order
    assert all(got[name] is want[name] for name in want)


# -- models -----------------------------------------------------------------------

def language_store():
    return ProtoStore(kind="language", tensor=Tensor(
        dataio.language_prototypes_from_cooccurrence(np.full((K, K), 1.0 / K), D)))


def make_model(setting, mode="passthrough"):
    config = ModelConfig(
        num_classes=K, frames=T, d=D, encoder=EncoderConfig(mode=mode, d=D),
        n_tca=2, tca_heads=2,
        decoder=DecoderConfig(d=D, layers=2, heads=2, mlp_hidden=16, max_len=T),
        toggles=TABLE3_SETTINGS[setting])
    model = SgearModel(config, language_store=language_store())
    if mode == "adapter":
        model.encoder.set_prototype_stats(np.zeros(D), np.ones(D))
    return model


MODEL_CASES = [(s, mode) for mode in ("passthrough", "adapter")
               for s, toggles in TABLE3_SETTINGS.items()
               if not (mode == "adapter" and toggles.tca)]


@pytest.mark.parametrize("setting,mode", MODEL_CASES)
def test_model_registry_matches_oracle(setting, mode):
    assert_same_registry(make_model(setting, mode))


def test_frozen_visual_store_leaves_the_registry():
    model = make_model("full")
    model.visual_store.freeze()
    assert "protos.visual" not in model.parameters()
    assert_same_registry(model)


def adapter(rng):
    block = encoder.FeatureAdapter(EncoderConfig(mode="adapter", d=D), rng)
    block.set_prototype_stats(np.zeros(D), np.ones(D))
    return block


@pytest.mark.parametrize("build", [
    lambda rng: tca.TcaStack(D, 2, T, rng, n_blocks=3),
    lambda rng: CausalDecoder(DecoderConfig(d=D, layers=3, heads=2,
                                            mlp_hidden=16, max_len=T), rng),
    lambda rng: pa.PaBlock(D, T, rng, k=2),
    lambda rng: semantic.CosineHead(D, K, rng),
    lambda rng: semantic.LinearHead(D, K, rng),
    lambda rng: encoder.PassthroughEncoder(EncoderConfig(d=D), rng),
    adapter,
], ids=["tca_stack", "decoder", "pa", "cosine_head", "linear_head",
        "passthrough", "adapter"])
def test_block_registry_matches_oracle(build):
    assert_same_registry(build(np.random.default_rng(0)))


# -- checkpoints and training -----------------------------------------------------

def clips(n=6, seed=1):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(T, 2, D)), int(rng.integers(K)),
             [int(c) for c in rng.integers(K, size=T)]) for _ in range(n)]


def use_oracle(monkeypatch, model):
    monkeypatch.setattr(model, "parameters", lambda: oracle_parameters(model),
                        raising=False)


def test_checkpoint_bytes_match_the_oracle(tmp_path, monkeypatch):
    model = make_model("full")
    history, optimizer = fit(model, clips(), TrainConfig(
        optimizer="adamw", lr=1e-2, batch_size=3, epochs=1))
    save_checkpoint(tmp_path / "registry.sgck", model, optimizer, step=len(history))
    use_oracle(monkeypatch, model)
    save_checkpoint(tmp_path / "oracle.sgck", model, optimizer, step=len(history))
    assert ((tmp_path / "registry.sgck").read_bytes()
            == (tmp_path / "oracle.sgck").read_bytes())


@pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
def test_clipped_fit_matches_the_oracle(monkeypatch, optimizer):
    """`_clip` runs on the optimizer's flat gradient, laid out in sorted-name
    order, so a clipped run with the oracle's registry is bit-identical."""
    config = TrainConfig(optimizer=optimizer, lr=5e-2, batch_size=2, epochs=2,
                         grad_clip=1e-3)
    runs = []
    for oracle in (False, True):
        model = make_model("full")
        if oracle:
            use_oracle(monkeypatch, model)
        history, _ = fit(model, clips(), config)
        runs.append((history, model.parameters()))
    (hist_a, params_a), (hist_b, params_b) = runs
    assert hist_a == hist_b
    assert list(params_a) == list(params_b)
    assert all(np.array_equal(params_a[n].data, params_b[n].data) for n in params_a)
