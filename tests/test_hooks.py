"""The benchmark in perfbench/ times and traces the pipeline by replacing module
globals of moticomp. Each caller must look these names up at call time, so a
replaced global has to be seen by every caller listed here."""

import dataclasses
import importlib

import numpy as np
import pytest

from moticomp import predictor, training, vae
from moticomp.motion import LOWER, UPPER, MotionSequence, PartLayout, Skeleton


def predictor_setup():
    layout = PartLayout.from_skeleton(
        Skeleton(parent=(0, 0, 0, 2), part_of=(LOWER, LOWER, UPPER, UPPER)))
    config = predictor.PredictorConfig(input_frames=8, output_frames=4, feature_width=8,
                                       heads=2, n_blocks=2, layers_per_block=2,
                                       attention_every=2, policy_hidden=4,
                                       coeff_scale=10.0)
    model = training.init_predictor_model(np.random.default_rng(0), layout, config)
    rng = np.random.default_rng(1)
    seqs = [MotionSequence(data=rng.normal(scale=10.0, size=(12, layout.size)),
                           fps=10.0, label="a") for _ in range(3)]
    return model, seqs


def train_config():
    return training.TrainConfig(epochs=1, constrain_epochs=1, batch_size=2)


# Each case builds its inputs unpatched and returns the call to observe.

def train_predictor():
    model, seqs = predictor_setup()
    return lambda: training.train_predictor(model, seqs, [], train_config())


def validation():
    model, seqs = predictor_setup()
    return lambda: training.train_predictor(model, seqs[:1], seqs[1:], train_config())


def evaluate():
    model, seqs = predictor_setup()
    return lambda: training.evaluate(model, seqs, (1,))


def predict():
    model, seqs = predictor_setup()
    hist = MotionSequence(data=seqs[0].data[:8], fps=10.0, label="a")
    return lambda: predictor.predict(model.params, hist, (1, 2, 1))


def vae_data():
    rng = np.random.default_rng(2)
    return [MotionSequence(data=rng.normal(scale=40.0, size=(8, 6)), fps=10.0,
                           label=f"a{i}") for i in range(3)]


CAG_CONFIG = vae.CagTrainConfig(epochs=1, batch_size=2, latent_dim=2, hidden_dims=(8,))


def train_cag():
    seqs = vae_data()
    return lambda: vae.train_cag(seqs, CAG_CONFIG)


def synthesize_composite():
    seqs = vae_data()
    params = vae.train_cag(seqs, CAG_CONFIG).params
    mask = vae.BodyMask(m=np.array([1.0, 1, 1, 0, 0, 0]))
    return lambda: vae.synthesize_composite(params, seqs[0], seqs[1], mask, 8, np.ones(2))


def reconstruction_mpjpe():
    seqs = vae_data()
    params = vae.train_cag(seqs, CAG_CONFIG).params
    return lambda: vae.reconstruction_mpjpe(params, seqs)


HOOKS = [
    ("training", "bind", train_predictor),
    ("training", "adam_step", train_predictor),
    ("training", "adam_step", train_cag),
    ("training", "_routed_batch", validation),
    ("training", "_routed_batch", evaluate),
    ("vae", "bind", train_cag),
    ("vae", "bind", synthesize_composite),
    ("vae", "bind", reconstruction_mpjpe),
    ("vae", "dct_encode", train_cag),
    ("vae", "dct_encode", synthesize_composite),
    ("vae", "dct_encode", reconstruction_mpjpe),
    ("vae", "idct_decode", synthesize_composite),
    ("vae", "idct_decode", reconstruction_mpjpe),
    ("predictor", "bind", predict),
    ("predictor", "dct_encode", predict),
]


@pytest.mark.parametrize("module,attr,case", HOOKS,
                         ids=[f"{m}.{a}-{c.__name__}" for m, a, c in HOOKS])
def test_patched_global_is_called(monkeypatch, module, attr, case):
    owner = importlib.import_module(f"moticomp.{module}")
    original = getattr(owner, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    call = case()
    monkeypatch.setattr(owner, attr, counted)
    call()
    assert calls, f"{case.__name__} bypassed {module}.{attr}"


# perfbench's step clock times one optimizer step from a trainable bind of the
# model's module to the training.adam_step after it; validation and evaluate
# route through _routed_batch, so a span around it times them.

def count_calls(monkeypatch, owner, attr, keep=lambda *args, **kwargs: True, calls=None):
    """Record attr in calls (a new list unless given) at each call that keep passes."""
    original = getattr(owner, attr)
    calls = [] if calls is None else calls

    def counted(*args, **kwargs):
        if keep(*args, **kwargs):
            calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_one_trainable_bind_and_adam_step_per_minibatch(monkeypatch):
    model, seqs = predictor_setup()
    # 9 sequences at batch size 2: 5 steps per epoch
    config = training.TrainConfig(epochs=2, constrain_epochs=1, batch_size=2)
    cag_config = dataclasses.replace(CAG_CONFIG, epochs=2)
    runs = [(training, lambda: training.train_predictor(model, seqs * 3, [], config)),
            (vae, lambda: vae.train_cag(vae_data() * 3, cag_config))]
    for module, run in runs:
        calls = []
        count_calls(monkeypatch, module, "bind", lambda tape, named, trainable: trainable,
                    calls)
        count_calls(monkeypatch, training, "adam_step", calls=calls)
        run()
        monkeypatch.undo()
        assert calls == ["bind", "adam_step"] * (2 * 5), module.__name__


def test_validation_routes_each_val_history_once(monkeypatch):
    model, seqs = predictor_setup()
    config = training.TrainConfig(epochs=2, constrain_epochs=1, batch_size=2)
    calls = count_calls(monkeypatch, training, "_routed_batch")
    training.train_predictor(model, seqs[:1], seqs * 2, config)
    # all 6 val histories in one call, every epoch
    assert len(calls) == 2


def test_front_end_encodes_a_batch_in_two_calls(monkeypatch):
    model, seqs = predictor_setup()
    histories = np.stack([seq.data[:8] for seq in seqs * 14][:40])
    calls = count_calls(monkeypatch, predictor, "dct_encode")
    training._routed_batch(model, histories)
    assert len(calls) == 2  # the windows, then the padded histories


@pytest.mark.parametrize("case,counts", [
    (train_cag, {"dct_encode": 1, "idct_decode": 0}),
    (reconstruction_mpjpe, {"dct_encode": 1, "idct_decode": 1})])
def test_vae_transforms_a_dataset_in_one_call(monkeypatch, case, counts):
    call = case()
    calls = {attr: count_calls(monkeypatch, vae, attr) for attr in counts}
    call()
    assert {attr: len(c) for attr, c in calls.items()} == counts
