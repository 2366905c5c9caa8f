"""Loss assembly, the Adam optimizer, the predictor training loop, and
horizon-wise evaluation against the zero-velocity baseline.

Two error conventions coexist deliberately: the training loss averages
squared per-joint norms over all N+T frames, while reported numbers use the
plain Euclidean per-joint distance at individual future frames.
"""

from __future__ import annotations

import copy
import numbers
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .autodiff import Tape, Tensor, all_finite
from .errors import (ConfigError, NumericError, ShapeError, require_at_least,
                     require_positive_finite)
from .exits import (FlopsReport, _gumbel_softmax_st, _policy_forward,
                    _tendency_loss_soft, count_flops, init_policy)
from .layers import bind, require_writeable
from .motion import MotionSequence, PartLayout
from .predictor import (BRANCH_KINDS, PredictorConfig, PredictorParams,
                        _assemble_prediction, _branch_encode, _branch_tail,
                        _prepare_branch_inputs, init_predictor, pad_last_frame)

DEFAULT_W_TENDENCY = 1000.0  # hand-tuned so exit balance competes with the mm^2 loss


# ----------------------------------------------------------------------
# losses and metrics

def _mpjpe_loss_t(tape: Tape, pred: Tensor, gt: np.ndarray) -> Tensor:
    """Mean squared per-joint position error over all joints and frames,
    averaged over a batch of sequences gt (B, frames, 3J)."""
    batch, frames, width = gt.shape
    diff = tape.add(pred, tape.constant(-gt))
    return tape.scale(tape.sum_sq(diff), 3.0 / (width * frames * batch))


def _frame_errors(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Mean per-joint Euclidean distance at each frame of pred and gt
    (..., T, 3J), in millimeters: (..., T)."""
    diff = (pred - gt).reshape(*pred.shape[:-1], -1, 3)
    return np.linalg.norm(diff, axis=-1).mean(axis=-1)


def mpjpe_metric(pred: np.ndarray, gt: np.ndarray, frame_index: int) -> float:
    """Mean per-joint Euclidean distance at one frame, in millimeters.

    Both inputs hold the future frames only; frame_index is 0-based.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2:
        raise ShapeError(f"incompatible shapes {pred.shape} vs {gt.shape}")
    if not 0 <= frame_index < pred.shape[0]:
        raise ValueError(f"frame index {frame_index} outside 0..{pred.shape[0] - 1}")
    return float(_frame_errors(pred[frame_index], gt[frame_index]))


# ----------------------------------------------------------------------
# optimizer

_ADAM_CHUNK = 16_384  # elements per in-place pass: a 128 KB scratch chunk stays in cache


def _check_param(name: str, p: np.ndarray) -> None:
    """Raise ValueError naming p unless writes to its flat view reach it."""
    require_writeable(name, p)
    if not (p.dtype == np.float64 and p.flags.c_contiguous):
        raise ValueError(f"parameter {name} is not a C-contiguous float64 array, "
                         "so an in-place update would not reach it")


class AdamState:
    """Adam's step count and moments for one parameter dict.

    m and v are one flat float64 buffer each, in the dict's order, holding the
    moments over (1 - beta1) and (1 - beta2), updated as m = beta1 m + g and
    v = beta2 v + g^2; m[name] and v[name] are views of them. The flat space is
    cut once into chunks of at most _ADAM_CHUNK elements, each array into pieces
    of at most that many and consecutive pieces grouped while they fit, which
    adam_step updates one by one through one chunk-sized scratch buffer."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        sizes = [int(np.prod(shape)) for shape in shapes.values()]
        offsets = np.cumsum([0, *sizes]).tolist()
        self._m, self._v = np.zeros(offsets[-1]), np.zeros(offsets[-1])
        spans = list(zip(shapes.items(), offsets, sizes))
        self.m = {name: self._m[o:o + n].reshape(shape) for (name, shape), o, n in spans}
        self.v = {name: self._v[o:o + n].reshape(shape) for (name, shape), o, n in spans}
        self.step = 0
        # (start, stop) in the flat space, and the (name, lo, hi) element
        # ranges of the pieces it holds, in order
        self._chunks: list[tuple[int, int, tuple[tuple[str, int, int], ...]]] = []
        for (name, _), start, n in spans:
            for lo in range(0, n, _ADAM_CHUNK):
                hi = min(lo + _ADAM_CHUNK, n)
                if self._chunks and start + hi - self._chunks[-1][0] <= _ADAM_CHUNK:
                    first, _, pieces = self._chunks.pop()
                    self._chunks.append((first, start + hi, (*pieces, (name, lo, hi))))
                else:
                    self._chunks.append((start + lo, start + hi, ((name, lo, hi),)))
        width = max((stop - start for start, stop, _ in self._chunks), default=0)
        self._scratch = np.empty(width)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        """Zero moments for params, each a writeable, C-contiguous float64
        array; ValueError names the first that is not."""
        for name, p in params.items():
            _check_param(name, p)
        return cls({name: p.shape for name, p in params.items()})


def _chunk_grad(grads: dict[str, np.ndarray],
                pieces: tuple[tuple[str, int, int], ...], out: np.ndarray) -> np.ndarray:
    """One chunk's gradient: a view of its one piece, or its pieces joined into out."""
    if len(pieces) == 1:
        name, lo, hi = pieces[0]
        return grads[name].reshape(-1)[lo:hi]
    return np.concatenate([grads[name].reshape(-1)[lo:hi] for name, lo, hi in pieces],
                          out=out)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected update, in place. Returns (params, state).

    Nothing changes unless lr and eps are finite and > 0, beta1 and beta2 lie
    in [0, 1), params holds exactly the state's names and shapes and every
    gradient is present, of its parameter's shape and finite. Bias corrections,
    lr and eps fold into two scalars, so a chunk takes 10 elementwise passes;
    params agree with the textbook formula within 1e-14 of each array's
    largest magnitude, not bit for bit."""
    for key, value in (("lr", lr), ("eps", eps)):
        if not 0 < value < np.inf:
            raise ValueError(f"{key} must be finite and > 0, got {value}")
    for key, value in (("beta1", beta1), ("beta2", beta2)):
        if not 0 <= value < 1:
            raise ValueError(f"{key} must lie in [0, 1), got {value}")
    if params.keys() != state.m.keys():
        raise ShapeError(f"parameters {sorted(params.keys() ^ state.m.keys())} "
                         "are not the ones the Adam state was made for")
    for name, m in state.m.items():
        p, g = params[name], grads.get(name)
        if p.shape != m.shape:
            raise ShapeError(f"parameter {name} has shape {p.shape}, its Adam state {m.shape}")
        if g is None or g.shape != m.shape:
            raise ShapeError(f"gradient of {name} missing or mis-shaped")
        _check_param(name, p)
    for _, _, pieces in state._chunks:  # each piece's view, before anything changes
        for name, lo, hi in pieces:
            g = grads[name]
            if not all_finite(g if hi - lo == g.size else g.reshape(-1)[lo:hi]):
                raise NumericError(f"non-finite gradient for {name}")

    state.step += 1
    # m and v hold M / (1 - beta1) and V / (1 - beta2) of the textbook moments
    # M and V, so p -= lr * (M / bc1) / (sqrt(V / bc2) + eps) is
    # p -= step * m / (sqrt(v) + eps / r), where r = sqrt((1 - beta2) / bc2)
    r = np.sqrt((1.0 - beta2) / (1.0 - beta2 ** state.step))
    step = lr * (1.0 - beta1) / ((1.0 - beta1 ** state.step) * r)
    for start, stop, pieces in state._chunks:
        m, v, t = state._m[start:stop], state._v[start:stop], state._scratch[:stop - start]
        g = _chunk_grad(grads, pieces, t)  # t itself when pieces are joined
        m *= beta1
        m += g
        v *= beta2
        np.multiply(g, g, out=t)
        v += t
        np.sqrt(v, out=t)
        t += eps / r
        np.divide(m, t, out=t)
        t *= step
        at = 0
        for name, lo, hi in pieces:
            params[name].reshape(-1)[lo:hi] -= t[at:at + hi - lo]
            at += hi - lo
    return params, state


def _fit(named: dict[str, np.ndarray], n_items: int, epochs: int, batch_size: int,
         lr: float, lr_decay: float, rng: np.random.Generator,
         objective: Callable) -> Iterator[tuple[float, float, list]]:
    """Adam over minibatches of n_items, updating named in place; a generator.

    Each epoch draws one permutation from rng and cuts it into batches of at
    most batch_size indices. objective(tape, epoch, batch) gets a fresh tape,
    binds named through its own module's bind (which a benchmark may replace),
    runs the forward pass and returns (tensors, loss, total, record); total is
    differentiated and one adam_step follows. After each epoch lr is multiplied
    by lr_decay and (mean loss per item, lr, the epoch's records) is yielded."""
    state = AdamState.for_params(named)
    for epoch in range(epochs):
        order = rng.permutation(n_items)
        epoch_loss = 0.0
        records = []
        for start in range(0, n_items, batch_size):
            batch = order[start:start + batch_size]
            tape = Tape()
            tensors, loss, total, record = objective(tape, epoch, batch)
            tape.backward(total)
            adam_step(named, {name: tensors[name].grad for name in named}, state, lr)
            epoch_loss += loss.item() * len(batch)
            records.append(record)
        lr *= lr_decay
        yield epoch_loss / n_items, lr, records


# ----------------------------------------------------------------------
# the model bundle and its training loop

@dataclass
class PredictorModel:
    """Predictor parameters plus one exit policy network per branch, whose
    arrays policies holds as policy.{kind}.w1, .b1, .w2 and .b2."""

    params: PredictorParams
    policies: dict[str, np.ndarray]

    def named_parameters(self) -> dict[str, np.ndarray]:
        return {**self.params.arrays, **self.policies}


def init_predictor_model(rng: np.random.Generator, layout: PartLayout,
                         config: PredictorConfig) -> PredictorModel:
    params = init_predictor(rng, layout, config)
    policies = {}
    for kind in BRANCH_KINDS:
        policy = init_policy(rng, config.feature_width, config.policy_hidden,
                             config.n_blocks)
        policies.update({f"policy.{kind}.{name}": arr for name, arr in policy.items()})
    return PredictorModel(params=params, policies=policies)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.0005
    lr_decay_per_epoch: float = 0.96
    batch_size: int = 32
    epochs: int = 50
    constrain_epochs: int = 20
    w_tendency: float = DEFAULT_W_TENDENCY
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_positive_finite(self, "lr", "temperature")
        require_positive_finite(self, "w_tendency", zero_ok=True)
        if not 0 < self.lr_decay_per_epoch <= 1:
            raise ConfigError("lr_decay_per_epoch must lie in (0, 1]")
        require_at_least(self, 1, "batch_size")
        require_at_least(self, 0, "epochs", "constrain_epochs")
        require_at_least(self, 0, "seed", high=None)
        if not 0 <= self.constrain_epochs <= self.epochs:
            raise ConfigError("constrain_epochs must lie within 0..epochs")


@dataclass
class EpochRecord:
    loss: float
    lr: float
    exit_counts: tuple[int, ...]
    tendency: float
    val_error: float | None


@dataclass
class TrainResult:
    model: PredictorModel
    best: PredictorModel
    history: list[EpochRecord]

    def history_csv(self) -> str:
        n_exits = len(self.history[0].exit_counts) if self.history else 0
        cols = ["epoch", "loss", "lr", "tendency", "val_error"]
        cols += [f"exit_{d}" for d in range(1, n_exits + 1)]
        lines = [",".join(cols)]
        for i, rec in enumerate(self.history):
            val = "" if rec.val_error is None else repr(rec.val_error)
            row = [str(i), repr(rec.loss), repr(rec.lr), repr(rec.tendency), val]
            row += [str(c) for c in rec.exit_counts]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _check_dataset(dataset: list[MotionSequence], shape: tuple[int, int], name: str) -> None:
    """Each sequence has the (frames, width) shape; all share one fps."""
    for i, seq in enumerate(dataset):
        if seq.data.shape != shape:
            raise ShapeError(f"{name} sequence {i} ({seq.label!r}) has shape "
                             f"{seq.data.shape}, expected {shape}")
        if seq.fps != dataset[0].fps:
            raise ValueError(f"{name} sequence {i} ({seq.label!r}) has fps {seq.fps}, "
                             f"sequence 0 has {dataset[0].fps}")


def _routed_forward(tape: Tape, model: PredictorModel, tensors: dict[str, Tensor],
                    history: np.ndarray, noise: np.ndarray,
                    temperature: float) -> tuple[Tensor, np.ndarray, list[Tensor]]:
    """Each branch of each history (B, N, E) runs to the exit its policy draws
    under Gumbel noise.

    noise (B, branches, D) holds one row per history and branch; training
    samples it, deterministic routing passes zeros. Each sample's branch
    correction is multiplied by the chosen entry of its hard one-hot, which is
    1 in the forward pass and routes a straight-through gradient to that
    sample's chosen logit alone in the backward pass. Returns the (B, N+T, E)
    predictions, the (B, branches) exits taken and each branch's (B, 1, D)
    soft draws.
    """
    params = model.params
    inputs = _prepare_branch_inputs(tape, params, history)
    outputs = {}
    chosen = []
    softs: list[Tensor] = []
    for i, kind in enumerate(BRANCH_KINDS):
        encoded = _branch_encode(tape, tensors, kind, inputs[kind])
        logits = _policy_forward(tape, tensors, f"policy.{kind}", encoded)
        hard, soft = _gumbel_softmax_st(tape, logits, temperature, noise[:, i])
        exits = np.argmax(hard.values, axis=-1).reshape(-1) + 1
        out = _branch_tail(tape, kind, params.config, tensors, encoded, exits)
        batch, n_exits = hard.shape[0], hard.shape[-1]
        gate = tape.gather([tape.reshape(hard, (batch * n_exits, 1, 1))],
                           np.arange(batch) * n_exits + exits - 1)
        outputs[kind] = tape.scalar_mul(out, gate)
        chosen.append(exits)
        softs.append(soft)
    pred = _assemble_prediction(tape, params, outputs, history)
    return pred, np.stack(chosen, axis=1), softs


def _routed_batch(model: PredictorModel,
                  histories: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Policy-routed deterministic predictions of histories (B, N, E) on one
    tape: the (B, N+T, E) predictions and the (B, branches) exits they used.
    Every op acts on each history alone, so a batch gives each history's
    prediction bit for bit. An inference tape keeps no backward state: at
    default size and full depth, a tape of the 56 default test histories
    peaks at 8.1 MB (tracemalloc), against 64 MB when it kept one."""
    tape = Tape()
    tensors = bind(tape, model.named_parameters(), trainable=False)
    noise = np.zeros((len(histories), len(BRANCH_KINDS), model.params.config.n_blocks))
    pred, chosen, _ = _routed_forward(tape, model, tensors, histories, noise, 1.0)
    return pred.values, chosen


def routed_prediction(model: PredictorModel,
                      history: MotionSequence) -> tuple[MotionSequence, tuple[int, ...]]:
    """Policy-routed deterministic prediction and the exits it used."""
    pred, exits = _routed_batch(model, history.data[None])
    return history.with_data(pred[0]), tuple(int(d) for d in exits[0])


def _mean_future_error(model: PredictorModel, dataset: list[MotionSequence],
                       n_input: int) -> float:
    data = np.stack([seq.data for seq in dataset])
    pred, _ = _routed_batch(model, data[:, :n_input])
    errors = _frame_errors(pred[:, n_input:], data[:, n_input:])
    total = 0.0
    for e in errors.reshape(-1).tolist():  # sequential, history by history
        total += e
    return total / errors.size


def train_predictor(model: PredictorModel, train_set: list[MotionSequence],
                    val_set: list[MotionSequence], config: TrainConfig) -> TrainResult:
    """Train with per-sample exit sampling and the balance constraint phase.

    Each minibatch runs as one batched forward and backward on one tape. The
    exit-usage constraint is active for the first constrain_epochs epochs;
    the learning rate is multiplied by lr_decay_per_epoch after every epoch.
    Validation (deterministic exits) runs each epoch; the best-by-validation
    snapshot is returned alongside the final model.
    """
    if not train_set:
        raise ValueError("training set is empty")
    cfg = model.params.config
    n_input, n_exits = cfg.input_frames, cfg.n_blocks
    shape = (n_input + cfg.output_frames, model.params.layout.size)
    _check_dataset(train_set, shape, "train")
    _check_dataset(val_set, shape, "val")

    sequences = np.stack([seq.data for seq in train_set])
    rng = np.random.default_rng(config.seed)
    named = model.named_parameters()

    def objective(tape: Tape, epoch: int, batch: np.ndarray):
        tensors = bind(tape, named, trainable=True)
        data = sequences[batch]
        # the same draws, in the same order, as one (branches, D) draw per sample
        noise = rng.gumbel(size=(len(batch), len(BRANCH_KINDS), n_exits))
        pred, chosen, softs = _routed_forward(
            tape, model, tensors, data[:, :n_input], noise, config.temperature)
        loss = _mpjpe_loss_t(tape, pred, data)
        if epoch >= config.constrain_epochs or config.w_tendency == 0.0:
            return tensors, loss, loss, (chosen, 0.0)
        soft_sum = tape.sum_rows(reduce(tape.add, softs))
        t_loss = _tendency_loss_soft(tape, soft_sum, config.w_tendency)
        return tensors, loss, tape.add(loss, t_loss), (chosen, t_loss.item())

    history: list[EpochRecord] = []
    best, best_val = None, np.inf
    for loss, lr, records in _fit(named, len(train_set), config.epochs, config.batch_size,
                                  config.lr, config.lr_decay_per_epoch, rng, objective):
        chosen, tendencies = zip(*records)
        val_error = _mean_future_error(model, val_set, n_input) if val_set else None
        if val_error is not None and val_error < best_val:
            best_val, best = val_error, copy.deepcopy(model)
        counts = np.bincount(np.concatenate(chosen).reshape(-1) - 1, minlength=n_exits)
        # reduce, not sum: sum() compensates float sums since Python 3.12
        history.append(EpochRecord(
            loss=loss, lr=lr, exit_counts=tuple(counts.tolist()),
            tendency=reduce(operator.add, tendencies, 0.0) / len(tendencies),
            val_error=val_error))
    return TrainResult(model=model, best=copy.deepcopy(model) if best is None else best,
                       history=history)


# ----------------------------------------------------------------------
# baseline and evaluation

@dataclass(frozen=True)
class EvalReport:
    """Per-action and overall errors at each horizon, with baseline deltas."""

    horizon_frames: tuple[int, ...]
    ms_per_frame: float
    per_action: dict[str, tuple[float, ...]]
    overall: tuple[float, ...]
    baseline_per_action: dict[str, tuple[float, ...]]
    baseline_overall: tuple[float, ...]
    sequence_count: int
    flops: FlopsReport

    def __post_init__(self):
        if list(self.horizon_frames) != sorted(set(self.horizon_frames)):
            raise ValueError("horizons must be strictly increasing")
        for errs in (self.overall, self.baseline_overall, *self.per_action.values()):
            if any(e < 0 for e in errs):
                raise ValueError("errors must be non-negative")

    def deltas(self) -> tuple[float, ...]:
        """overall minus baseline; negative means the model beats the baseline."""
        return tuple(o - b for o, b in zip(self.overall, self.baseline_overall))

    def _columns(self) -> list[str]:
        return [f"frame_{h}({h * self.ms_per_frame:.0f}ms)" for h in self.horizon_frames]

    def to_csv(self) -> str:
        lines = ["action," + ",".join(self._columns())]
        for action in sorted(self.per_action):
            row = ",".join(repr(e) for e in self.per_action[action])
            lines.append(f"{action},{row}")
        lines.append("overall," + ",".join(repr(e) for e in self.overall))
        lines.append("baseline," + ",".join(repr(e) for e in self.baseline_overall))
        lines.append("delta," + ",".join(repr(d) for d in self.deltas()))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"{self.sequence_count} sequences, horizons "
                 f"{list(self.horizon_frames)} (frames ahead)"]
        for col, err, base in zip(self._columns(), self.overall, self.baseline_overall):
            verdict = "beats" if err < base else "trails"
            lines.append(f"  {col}: {err:.3f} mm vs baseline {base:.3f} mm ({verdict})")
        lines.append(f"  routed MACs/sample: {self.flops.weighted_average_total():.0f} "
                     f"({self.flops.percent_saved():.2f}% below full depth)")
        return "\n".join(lines) + "\n"


def evaluate(model: PredictorModel, test_set: list[MotionSequence],
             horizon_frames: tuple[int, ...]) -> EvalReport:
    """Deterministic evaluation: policy-routed exits, per-action metrics.

    horizon_frames are 1-based future-frame numbers; each must lie within the
    model's prediction span.
    """
    if not test_set:
        raise ValueError("test set is empty")
    cfg = model.params.config
    n_input, n_output = cfg.input_frames, cfg.output_frames
    for h in horizon_frames:
        if isinstance(h, bool) or not isinstance(h, numbers.Integral):
            raise ValueError(f"horizon frame {h} is not an integer")
        if not 1 <= h <= n_output:
            raise ValueError(f"horizon frame {h} outside 1..{n_output}")
    horizon_frames = tuple(int(h) for h in horizon_frames)

    _check_dataset(test_set, (n_input + n_output, model.params.layout.size), "test")

    data = np.stack([seq.data for seq in test_set])
    history, future = data[:, :n_input], data[:, n_input:]
    pred, exits = _routed_batch(model, history)
    columns = [h - 1 for h in horizon_frames]
    # Lists of rows: np.mean stacks them C-ordered and sums each column row by
    # row, as per history. The fancy-indexed block is F-ordered, and np.mean
    # over it would sum pairwise, which changes the last bits.
    all_rows = list(_frame_errors(pred[:, n_input:], future)[:, columns])
    base_rows = list(_frame_errors(pad_last_frame(history, n_output)[:, n_input:],
                                   future)[:, columns])
    by_action: dict[str, list[np.ndarray]] = {}
    base_by_action: dict[str, list[np.ndarray]] = {}
    for seq, row, base_row in zip(test_set, all_rows, base_rows):
        by_action.setdefault(seq.label, []).append(row)
        base_by_action.setdefault(seq.label, []).append(base_row)

    def _mean(rows: list[np.ndarray]) -> tuple[float, ...]:
        return tuple(float(x) for x in np.mean(rows, axis=0))

    return EvalReport(
        horizon_frames=horizon_frames,
        ms_per_frame=1000.0 / test_set[0].fps,
        per_action={a: _mean(rows) for a, rows in by_action.items()},
        overall=_mean(all_rows),
        baseline_per_action={a: _mean(rows) for a, rows in base_by_action.items()},
        baseline_overall=_mean(base_rows),
        sequence_count=len(test_set),
        flops=count_flops(model.params, exits),
    )
