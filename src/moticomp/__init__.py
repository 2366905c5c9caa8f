"""Composite skeletal-motion synthesis and multi-branch early-exit prediction.

The pipeline, end to end on synthetic motions: generate atomic skeletal
actions with exact composite ground truth, fit a VAE over DCT-coded
trajectories that mints composite actions by masked fusion, and train a
three-branch graph-convolutional predictor whose per-branch policy networks
pick early exits per sample. Everything runs on a small built-in
reverse-mode autodiff engine, CPU only, deterministic under fixed seeds.
"""

from .autodiff import Tape, Tensor
from .dct import dct_encode, idct_decode
from .datagen import (ActionSpec, DatasetManifest, DatasetSplits, build_dataset,
                      default_manifest, default_skeleton, generate_atomic,
                      load_checkpoint, load_motion, manifest_from_json,
                      manifest_to_json, save_checkpoint, save_motion)
from .exits import FlopsReport, count_flops
from .motion import MotionSequence, PartLayout, Skeleton
from .predictor import PredictorConfig, PredictorParams, init_predictor, predict
from .training import (AdamState, EvalReport, PredictorModel, TrainConfig,
                       TrainResult, adam_step, evaluate, init_predictor_model,
                       mpjpe_metric, train_predictor)
from .vae import (BodyMask, CagTrainConfig, VaeParams, compose_oracle, init_vae,
                  masked_fuse, reconstruction_mpjpe, synthesize_composite, train_cag)

__version__ = "0.1.0"
