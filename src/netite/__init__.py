"""Individual treatment effect estimation from networked observational data.

A graph-convolutional encoder maps features plus the network structure
into a shared representation of hidden confounders; two
treatment-conditional heads regress the potential outcomes; a
Wasserstein-1 penalty balances the treated and control representation
distributions. The package also ships a semi-synthetic data generator
with topic-driven hidden confounding and an evaluation/grid-search
harness with a command line (`netite`).
"""

from .balance import SinkhornConfig, exact_w1_oracle, wasserstein1
from .graph import Network, neighbor_sum, normalize_adjacency
from .io import load_checkpoint, read_dataset, save_checkpoint, write_dataset
from .model import ModelParams, backward, encode, forward, init_params, predict
from .optim import AdamState, adam_step
from .runner import (
    MetricsReport,
    Split,
    TrainConfig,
    ablation_no_network,
    grid_search,
    make_split,
    metrics,
    objective,
    train,
)
from .simgen import NetworkedDataset, SimConfig, simulate

__all__ = [
    "AdamState",
    "MetricsReport",
    "ModelParams",
    "Network",
    "NetworkedDataset",
    "SimConfig",
    "SinkhornConfig",
    "Split",
    "TrainConfig",
    "ablation_no_network",
    "adam_step",
    "backward",
    "encode",
    "exact_w1_oracle",
    "forward",
    "grid_search",
    "init_params",
    "load_checkpoint",
    "make_split",
    "metrics",
    "neighbor_sum",
    "normalize_adjacency",
    "objective",
    "predict",
    "read_dataset",
    "save_checkpoint",
    "simulate",
    "train",
    "wasserstein1",
    "write_dataset",
]
