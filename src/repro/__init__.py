"""MotherNets: Rapid Deep Ensemble Learning — reproduction library.

This package reproduces the system described in *MotherNets: Rapid Deep
Ensemble Learning* (Wasay, Liao, Idreos; MLSys 2020): rapid training of
large ensembles of deep neural networks with diverse architectures by

1. constructing a MotherNet that captures the structural similarity of the
   ensemble (``repro.core.construct_mothernet``),
2. clustering ensembles with large size spreads (``repro.core.cluster_ensemble``),
3. training the MotherNet(s) once on the full data set,
4. hatching every member via function-preserving transformations
   (``repro.core.hatch``), and
5. fine-tuning the members on bagged samples
   (``repro.core.MotherNetsTrainer``).

Sub-packages
------------
``repro.nn``
    Pure-numpy neural-network substrate (layers, optimizers, training loop).
``repro.arch``
    Architecture specifications and the paper's architecture zoo.
``repro.core``
    The MotherNets algorithms, ensemble inference, baselines, cost model.
``repro.data``
    Synthetic CIFAR/SVHN stand-ins and bagging utilities.
``repro.evaluation``
    Ensemble metrics and benchmark reporting helpers.
``repro.api``
    The unified front door: declarative :class:`~repro.api.ExperimentSpec`
    experiments, ensemble artifacts, and the :class:`~repro.api.EnsemblePredictor`
    serving facade (also exposed as the ``python -m repro`` CLI).
``repro.parallel``
    Process-based parallel execution: multi-process ensemble-member training
    on a memfd copy of the data (``TrainingConfig(workers=N)``) and the
    self-healing multi-worker :class:`~repro.parallel.PoolPredictor` serving
    pool behind ``python -m repro serve``.
``repro.obs``
    Observability: dependency-free metrics (Prometheus ``/metrics``
    exposition), structured JSON event logging, and process gauges,
    instrumented through the training and serving hot paths.
"""

__version__ = "1.6.0"

from repro import api, arch, core, data, evaluation, nn, obs, utils

__all__ = ["api", "arch", "core", "data", "evaluation", "nn", "obs", "utils", "__version__"]
