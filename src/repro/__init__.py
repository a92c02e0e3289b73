"""Universal Soldier (USB) reproduction: UAP-based backdoor detection.

The package is organized as follows:

* :mod:`repro.nn` — NumPy autograd / neural-network substrate.
* :mod:`repro.models` — model zoo (Basic CNN, ResNet-18, VGG-16, EfficientNet-B0-style).
* :mod:`repro.data` — synthetic datasets standing in for MNIST / CIFAR-10 / GTSRB / ImageNet.
* :mod:`repro.attacks` — backdoor attacks (BadNet, Latent, Input-Aware Dynamic, Blended).
* :mod:`repro.core` — the paper's contribution: targeted UAP + USB detector.
* :mod:`repro.defenses` — baselines (Neural Cleanse, TABOR) and shared detection machinery.
* :mod:`repro.mitigation` — detect -> repair -> verify: trigger-informed
  unlearning, activation-differential pruning, guardrailed repair pipeline.
* :mod:`repro.eval` — training, detection protocol, experiment configurations, reporting.
* :mod:`repro.service` — scanning service: fingerprinted checkpoints, cached
  result store, process-parallel scan scheduler, cacheable repair jobs, and
  the ``python -m repro`` CLI.
* :mod:`repro.obs` — observability: cross-process trace spans, phase
  profiler, Prometheus-exposition metrics export.
* :mod:`repro.analysis` — repro-lint: AST-based static checks enforcing the
  project's RNG, digest, lock, telemetry, and exception disciplines.
* :mod:`repro.utils` — SSIM, image helpers, RNG management.

Importing ``repro`` loads no subpackage: ``repro.nn`` resolves on first
access, and ``repro.nn``, ``repro.core``, ``repro.attacks``,
``repro.data``, ``repro.eval``, ``repro.obs`` and ``repro.service`` resolve
each public name from its submodule the same way (:mod:`repro._lazy`).  A cached ``python -m repro scan`` therefore compiles
only what a cache hit runs; the inversion stack loads when a miss is
dispatched (:func:`repro.service.scheduler.load_inversion_stack`).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = ["nn", "__version__"]

__getattr__ = lazy_exports(__name__, {"nn": "nn"})
