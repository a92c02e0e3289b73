"""Datasets: loaders, synthetic generators, transforms.

The real datasets the paper uses (MNIST / CIFAR-10 / GTSRB / ImageNet) are not
available offline; :mod:`repro.data.catalog` provides synthetic stand-ins with
matching shapes and class counts (see DESIGN.md §2).

The scanning service reads only :data:`DATASET_SPECS` to resolve a request,
so importing the package loads none of the NumPy-backed submodules: each
name in ``__all__`` resolves from its submodule on first access
(:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "Dataset": "dataset", "DataLoader": "dataset", "Subset": "dataset",
    "train_test_split": "dataset", "stratified_sample": "dataset",
    "SyntheticImageConfig": "synthetic", "SyntheticImageGenerator": "synthetic",
    "make_synthetic_dataset": "synthetic", "DatasetSpec": "catalog",
    "DATASET_SPECS": "catalog", "load_dataset": "catalog",
    "load_mnist": "catalog", "load_cifar10": "catalog",
    "load_gtsrb": "catalog", "load_imagenet_subset": "catalog",
    "Compose": "transforms", "Normalize": "transforms",
    "RandomCrop": "transforms", "RandomHorizontalFlip": "transforms",
    "RandomNoise": "transforms",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
