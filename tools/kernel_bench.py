#!/usr/bin/env python
"""Microbenchmark of the conv and pooling kernels at the shapes a scan runs.

For each of the benchmark zoo's three architectures at 16 px with one input
channel (``basic_cnn``, the narrow ``basic_cnn`` with conv channels 4/8 and
hidden width 64, and ``vgg11`` with ``base_width=8``), records the
``conv2d`` / ``max_pool2d`` / ``avg_pool2d`` calls of one forward and
backward pass of the frozen model at 64 rows (the mega chunk size), with
each input in the memory order the model hands it over in.  Then it times
each distinct call on its own and prints the median milliseconds of the
forward, the input gradient and (convs only) the weight gradient.  The
gradient timings exclude the forward.  Last, it times USB's SSIM loss term
the same way: ``ssim_tensor`` over 64 grey 16 px rows at window 7, with the
clean side's statistics passed as ``x_stats`` and the gradient taken
towards the blended images, as each USB inversion step runs it.

Run with ``make kernel-bench`` or::

    PYTHONPATH=src python tools/kernel_bench.py [--repeats 7]

Each repeat times 20 back-to-back calls; the printed figure is the median
over repeats of the mean per call.  Set ``OPENBLAS_NUM_THREADS`` to pin the
BLAS pool when comparing two checkouts.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from typing import Callable, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.models import build_model  # noqa: E402
from repro.nn import Tensor  # noqa: E402
from repro.nn import functional as F  # noqa: E402
from repro.utils.ssim import ssim_tensor, ssim_x_stats  # noqa: E402

IMAGE_SIZE = 16
ROWS = 64
CALLS = 20
SSIM_WINDOW = 7
ARCHITECTURES = (
    ("basic_cnn", "basic_cnn", {}),
    ("narrow basic_cnn", "basic_cnn", {"conv_channels": [4, 8],
                                       "hidden_dim": 64}),
    ("vgg11 (base_width 8)", "vgg11", {"base_width": 8}),
)
#: (op, input shape, NHWC memory?, weight shape or window, stride, padding)
Call = Tuple[str, tuple, bool, object, int, int]


def _nhwc(x: Tensor) -> bool:
    """Whether ``x`` is an NCHW view of ``(N, H, W, C)`` memory."""
    return (x.data.transpose(0, 2, 3, 1).flags.c_contiguous
            and not x.data.flags.c_contiguous)


def record_calls(arch: str, kwargs: dict) -> List[Call]:
    """The distinct conv/pool calls of one frozen forward/backward pass."""
    model = build_model(arch, num_classes=10, in_channels=1,
                        image_size=IMAGE_SIZE, rng=np.random.default_rng(0),
                        **kwargs)
    model.eval()
    for param in model.parameters():
        param.requires_grad = False
    calls: List[Call] = []
    originals = {name: getattr(F, name)
                 for name in ("conv2d", "max_pool2d", "avg_pool2d")}

    def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
        calls.append(("conv2d", x.shape, _nhwc(x), weight.shape, stride,
                      padding))
        return originals["conv2d"](x, weight, bias, stride, padding, groups)

    def pool(name: str) -> Callable:
        def wrapped(x, kernel_size, stride=None):
            calls.append((name, x.shape, _nhwc(x), kernel_size,
                          stride or kernel_size, 0))
            return originals[name](x, kernel_size, stride)
        return wrapped

    F.conv2d = conv2d
    F.max_pool2d, F.avg_pool2d = pool("max_pool2d"), pool("avg_pool2d")
    try:
        x = Tensor(np.random.default_rng(1).random(
            (ROWS, 1, IMAGE_SIZE, IMAGE_SIZE)), requires_grad=True)
        model(x).sum().backward()
    finally:
        for name, fn in originals.items():
            setattr(F, name, fn)
    return list(dict.fromkeys(calls))


def median_ms(fn: Callable[[], object], repeats: int) -> float:
    """Median over ``repeats`` of the mean milliseconds per call."""
    fn()  # warm-up: first-touch allocations, BLAS thread start
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(CALLS):
            fn()
        samples.append((time.perf_counter() - start) / CALLS * 1e3)
    return statistics.median(samples)


def backward_step(out: Tensor, leaf: Tensor) -> Callable[[], None]:
    """One timed backward pass from ``out`` to ``leaf``, graph kept."""
    grad = np.random.default_rng(3).standard_normal(out.shape).astype(
        np.float32)

    def step() -> None:
        leaf.grad = out.grad = None
        out.backward(grad)
    return step


def time_call(call: Call, repeats: int) -> Tuple[float, float, Optional[float]]:
    """Forward, input-gradient and weight-gradient milliseconds of a call."""
    op, x_shape, nhwc, param, stride, padding = call
    rng = np.random.default_rng(2)
    x_data = rng.random(x_shape, dtype=np.float32)
    if nhwc:
        x_data = np.ascontiguousarray(x_data.transpose(0, 2, 3, 1)).transpose(
            0, 3, 1, 2)
    w_data = None
    if op == "conv2d":
        fan_in = int(np.prod(param[1:]))
        w_data = (rng.standard_normal(param) * np.sqrt(2.0 / fan_in)
                  ).astype(np.float32)

    def run(x_grad: bool, w_grad: bool
            ) -> Tuple[Tensor, Tensor, Optional[Tensor]]:
        x = Tensor(x_data, requires_grad=x_grad)
        if op != "conv2d":
            return getattr(F, op)(x, param, stride), x, None
        w = Tensor(w_data, requires_grad=w_grad)
        return F.conv2d(x, w, None, stride, padding), x, w

    forward = median_ms(lambda: run(False, False), repeats)
    out, x, _ = run(True, False)
    input_grad = median_ms(backward_step(out, x), repeats)
    weight_grad = None
    if op == "conv2d":
        out, _, w = run(False, True)
        weight_grad = median_ms(backward_step(out, w), repeats)
    return forward, input_grad, weight_grad


def time_ssim(repeats: int) -> Tuple[float, float]:
    """Forward and blended-side gradient milliseconds of USB's SSIM term."""
    rng = np.random.default_rng(4)
    shape = (ROWS, 1, IMAGE_SIZE, IMAGE_SIZE)
    clean = rng.random(shape, dtype=np.float32)
    blended = np.clip(clean + rng.normal(0, 0.1, shape), 0, 1).astype(
        np.float32)
    stats = ssim_x_stats(clean, SSIM_WINDOW)

    def run(grad: bool) -> Tuple[Tensor, Tensor]:
        y = Tensor(blended, requires_grad=grad)
        return ssim_tensor(Tensor(clean), y, window=SSIM_WINDOW,
                           x_stats=stats), y

    forward = median_ms(lambda: run(False), repeats)
    return forward, median_ms(backward_step(*run(True)), repeats)


def describe(call: Call) -> str:
    """A one-line label: op, input shape and weight shape or window."""
    op, x_shape, nhwc, param, stride, padding = call
    shape = "x".join(str(d) for d in x_shape) + (" nhwc" if nhwc else "")
    if op == "conv2d":
        weight = "x".join(str(d) for d in param)
        return f"conv2d {shape} * {weight} s{stride} p{padding}"
    return f"{op} {shape} k{param} s{stride}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed repeats per kernel (default 7)")
    args = parser.parse_args(argv)

    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"median ms per call over {args.repeats} repeat(s) of {CALLS} "
          f"calls at {ROWS} rows; OPENBLAS_NUM_THREADS={threads}")
    for label, arch, kwargs in ARCHITECTURES:
        print(f"\n{label}")
        print(f"  {'call':<44} {'forward':>8} {'in-grad':>8} {'w-grad':>8}")
        total = 0.0
        for call in record_calls(arch, kwargs):
            forward, input_grad, weight_grad = time_call(call, args.repeats)
            w_text = "-" if weight_grad is None else f"{weight_grad:.3f}"
            print(f"  {describe(call):<44} {forward:>8.3f} {input_grad:>8.3f} "
                  f"{w_text:>8}")
            total += forward + input_grad
        print(f"  {'scan step (forward + input grad, all calls)':<44} "
              f"{total:>8.3f}")

    forward, input_grad = time_ssim(args.repeats)
    label = (f"ssim_tensor {ROWS}x1x{IMAGE_SIZE}x{IMAGE_SIZE} "
             f"w{SSIM_WINDOW} x_stats")
    print("\nUSB loss (SSIM term)")
    print(f"  {'call':<44} {'forward':>8} {'in-grad':>8}")
    print(f"  {label:<44} {forward:>8.3f} {input_grad:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
