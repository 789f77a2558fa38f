"""
Reverse-mode gradients on numpy arrays
======================================

A quick tour of the Tensor wrapper: build an expression, call backward,
and compare the result with a derivative worked out by hand.
"""

import numpy as np

from casep.tensor import Tensor, frames, overlap_sum

# y = sum(w * x + b) with w = [1, 2, 3]
w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
b = Tensor(np.array([0.5, 0.5, 0.5]), requires_grad=True)
x = np.array([4.0, 5.0, 6.0])

y = (w * x + b).sum()
y.backward()

print("value          ", y.item())
print("dy/dw (== x)   ", w.grad)
print("dy/db (== ones)", b.grad)

# The same machinery differentiates through framing, the op the encoder,
# the decoder and the chunking stage are built on. frames cuts axis -2 of
# a (..., rows, channels) signal into strided windows (zeros past the
# end); overlap_sum adds windows back at their offsets. Each is the
# other's adjoint, so these two inner products agree to machine
# precision, and each is the other's backward.
rng = np.random.default_rng(0)
signal = Tensor(rng.standard_normal((16, 3)), requires_grad=True)
probe = rng.standard_normal((7, 4, 3))       # 7 windows of 4 rows, hop 2

windows = frames(signal, size=4, hop=2, count=7)
forward = (windows * Tensor(probe)).sum()
adjoint = (signal * overlap_sum(Tensor(probe), hop=2, length=16)).sum().item()
print("framed inner product      ", forward.item())
print("overlap-summed product    ", adjoint)
print("difference                ", abs(forward.item() - adjoint))

forward.backward()
print("grad == overlap_sum(probe)",
      np.array_equal(signal.grad, overlap_sum(Tensor(probe), 2, 16).data))
