"""Tour of the tape: record a forward pass, pull gradients back out.

Everything in this package runs on a small define-by-run autodiff core
over float64 numpy arrays. This script builds a two-layer network by
hand, checks one gradient against finite differences, and takes a few
Adam steps on a toy least-squares problem.
"""

import numpy as np

from cral.nn import Adam, MlpSpec, draw_dropout_masks, init_params, mlp_forward
from cral.tensor import Tape, Tensor, backward, linear, mul, relu
from cral.tensor import sum as total

rng = np.random.default_rng(0)

# --- recording a computation -------------------------------------------

tape = Tape()
w = tape.leaf(rng.standard_normal((2, 3)))  # (out, in), as a layer stores it
x = Tensor(rng.standard_normal((4, 3)))  # constants do not get nodes
b = Tensor(np.zeros(2))
loss = total(mul(relu(linear(x, w, b)), relu(linear(x, w, b))))
grads = backward(loss)
print("loss                 ", f"{loss.item():.6f}")
print("dloss/dw[1,0] (tape) ", f"{grads.wrt(w)[1, 0]:+.8f}")

# same thing by central differences
h = 1e-6
w_plus, w_minus = w.data.copy(), w.data.copy()
w_plus[1, 0] += h
w_minus[1, 0] -= h


def f(w_value):
    y = np.maximum(x.data @ w_value.T, 0.0)
    return float(np.sum(y * y))


print("dloss/dw[1,0] (fd)   ", f"{(f(w_plus) - f(w_minus)) / (2 * h):+.8f}")

# --- a real layer stack -------------------------------------------------

spec = MlpSpec(input_dim=3, hidden_dims=(8,), output_dim=2, dropout_rate=0.5)
mlp = init_params(spec, np.random.default_rng(1), name="demo")
print("\nparameters:", [p.name for p in mlp.params()])

# dropout masks are data: draw them from their own rng and pass them in;
# without masks the forward runs without dropout (eval mode)
masks = draw_dropout_masks(mlp, x.shape[0], np.random.default_rng(2))
out_train = mlp_forward(Tape(), mlp, Tensor(x.data), masks)
out_eval = mlp_forward(Tape(), mlp, Tensor(x.data))
print("train-mode output differs from eval:",
      bool(np.any(out_train.data != out_eval.data)))

# --- optimizing with Adam ----------------------------------------------

target = rng.standard_normal((4, 2))
adam = Adam(mlp.params(), lr=0.05)
for step in range(1, 201):
    tape = Tape()
    out = mlp_forward(tape, mlp, Tensor(x.data))
    err = out - Tensor(target)
    loss = total(mul(err, err))
    adam.step(backward(loss))
    if step in (1, 10, 50, 200):
        print(f"step {step:3d}  squared error {loss.item():.6f}")
