"""Sample symmetric alpha-stable paths two ways and compare their sup norms.

The increment sampler draws exact marginals step by step; the jump sampler
resolves every jump above a cutoff and replaces the rest with a Gaussian
proxy.  Both target the same law, so quantiles of sup |X| should agree.
"""

import numpy as np

from stable_smallball import AlphaStableParams, RngStream
from stable_smallball.simulate import sample_jump_batch, sample_stable_batch


def main(alpha=1.5, n_paths=4000, n_steps=512, eps=0.05, seed=11):
    params = AlphaStableParams(alpha)
    rng = RngStream(seed)

    inc = sample_stable_batch(params, n_paths, n_steps, rng.child(0))
    jmp = sample_jump_batch(params, eps, n_paths, n_steps, rng.child(1))
    sup_inc = np.max(np.abs(inc.values), axis=1)
    sup_jmp = np.max(np.abs(jmp.values), axis=1)

    print(f"alpha = {alpha}, {n_paths} paths, {n_steps} steps, jump cutoff {eps}")
    print(f"{'quantile':>10s} {'increments':>12s} {'jumps':>12s}")
    for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        a = np.quantile(sup_inc, q)
        b = np.quantile(sup_jmp, q)
        print(f"{q:>10.2f} {a:>12.4f} {b:>12.4f}")

    path = sample_jump_batch(params, eps, 1, n_steps, rng.child(2))
    big = np.abs(path.jump_sizes) > 0.5
    print(f"\none jump-resolved path: {path.jump_times.size} jumps above {eps},"
          f" {int(big.sum())} above 0.5, largest {np.max(np.abs(path.jump_sizes)):.3f}")
    print(f"endpoint {path.values[0, -1]:+.4f}, sup {np.max(np.abs(path.values)):.4f}")


if __name__ == "__main__":
    main()
