"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: trace
distances come from numpy's eigensolver on dense matrices, and measurement
statistics are enumerated with plain dictionary arithmetic, and random
unitaries are checked against a Gram-Schmidt reference.
"""

import numpy as np

from qseal.states import Ensemble, LocalUnitary, SparseState

B_POOL = [f"b{i}" for i in range(6)]
C_POOL = [f"c{i}" for i in range(6)]


def random_state(seed, b_pool=None, c_pool=None, support=None):
    """Seeded random sparse state over a small label pool."""
    rng = np.random.default_rng(seed)
    b_pool = b_pool or B_POOL
    c_pool = c_pool or C_POOL
    keys = [(b, c) for b in b_pool for c in c_pool]
    if support is None:
        support = int(rng.integers(1, len(keys) + 1))
    chosen = rng.choice(len(keys), size=support, replace=False)
    vec = rng.normal(size=support) + 1j * rng.normal(size=support)
    vec /= np.linalg.norm(vec)
    return SparseState({keys[i]: complex(a) for i, a in zip(chosen, vec)})


def random_ensemble(seed, members=3, **kwargs):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(members))
    states = [random_state(seed * 977 + 13 * i + 1, **kwargs) for i in range(members)]
    return Ensemble(tuple((float(w), s) for w, s in zip(weights, states)))


def dense_trace_distance(psi, sigma):
    """Oracle: half the nuclear norm of the dense difference, via numpy."""
    keys = sorted(set(psi.amps) | {k for _, m in sigma.members for k in m.amps})
    index = {k: i for i, k in enumerate(keys)}

    def vec(state):
        v = np.zeros(len(keys), dtype=complex)
        for k, a in state.amps.items():
            v[index[k]] = a
        return v

    v = vec(psi)
    diff = np.outer(v, v.conj())
    for q, member in sigma.members:
        w = vec(member)
        diff -= q * np.outer(w, w.conj())
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def enumerate_basis_readout(amps):
    """Oracle: per-C-label collapse statistics from raw dictionary arithmetic.

    Returns {c_label: (probability, acceptance)} where acceptance is the
    squared overlap between the renormalized branch and the original state.
    """
    by_c = {}
    for (b, c), a in amps.items():
        by_c.setdefault(c, {})[(b, c)] = a
    out = {}
    for c, branch in by_c.items():
        prob = sum(abs(a) ** 2 for a in branch.values())
        overlap = sum(amps[k].conjugate() * a for k, a in branch.items()) / prob**0.5
        out[c] = (prob, abs(overlap) ** 2)
    return out


def max_abs_diff(a, b):
    """Largest amplitude-wise deviation between two sparse states."""
    keys = set(a.amps) | set(b.amps)
    return max(abs(a.amps.get(k, 0.0) - b.amps.get(k, 0.0)) for k in keys)


def b_weights(state):
    """Probability of each B label under a computational-basis readout."""
    weights = {}
    for (b, _), a in state.amps.items():
        weights[b] = weights.get(b, 0.0) + abs(a) ** 2
    return weights


def identity_unitary(labels):
    labels = tuple(labels)
    return LocalUnitary(labels, np.eye(len(labels), dtype=np.complex128))


def gram_schmidt_unitary(n, rng):
    """Reference: Gram-Schmidt, applied twice per column, on the complex
    Gaussian draw ``random_unitary`` makes; R's diagonal comes out positive."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = np.zeros_like(m)
    for j in range(n):
        v = m[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= (q[:, i].conj() @ v) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    return q
