"""The dense interface map K of one window, a test oracle.

On a homogeneous problem (f = 0, u(t_a) = 0) a Jacobi sweep maps the
data g of every directed pair linearly to new data, g' = K g.  Each
column of K is one sweep's marches from one unit data coefficient,
exchanged here by the formula of the `oswr.driver` docstring,

    g'(i<-j) = P_ij [ -M_x Q_j + T_x u_j + q_ij d/dt(I_j M_x u_j) ],

with i's interface record, so that K checks `transmission_update` as
well as the loop of `iterate`.  K acts on x = sqrt(gram) g, pairs in
`md.pairs` order, in which the 2-norm of a pair's slice is the
`InterfaceTrace.norm` of its data.
"""

import numpy as np

import oswr.driver as drv
from oswr.timeproject import apply_projection


def _exchange(md, win, i, j, traj, flux):
    ia, nodes = md.assemblies[i].iface[j], md.assemblies[j].iface[i].nodes
    U = traj.coeffs[:, :, nodes]
    W = drv._apply_rows(ia.M_x, U)
    rate = drv._lift_rate_window(W, np.zeros(W.shape[-1]), win.partitions[j].lengths)
    g = drv._apply_rows(ia.T_x, U) - drv._apply_rows(ia.M_x, flux[i]) + ia.q * rate
    return apply_projection(win.projections[(i, j)], g)


def interface_map(md, win):
    """(K, weigh, slices): K of the window `win` of a homogeneous `md`,
    `weigh(traces)` the x of a dict of data, and each pair's slice of x."""
    u0 = {sid: np.zeros(asm.n_dofs) for sid, asm in md.assemblies.items()}
    basis = drv.initial_guess("zero", md, win, u0)
    sqrt_gram = {pair: np.sqrt(tr.partition.gram(tr.coeffs.shape[1] - 1))[:, :, None]
                 for pair, tr in basis.items()}
    ends = np.cumsum([basis[pair].coeffs.size for pair in md.pairs])
    slices = [slice(end - basis[pair].coeffs.size, end) for pair, end in zip(md.pairs, ends)]

    def weigh(traces):
        return np.concatenate([(sqrt_gram[pair] * traces[pair].coeffs).ravel()
                               for pair in md.pairs])

    K = np.zeros((ends[-1], ends[-1]))
    for col in range(ends[-1]):
        x = np.zeros(ends[-1])
        x[col] = 1.0
        for pair, s in zip(md.pairs, slices):
            basis[pair].coeffs[...] = x[s].reshape(basis[pair].coeffs.shape) / sqrt_gram[pair]
        trajectories, fluxes, _ = drv.sweep(md, win, basis, u0)
        K[:, col] = np.concatenate([
            (sqrt_gram[(i, j)] * _exchange(md, win, i, j, trajectories[j], fluxes[j])).ravel()
            for (i, j) in md.pairs])
    return K, weigh, slices
