"""Independent reference values and the checks that compare ops against them.

Built with numpy/scipy from the generated input arrays, never from
fjopinion's ``Graph`` or solver: duplicate pairs are summed, self-loops
dropped, and z = (L+K)^{-1} K s is solved tightly (Jacobi-scaled CG at scale,
dense LAPACK on the small instances).  Centering is linear, so the centered
equilibrium is z - c for c = (k.s) / sum(k) and needs no second solve.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

METRICS = ("conflict", "disagreement", "polarization", "pd_index")

# Slack for the reference's own rounding in the two absolute checks.
RHO_SLACK = 1e-12
F_SLACK = 1e-10


def configuration_model(n, degree, seed):
    """The stub pairing ``fjopinion.generate.random_regular_graph`` draws."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), degree)
    rng.shuffle(stubs)
    u, v = stubs[0::2], stubs[1::2]
    return u, v, np.ones(u.size)


class System:
    """L + K of a graph given as raw (u, v, w) arrays over nodes 0..n-1."""

    def __init__(self, n, u, v, w, k):
        keep = u != v
        lo = np.minimum(u[keep], v[keep])
        hi = np.maximum(u[keep], v[keep])
        upper = sp.coo_matrix((w[keep], (lo, hi)), shape=(n, n)).tocsr()
        upper.sum_duplicates()
        self.n, self.m = n, upper.nnz
        self.upper = upper.tocoo()
        adj = (upper + upper.T).tocsr()
        self.adj = adj
        self.degrees = np.asarray(adj.sum(axis=1)).ravel()
        self.k = np.asarray(k, dtype=np.float64)
        self.matrix = (sp.diags(self.degrees + self.k) - adj).tocsr()

    def metrics(self, z, s):
        dz = z[self.upper.row] - z[self.upper.col]
        out = {
            "conflict": float(self.k @ (z - s) ** 2),
            "disagreement": float(self.upper.data @ dz**2),
            "polarization": float(self.k @ z**2),
        }
        out["pd_index"] = out["polarization"] + out["disagreement"]
        out["budget"] = float(self.k @ s**2)
        return out

    def solutions(self, z, s):
        """Reference metrics for s as given and for s centered."""
        c = float(self.k @ s) / float(self.k.sum())
        return {"raw": self.metrics(z, s), "centered": self.metrics(z - c, s - c)}

    def solve_tight(self, rhs):
        """CG on every column of ``rhs`` to a relative residual of 1e-14.

        Runs on D^-1/2 (L+K) D^-1/2, the Jacobi-scaled system, so each
        iteration is one sparse product over all columns plus a few updates.
        """
        d = 1.0 / np.sqrt(self.matrix.diagonal())
        scaled = (sp.diags(d) @ self.matrix @ sp.diags(d)).tocsr()
        b = d[:, None] * np.asarray(rhs, dtype=np.float64).reshape(self.n, -1)
        y = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = np.einsum("ij,ij->j", r, r)
        target = 1e-28 * rr
        for _ in range(10 * int(np.sqrt(self.n)) + 1000):
            tp = scaled @ p
            alpha = rr / np.einsum("ij,ij->j", p, tp)
            y += alpha * p
            r -= alpha * tp
            rr_new = np.einsum("ij,ij->j", r, r)
            if np.all(rr_new <= target):
                break
            p *= rr_new / rr
            p += r
            rr = rr_new
        x = d[:, None] * y
        full = np.asarray(rhs, dtype=np.float64).reshape(self.n, -1)
        true = np.linalg.norm(full - self.matrix @ x, axis=0) / np.linalg.norm(full, axis=0)
        if np.any(true > 1e-12):
            raise RuntimeError(f"reference solve reached only relative residual {true.max():.2e}")
        return x

    def solve_dense(self, rhs):
        return np.linalg.solve(self.matrix.toarray(), rhs)

    def rho_dense(self):
        """Largest eigenvalue of Q^1/2 A Q^1/2, Q = (K + D)^-1: rho(QA)."""
        q = 1.0 / np.sqrt(self.k + self.degrees)
        sym = (q[:, None] * self.adj.toarray()) * q[None, :]
        return float(sla.eigh(sym, subset_by_index=[self.n - 1, self.n - 1], eigvals_only=True)[0])

    def rho_path(self):
        """The same eigenvalue for a path 0-1-...-(n-1): a tridiagonal solve."""
        q = 1.0 / np.sqrt(self.k + self.degrees)
        off = np.asarray(self.adj.diagonal(1)) * q[:-1] * q[1:]
        return float(sla.eigvalsh_tridiagonal(np.zeros(self.n), off, select="i",
                                              select_range=(self.n - 1, self.n - 1))[0])


def check_report(report, ref, n, m, eps):
    """Failures of one MetricsReport dict against the reference, and its max error."""
    fails = []
    if report["n"] != n or report["m"] != m:
        fails.append(f"loaded n={report['n']} m={report['m']}, expected n={n} m={m}")
    want = ref["centered"] if report["centered"] else ref["raw"]
    worst = 0.0
    for key in METRICS:
        rel = abs(report[key] - want[key]) / abs(want[key])
        worst = max(worst, rel)
        if not rel <= eps:
            fails.append(f"{key} {report[key]!r} vs reference {want[key]!r}: rel err {rel:.2e} > {eps}")
    law = report["conflict"] + 2 * report["disagreement"] + report["polarization"]
    rel = abs(law - want["budget"]) / want["budget"]
    if not rel <= eps:
        fails.append(f"conservation C+2D+P off by {rel:.2e} relative > {eps}")
    return fails, worst


def check_spectral(est, rho_ref):
    gap = abs(est["rho_max"] - rho_ref)
    if not gap <= est["residual"] + RHO_SLACK:
        return [f"rho_max {est['rho_max']!r} vs reference {rho_ref!r}: "
                f"gap {gap:.2e} > residual {est['residual']:.2e}"]
    return []


def check_simulation(sim, z_final, system, z_ref, eps):
    fails = []
    if not sim["f_final"] <= eps:
        fails.append(f"simulate_until reported |f| = {sim['f_final']:.3e} > {eps}")
    f_ref = float(np.linalg.norm(np.sqrt(system.k + system.degrees) * (z_final - z_ref)))
    if not f_ref <= eps + F_SLACK:
        fails.append(f"final |f| against the reference equilibrium {f_ref:.3e} > {eps}")
    return fails
