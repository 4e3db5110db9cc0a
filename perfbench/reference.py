"""Reference values computed apart from eplab.

Everything here reads the family preset JSON directly and uses plain numpy,
so a fault in eplab's own algebra cannot hide in the checks:

    H(s, d) = (fc - i gamma0) I + sigma . (g + i m),
    g(s, d) = g0 + gs (s - s*) + gd (d - d*),

with sigma . v = [[v3, v1 - i v2], [v1 + i v2, -v3]]. Eigenvalues come from
numpy.linalg.eigvals, never from eplab.core.
"""

import json
from pathlib import Path

import numpy as np


class Reference:
    """Closed-form truth of one family preset."""

    def __init__(self, preset_path):
        doc = json.loads(Path(preset_path).read_text())
        self.name = doc["name"]
        self.fc = float(doc["fc_mhz"])
        self.gamma0 = float(doc["gamma0_mhz"])
        self.ep = (float(doc["ep"]["s_mm"]), float(doc["ep"]["delta_mm"]))
        self.g0 = np.array(doc["g0"], dtype=float)
        self.gs = np.array(doc["gs"], dtype=float)
        self.gd = np.array(doc["gd"], dtype=float)
        self.m = np.array(doc["m"], dtype=float)
        self.w_antenna = np.array(doc["w"], dtype=float)[:2]
        spec = doc["spectrum"]
        self.spectrum = (float(spec["f_center_mhz"]), float(spec["span_mhz"]),
                         float(spec["step_mhz"]))

    def pauli(self, s, d):
        """Real and imaginary Pauli vectors (g, m), shape (n, 3) each."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        d = np.atleast_1d(np.asarray(d, dtype=float))
        g = (self.g0[None, :] + np.outer(s - self.ep[0], self.gs)
             + np.outer(d - self.ep[1], self.gd))
        return g, np.broadcast_to(self.m, g.shape)

    def matrices(self, s, d):
        """Dense effective Hamiltonians, shape (n, 2, 2)."""
        g, m = self.pauli(s, d)
        v = g + 1j * m
        mean = complex(self.fc, -self.gamma0)
        out = np.empty((v.shape[0], 2, 2), dtype=complex)
        out[:, 0, 0] = mean + v[:, 2]
        out[:, 1, 1] = mean - v[:, 2]
        out[:, 0, 1] = v[:, 0] - 1j * v[:, 1]
        out[:, 1, 0] = v[:, 0] + 1j * v[:, 1]
        return out

    def eigenvalues(self, s, d):
        """Eigenvalue pairs, shape (n, 2), in no particular order."""
        return np.linalg.eigvals(self.matrices(s, d))

    def contour_residual(self, s, d):
        """|Re h . Im h| / (|Re h|^2 + |Im h|^2) at each point."""
        g, m = self.pauli(s, d)
        return np.abs(np.sum(g * m, axis=1)) / (
            np.sum(g * g, axis=1) + np.sum(m * m, axis=1))

    def fit_params(self, s, d):
        """The 12 fit parameters that reproduce the noiseless spectrum."""
        h = self.matrices(s, d)[0]
        h1 = 0.5 * (h[1, 0] + h[0, 1])
        h2 = -0.5j * (h[1, 0] - h[0, 1])
        e1, e2 = h[0, 0], h[1, 1]
        w = self.w_antenna
        return np.array([e1.real, e1.imag, e2.real, e2.imag,
                         h1.real, h1.imag, h2.real, h2.imag,
                         w[0, 0], w[0, 1], w[1, 0], w[1, 1]])


def dense(e1, e2, h1, h2):
    """Dense 2x2 matrix of Pauli-form entries, built without eplab."""
    return np.array([[e1, h1 - 1j * h2], [h1 + 1j * h2, e2]], dtype=complex)


def paired_error(found, truth):
    """Max distance of two eigenvalue pairs under the better pairing."""
    a1, a2 = found
    b1, b2 = truth
    return min(max(abs(a1 - b1), abs(a2 - b2)),
               max(abs(a1 - b2), abs(a2 - b1)))


def poles(f1, g1, f2, g2):
    """Eigenvalue pair E = f - i g/2 from a scan-schema row."""
    return (complex(f1, -0.5 * g1), complex(f2, -0.5 * g2))
