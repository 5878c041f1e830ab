"""Independent brute-force oracles used to pin expected values.

Everything here is written with explicit Python loops and scalar math so it
shares no code path with the package: dense per-pair swap matrices multiplied
step by step, naive loss summations, exhaustive k-NN voting.
"""

import cmath
import math

import numpy as np


def oracle_f(x, beta):
    return math.atan(beta * x) / math.pi + 0.5


def matmul_loops(a, b):
    n, m = len(a), len(b[0])
    inner = len(b)
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def matvec_loops(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def oracle_swap_matrix(n, i, j, d_i, d_j, beta):
    m = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
    m[i][i] = m[j][j] = oracle_f(d_j - d_i, beta)
    m[i][j] = m[j][i] = oracle_f(d_i - d_j, beta)
    return m


def oracle_step_pairs(n, step):
    start = 0 if step % 2 == 1 else 1
    return [(i, i + 1) for i in range(start, n - 1, 2)]


def oracle_step_matrix(values, step, beta):
    n = len(values)
    m = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
    for i, j in oracle_step_pairs(n, step):
        m = matmul_loops(oracle_swap_matrix(n, i, j, values[i], values[j], beta), m)
    return m


def oracle_diff_sort(values, beta):
    """Dense step-matrix product; swap probabilities from the running values."""
    values = [float(v) for v in values]
    n = len(values)
    p_total = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
    v = list(values)
    for step in range(1, n + 1):
        p_step = oracle_step_matrix(v, step, beta)
        p_total = matmul_loops(p_step, p_total)
        v = matvec_loops(p_step, v)
    return np.array(v), np.array(p_total)


def oracle_border_mass(values, k, beta):
    """Column sums of the first k rows of the dense step-matrix product P of
    `oracle_diff_sort`, each swap probability from `cmath.atan`, so complex
    values give the complex-step derivative: Im f(x + ih) / h."""
    v = [complex(x) for x in values]
    n = len(v)
    p_total = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
    for step in range(1, n + 1):
        p_step = [[1.0 if r == c else 0.0 for c in range(n)] for r in range(n)]
        for i, j in oracle_step_pairs(n, step):
            p_step[i][i] = p_step[j][j] = cmath.atan(beta * (v[j] - v[i])) / math.pi + 0.5
            p_step[i][j] = p_step[j][i] = cmath.atan(beta * (v[i] - v[j])) / math.pi + 0.5
        p_total = matmul_loops(p_step, p_total)
        v = matvec_loops(p_step, v)
    return [sum(p_total[r][c] for r in range(k)) for c in range(n)]


def oracle_bce(p, q, eps=1e-7):
    pt = min(max(p, eps), 1.0 - eps)
    return -(q * math.log(pt) + (1.0 - q) * math.log(1.0 - pt))


def oracle_groco(d_pos, d_neg, beta):
    """Direct border-crossing loss over the dense permutation of the
    concatenated groups."""
    d = list(d_pos) + list(d_neg)
    k, n = len(d_pos), len(d_pos) + len(d_neg)
    _, p = oracle_diff_sort(d, beta)
    total = 0.0
    for i in range(n):
        pos_mass = sum(p[r][i] for r in range(k))
        neg_mass = sum(p[r][i] for r in range(k, n))
        total += oracle_bce(pos_mass, 1.0 if i < k else 0.0)
        total += oracle_bce(neg_mass, 0.0 if i < k else 1.0)
    return total / (2.0 * n)


def oracle_sorting_supervision(p, q, eps=1e-7):
    n = len(q)
    return sum(oracle_bce(p[i][j], q[i][j], eps) for i in range(n) for j in range(n)) / (n * n)


def oracle_infonce(d_pos, d_neg, tau):
    """Naive direct summation, no max-shift."""
    total = 0.0
    for dp in d_pos:
        denom = math.exp(-dp / tau) + sum(math.exp(-dn / tau) for dn in d_neg)
        total += -math.log(math.exp(-dp / tau) / denom)
    return total / len(d_pos)


def oracle_triplet(d_pos, d_neg, margin):
    total = 0.0
    for dp in d_pos:
        for dn in d_neg:
            if math.isinf(margin):
                total += dp - dn
            else:
                total += max(dp - dn + margin, 0.0)
    return total / (len(d_pos) * len(d_neg))


def oracle_knn_predict(train, labels, query, k, weight_tau):
    """Exhaustive weighted vote with explicit tie rules."""
    q = np.asarray(query, float)
    q = q / math.sqrt(float(q @ q))
    sims = []
    for row in np.asarray(train, float):
        r = row / math.sqrt(float(row @ row))
        sims.append(float(r @ q))
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
    votes = {}
    for i in order:
        votes[int(labels[i])] = votes.get(int(labels[i]), 0.0) + math.exp(sims[i] / weight_tau)
    best = max(sorted(votes), key=lambda c: votes[c])
    for c in sorted(votes):  # smallest class id wins exact ties
        if votes[c] == votes[best]:
            return c
    return best


def central_difference(fn, point, h=1e-6):
    point = np.asarray(point, float)
    grad = np.zeros_like(point)
    for i in range(point.size):
        up = point.copy()
        up[i] += h
        down = point.copy()
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad
