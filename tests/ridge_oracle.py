"""Reference ridge regression: the moments, the elimination and the dot
products of `adaptls.date_ranking`, written out as plain loops.

Every sum runs left to right from 0.0, in the order the module promises:
a block's moments over its rows in order, the training blocks in order,
then the penalty on the weights' diagonal.  The tests hold
`train_regressor` and `score_dates` to these loops bit for bit.
"""

from adaptls.errors import SingularSystem

N = 10  # 9 features and the bias


def moments(rows, targets):
    """A^T A and A^T y of A = [rows | 1], accumulated row by row."""
    gram = [[0.0] * N for _ in range(N)]
    rhs = [0.0] * N
    for row, target in zip(rows, targets):
        a = list(row) + [1.0]
        for i in range(N):
            for j in range(N):
                gram[i][j] += a[i] * a[j]
            rhs[i] += a[i] * target
    return gram, rhs


def solve(gram, rhs):
    """x with gram x = rhs: elimination with partial pivoting, then back substitution."""
    a = [list(row) for row in gram]
    b = list(rhs)
    for p in range(N):
        best = p
        for r in range(p + 1, N):
            if abs(a[r][p]) > abs(a[best][p]):
                best = r
        if a[best][p] == 0.0:
            raise SingularSystem(f"zero pivot in column {p}")
        a[p], a[best] = a[best], a[p]
        b[p], b[best] = b[best], b[p]
        for r in range(p + 1, N):
            factor = a[r][p] / a[p][p]
            for c in range(p + 1, N):
                a[r][c] -= factor * a[p][c]
            b[r] -= factor * b[p]
    x = [0.0] * N
    for i in range(N - 1, -1, -1):
        acc = 0.0
        for j in range(i + 1, N):
            acc += a[i][j] * x[j]
        x[i] = (b[i] - acc) / a[i][i]
    return x


def train(blocks, l2_lambda):
    """(weights, bias) fitted on the moments `blocks`, added in order."""
    gram = [[0.0] * N for _ in range(N)]
    rhs = [0.0] * N
    for block_gram, block_rhs in blocks:
        for i in range(N):
            for j in range(N):
                gram[i][j] += block_gram[i][j]
            rhs[i] += block_rhs[i]
    for i in range(N - 1):
        gram[i][i] += l2_lambda
    x = solve(gram, rhs)
    return x[: N - 1], x[N - 1]


def predict(weights, bias, rows):
    """Each row's products with `weights` added left to right, then the bias."""
    scores = []
    for row in rows:
        acc = 0.0
        for i in range(N - 1):
            acc += row[i] * weights[i]
        scores.append(acc + bias)
    return scores
