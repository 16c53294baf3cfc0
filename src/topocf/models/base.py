"""Shared training machinery: configs, optimizer, early stopping,
and the one Trainer that runs every model.

Every model's loss is a sum of sigmoid terms over sampled node pairs, so a
model supplies only the map from its parameters P to node embeddings E,
the adjoint of that map, and a batch's loss and gradient in E. LightGCN,
DGCF and SVD-GCN list the batch's pairs with each pair's loss slope and
``pair_gradient`` multiplies those (row, col, slope) triples into that
gradient as they stand, by ``topocf.csr``'s COO kernel, so a training step
builds no sparse matrix; UltraGCN scores and scatters its pairs on one
dense user x item block. Propagation is ``topocf.csr``'s ``spmm`` on
operators built once per model. Every product writes into a given table.

A training step allocates no table of its size: every node x dim array it
makes (propagation layers, gathered batch rows, the pair gradient) is
written into a buffer that the model allocates at its first step and keeps
until ``release``. An array allocated and freed at every step goes back to
the system and is page-faulted in again at the next.

Every parameter, embedding, buffer, operator value and Adam moment is of
one dtype, ``DTYPE``: float32, the default at which the reference code of
LightGCN and UltraGCN trains. It halves the memory and the memory traffic
of every table and product against float64. UltraGCN's degree factors and
co-occurrence weights are computed in float64 and cast once. The initial
parameters (in blocks of rows) and SVD-GCN's features (users, then items)
are computed in float64 too, but cast as they are written into their
``DTYPE`` table, so that no float64 copy of a node x dim table is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..csr import coo_matmul_add, spmm
from ..evaluation import evaluate


# the dtype of every model's parameters, embeddings, buffers and operators
DTYPE = np.float32


class TrainingDivergedError(Exception):
    pass


def least(default, bound):
    """A config field whose values below ``bound`` the config rejects."""
    return field(default=default, metadata={"least": bound})


def check_bounds(cfg):
    """Raise ValueError for a field of ``cfg`` below its ``least`` bound."""
    for f in fields(cfg):
        bound, value = f.metadata.get("least"), getattr(cfg, f.name)
        if bound is not None and not value >= bound:  # NaN fails too
            raise ValueError(f"{f.name} must be >= {bound}, got {value}")


@dataclass(frozen=True)
class ModelConfig:
    """The settings every model kind reads; the subclass of each ``kind``
    adds its own. Construction rejects a value that would fail every cell."""

    embedding_dim: int = least(64, 1)
    learning_rate: float = 1e-3     # must be > 0
    l2_weight: float = least(1e-4, 0)
    batch_size: int = least(1024, 1)
    max_epochs: int = least(200, 1)
    patience: int = least(5, 1)
    eval_interval: int = least(5, 1)

    def __post_init__(self):
        check_bounds(self)
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got "
                             f"{self.learning_rate}")


@dataclass(frozen=True)
class LightGCNConfig(ModelConfig):
    kind = "lightgcn"
    layers: int = least(3, 0)


@dataclass(frozen=True)
class DGCFConfig(ModelConfig):
    kind = "dgcf"
    layers: int = least(3, 0)
    intents: int = least(4, 1)
    routing_iterations: int = least(2, 0)

    def __post_init__(self):
        super().__post_init__()
        if self.embedding_dim % self.intents:
            raise ValueError(f"embedding_dim {self.embedding_dim} is not "
                             f"divisible by intents {self.intents}")


@dataclass(frozen=True)
class UltraGCNConfig(ModelConfig):
    kind = "ultragcn"
    batch_size: int = least(256, 1)             # UltraGCN's own (Mao et al.),
    negatives: int = least(300, 1)              # as are 300 negatives
    item_topk: int = least(10, 1)               # co-occurrence neighbors
    item_loss_weight: float = least(1.0, 0)     # lambda_I


@dataclass(frozen=True)
class SvdGcnConfig(ModelConfig):
    kind = "svdgcn"
    svd_rank: int = least(64, 1)
    a1: float = 1.0                 # spectrum sharpening
    a2: float = least(2.0, 0)       # degree damping


MODEL_CONFIGS = {cls.kind: cls for cls in (LightGCNConfig, DGCFConfig,
                                           UltraGCNConfig, SvdGcnConfig)}
MODEL_KINDS = tuple(MODEL_CONFIGS)


@dataclass
class TrainedModel:
    user_embeddings: np.ndarray
    item_embeddings: np.ndarray
    extras: dict = field(default_factory=dict)
    epochs_trained: int = 0
    stopped_early: bool = False
    best_epoch: int = 0


ADAM_BLOCK = 32768  # elements per array in one block: 128 KiB of DTYPE


class Adam:
    """Adaptive-moment estimation with the standard constants beta1, beta2
    and eps, on the gradient plus the L2 term ``l2 * param``.

    ``step`` updates param, m and v in place and allocates nothing. It
    walks them and the gradient as flat views, ``ADAM_BLOCK`` elements at
    a time, so that the block's operands stay in cache between its
    operations; its scratch is two blocks. Every operation is elementwise,
    so the blocks change no bit of the result.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, shape, lr, l2=0.0):
        self.lr = lr
        self.l2 = l2
        self.m = np.zeros(shape, DTYPE)
        self.v = np.zeros(shape, DTYPE)
        self.t = 0
        self.scratch = np.empty((2, min(self.m.size, ADAM_BLOCK)), DTYPE)

    def step(self, param, grad):
        """param -= lr * m_hat / (sqrt(v_hat) + eps), with the operands of
        every product and quotient in that order. param and grad are
        C-contiguous, so that their flat views are not copies."""
        if not (param.flags.c_contiguous and grad.flags.c_contiguous):
            raise ValueError("Adam.step needs C-contiguous param and grad")
        self.t += 1
        m_bias = 1 - self.beta1 ** self.t
        v_bias = 1 - self.beta2 ** self.t
        flat = [x.reshape(-1) for x in (param, grad, self.m, self.v)]
        for start in range(0, param.size, ADAM_BLOCK):
            p, g, m, v = (x[start:start + ADAM_BLOCK] for x in flat)
            a, b = (x[:len(p)] for x in self.scratch)
            np.multiply(self.l2, p, out=a)
            a += g
            np.multiply(1 - self.beta1, a, out=b)
            m *= self.beta1
            m += b
            np.multiply(1 - self.beta2, a, out=b)
            b *= a
            v *= self.beta2
            v += b
            np.divide(v, v_bias, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, m_bias, out=b)
            b *= self.lr
            b /= a
            p -= b


def normal_init(rng, rows, dim):
    """A (rows x dim) ``DTYPE`` parameter matrix drawn from N(0, 0.1^2), as
    every model starts: drawn in float64, so that the rng stream does not
    depend on the dtype, and cast into the table in blocks of whole rows, at
    most ``ADAM_BLOCK`` values each. The generator draws one value at a
    time, so the blocks change neither the values nor the stream."""
    P = np.empty((rows, dim), DTYPE)
    step = max(1, ADAM_BLOCK // dim)
    for start in range(0, rows, step):
        block = P[start:start + step]
        block[...] = rng.normal(0.0, 0.1, size=block.shape)
    return P


def sample_negative_items(rng, users, split):
    """One uniform negative item per row, resampled on collision with the
    user's train positives (skipped for users with a full positive set)."""
    num_items = split.graph.num_items
    keys = split.train_keys
    negs = rng.integers(num_items, size=len(users))

    def collides(rows):
        wanted = users[rows] * num_items + negs[rows]
        return keys[np.searchsorted(keys, wanted)] == wanted

    idx = np.flatnonzero(split.train.user_degrees[users] < num_items)
    idx = idx[collides(idx)]
    while len(idx):
        negs[idx] = rng.integers(num_items, size=len(idx))
        idx = idx[collides(idx)]
    return negs


def softplus(x):
    """log(1 + exp(x)) without overflow: the loss of every sigmoid term."""
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    """1 / (1 + exp(-x)), the slope of softplus: scipy.special.expit's
    formula, within a few ulp of it through numpy's exp, so that no
    process imports scipy."""
    with np.errstate(over="ignore"):  # x < -709: exp is inf, sigmoid 0
        return 1.0 / (1.0 + np.exp(-x))


def spare(buffers, *busy):
    """The first of ``buffers`` that shares no memory with any of ``busy``."""
    return next(b for b in buffers
                if not any(np.may_share_memory(b, x) for x in busy))


def take_rows(E, index, out):
    """E[index], written into ``out``."""
    # every index is in range; "clip" lets take write to out unbuffered
    return np.take(E, index, axis=0, out=out, mode="clip")


def bpr_pairs(users, pos, negs, E, num_users, gathers):
    """Batch-mean BPR loss -log sigmoid(s+ - s-) over (user, positive,
    negative) triples and its pair terms: the loss depends on E[u].E[i]
    with slope coeff and on E[u].E[j] with slope -coeff. The triples' rows
    of E go through ``gathers``, two (len(users), dim) arrays, which are
    overwritten."""
    items = num_users + pos
    others = num_users + negs
    ei, ej = (take_rows(E, index, out)
              for index, out in zip((items, others), gathers))
    np.subtract(ei, ej, out=ei)
    eu = take_rows(E, users, ej)
    s = np.multiply(eu, ei, out=ei).sum(axis=1)
    loss = float(softplus(-s).mean())
    coeff = -sigmoid(-s) / len(users)
    return loss, [(users, items, coeff), (users, others, -coeff)]


def pair_gradient(terms, E, tables):
    """(C + C^T) @ E for the sparse n x n matrix C with C[rows, cols] =
    coeffs over every ``(rows, cols, coeffs)`` in ``terms``, duplicate pairs
    adding up: the gradient in E of a loss whose slope in
    E[rows[t]] . E[cols[t]] is coeffs[t].

    ``tables`` are two E-shaped arrays that receive C @ E and C^T @ E, each
    summed term by term in input order, as scipy's products with the COO
    matrix C sum them; their sum overwrites the first, which is returned.
    """
    CE, CtE = tables
    CE.fill(0)
    CtE.fill(0)
    for rows, cols, coeffs in terms:
        coo_matmul_add(rows, cols, coeffs, E, CE)
        coo_matmul_add(cols, rows, coeffs, E, CtE)
    return np.add(CE, CtE, out=CE)


def train_loop(trainer, split, cfg):
    """Generic epoch loop with early stopping on validation Recall@20.

    The trainer owns all mutable state and exposes run_epoch/materialize.
    The model materialized for the best validation is the one returned;
    with no validation, the last state is materialized. Its ``best_epoch``
    is the epoch it was materialized at.
    """
    def materialize(epoch):
        # an epoch's loss misses its last update turning P non-finite; a NaN
        # or an infinity shows in the min or max, which allocate nothing
        model = trainer.materialize()
        for E in (model.user_embeddings, model.item_embeddings):
            if not (np.isfinite(E.min()) and np.isfinite(E.max())):
                raise TrainingDivergedError(f"diverged at epoch {epoch}")
        return model

    best_recall = -np.inf
    best = None
    bad_evals = 0
    stopped_early = False
    epochs_trained = 0
    can_validate = len(split.valid_users) > 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss = trainer.run_epoch(epoch)
        epochs_trained = epoch
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"diverged at epoch {epoch}")
        if can_validate and epoch % cfg.eval_interval == 0:
            model = materialize(epoch)
            result = evaluate(model, split, k=20, phase="valid")
            if result.recall > best_recall + 1e-12:
                best_recall = result.recall
                best = model
                best.best_epoch = epoch
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= cfg.patience:
                    stopped_early = True
                    break
    if best is None:
        best = materialize(epochs_trained)
        best.best_epoch = epochs_trained
    best.epochs_trained = epochs_trained
    best.stopped_early = stopped_early
    return best


class Trainer:
    """Adam on one parameter matrix P, in shuffled train-edge batches.

    The model maps P to node embeddings E (users, then items) and back:
    - ``init_params(rng)`` draws P, and any other random state the model
      keeps fixed;
    - ``forward(P)`` returns E, which may be a view of a model buffer,
      valid until the next ``forward`` or ``backward``;
    - ``backward(G)`` returns the gradient in P for a gradient G in E from
      the latest ``forward``, with the same validity;
    - ``batch_gradient(rng, batch, split, E)`` draws the batch's negatives
      and returns ``(loss, G)``: the batch loss and its gradient in E;
    - ``release()`` drops the buffers the model keeps between batches;
      ``materialize`` calls it after its forward, so that the evaluation
      after it can reuse that memory;
    - ``extras(P)`` returns the diagnostics kept on the TrainedModel.

    L2 applies to P, inside the Adam step.
    """

    def __init__(self, model, split, cfg, rng):
        self.model = model
        self.split = split
        self.cfg = cfg
        self.rng = rng
        self.P = model.init_params(rng)
        self.adam = Adam(self.P.shape, cfg.learning_rate, cfg.l2_weight)
        self.edges = split.train.edge_array()

    def run_epoch(self, epoch):
        edges = self.edges
        order = self.rng.permutation(len(edges))
        total = 0.0
        for start in range(0, len(edges), self.cfg.batch_size):
            batch = edges[order[start:start + self.cfg.batch_size]]
            total += self.step(batch) * len(batch)
        return total / max(len(edges), 1)

    def step(self, batch):
        """One Adam step on a batch of train edges; returns the batch loss.
        E, G and the gradient in P live in the model's buffers."""
        E = self.model.forward(self.P)
        loss, G = self.model.batch_gradient(self.rng, batch, self.split, E)
        self.adam.step(self.P, self.model.backward(G))
        return loss

    def materialize(self):
        E = self.model.forward(self.P)
        num_users = self.split.graph.num_users
        model = TrainedModel(user_embeddings=E[:num_users].copy(),
                             item_embeddings=E[num_users:].copy(),
                             extras=self.model.extras(self.P))
        self.model.release()
        return model


class EmbeddingModel:
    """What the four models share: the split's node counts, P drawn as one
    N(0, 0.1^2) row of embedding_dim per node, the buffers kept between
    batches and no diagnostics."""

    def __init__(self, split, cfg):
        self.cfg = cfg
        self.num_users = split.graph.num_users
        self.num_items = split.graph.num_items
        self.tables = {}

    def init_params(self, rng):
        return normal_init(rng, self.num_users + self.num_items,
                           self.cfg.embedding_dim)

    def table(self, key, shape, dtype=None):
        """The model's buffer ``key`` of ``dtype`` (``DTYPE`` by default) as
        a (rows, cols) ``shape`` array: allocated at its first request,
        reallocated when a request outgrows its rows or changes its cols,
        and otherwise the leading rows of the one allocated before."""
        buf = self.tables.get(key)
        if buf is None or len(buf) < shape[0] or buf.shape[1:] != shape[1:]:
            buf = self.tables[key] = np.empty(shape, dtype or DTYPE)
        return buf[:shape[0]]

    def propagation_tables(self, shape):
        """The model's three node x dim buffers, ``shape`` each."""
        return [self.table(i, shape) for i in range(3)]

    def pair_tables(self, E):
        """The two of ``propagation_tables`` that do not hold E."""
        tables = self.propagation_tables(E.shape)
        first = spare(tables, E)
        return first, spare(tables, E, first)

    def gathers(self, E, rows):
        """Two (rows, dim) buffers for a batch's gathered rows of E: the
        leading rows of ``pair_tables(E)``, which hold nothing until the
        batch's gradient is written, or buffers of their own when the
        batch has more rows than E."""
        if rows <= len(E):
            return [T[:rows] for T in self.pair_tables(E)]
        return [self.table(("gather", i), (rows, E.shape[1]))
                for i in range(2)]

    def release(self):
        self.tables = {}

    def extras(self, P):
        return {}


class PropagationModel(EmbeddingModel):
    """BPR on the mean of layer-0..L embeddings propagated linearly from
    P = E0 (LightGCN, DGCF).

    Each node's embedding is ``intents`` equal chunks, and layer l maps
    its input X to its output Y by one sparse product on ``chunks``, the
    (n*intents, dim/intents) view of a node x dim table in which row
    x*intents + k is node x's chunk k. A model supplies the product's
    operator, ``layer_operator(l, X, Y)``, which may use Y as scratch.
    The layers' operators are
    symmetric, so the backward pass runs them again, in reverse order, to
    route a gradient on E back to P. Both passes run in three node x dim
    buffers: the layer sum and two layers in turn. The gradient goes into
    the two that do not hold E.
    """

    intents = 1

    def chunks(self, M):
        return M.reshape(len(M) * self.intents, -1)

    def forward(self, E0):
        """E, as a view of a model buffer that is valid until the next
        ``forward`` or ``backward``."""
        acc, *layers = self.propagation_tables(E0.shape)
        np.copyto(acc, E0)
        X = E0
        self.layer_ops = []
        for layer in range(self.cfg.layers):
            Y = spare(layers, X)
            op = self.layer_operator(layer, X, Y)
            self.layer_ops.append(op)
            spmm(op, self.chunks(X), self.chunks(Y))
            acc += Y
            X = Y
        return np.divide(acc, self.cfg.layers + 1, out=acc)

    def backward(self, G):
        tables = self.propagation_tables(G.shape)
        B = G
        for op in reversed(self.layer_ops):
            T = spare(tables, G, B)
            spmm(op, self.chunks(B), self.chunks(T))
            B = np.add(G, T, out=T)
        return np.divide(B, self.cfg.layers + 1, out=spare(tables, G, B))

    def batch_gradient(self, rng, batch, split, E):
        users, pos = batch[:, 0], batch[:, 1]
        negs = sample_negative_items(rng, users, split)
        loss, terms = bpr_pairs(users, pos, negs, E, self.num_users,
                                self.gathers(E, len(batch)))
        return loss, pair_gradient(terms, E, self.pair_tables(E))


def train_model(split, cfg, rng):
    """Train the model for cfg.kind."""
    from . import dgcf, lightgcn, svdgcn, ultragcn

    model = {"lightgcn": lightgcn.LightGCNPropagator,
             "dgcf": dgcf.DGCFPropagator, "ultragcn": ultragcn.UltraGCN,
             "svdgcn": svdgcn.SvdGcn}[cfg.kind](split, cfg)
    trainer = Trainer(model, split, cfg, np.random.default_rng(rng))
    return train_loop(trainer, split, cfg)
