"""The benchmark's workloads: how each job's inputs are built, the job itself,
and the check that decides whether the job's output is correct.

Every job calls ssbmf through attribute lookups made at call time
(``ssbmf.tensor_recover(...)``, ``ssbmf.csp.solve_local(...)``), so that the
traced run can wrap those names from outside the program.

Instance sizes are fixed here; only the job seed changes from job to job.
The checks are plain functions of the job's inputs and outputs and return a
failure reason, or ``None`` when the output is correct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ssbmf
import ssbmf.csp
import ssbmf.probes

SEED_BITS = 63
# Keys below 2**64 are the ones ssbmf derives from its seeds; the benchmark's
# own streams use keys above that range so they never share a stream with a
# row of the program's instances.
_OWN_STREAM = 1 << 64
HEAVY_SHARE, HEAVY_TOL = 0.9, 0.25  # criterion 09
FULL_RANK_FLOOR = 0.95              # criterion 07


def job_seeds(workload_seed: int):
    """Endless stream of wide, independent job seeds drawn from the workload seed.

    ssbmf derives row i's key as ``seed ^ i``, so seeds that differ only in
    their low bits give row permutations of one instance; random 63-bit seeds
    make such overlaps negligible.
    """
    rng = np.random.Generator(np.random.Philox(key=_OWN_STREAM | workload_seed))
    while True:
        yield int(rng.integers(0, 1 << SEED_BITS))


def own_rng(job_seed: int) -> np.random.Generator:
    """The benchmark's own random stream for one job's data."""
    return np.random.Generator(np.random.Philox(key=_OWN_STREAM | job_seed))


def anchor_seed(job_seed: int, attempt: int) -> int:
    """``RecoverConfig.seed`` for one attempt of a job.

    The first attempt uses the job seed itself; a retry after a declined
    attempt draws a fresh wide seed from the benchmark's own stream.
    """
    if attempt == 0:
        return job_seed
    key = (attempt << 96) | _OWN_STREAM | job_seed
    return int(np.random.Generator(np.random.Philox(key=key)).integers(0, 1 << SEED_BITS))


def instance_key(W) -> int:
    """Identity of an instance as a multiset of rows."""
    return hash(tuple(sorted(W.rows)))


# ---------------------------------------------------------------- checks


def check_recover(W, result) -> str | None:
    """Zero residual, and W_hat equal to W up to a column permutation."""
    if result.residual != 0:
        return f"residual {result.residual}"
    permutation, unmatched = ssbmf.match_columns(result.W_hat, W)
    if unmatched is not None or sorted(permutation) != list(range(W.r)):
        return f"columns do not match the true W: unmatched {unmatched}"
    return None


def check_attack(X_abs, planted_rows, X_hat) -> str | None:
    """Criterion 09's rule after aligning the rows of X_hat to those of |X|.

    Each row of X_hat is paired with its nearest row of |X|; the pairing must
    be a bijection.  Then at least HEAVY_SHARE of the planted coordinates
    must be within HEAVY_TOL of their true magnitude.
    """
    r, d = X_abs.shape
    if X_hat.shape != (r, d):
        return f"X_hat has shape {X_hat.shape}, expected {(r, d)}"
    dist = np.linalg.norm(X_hat[:, None, :] - X_abs[None, :, :], axis=2)
    nearest = dist.argmin(axis=1)
    if sorted(nearest.tolist()) != list(range(r)):
        return "nearest-row alignment is not a bijection"
    row_of = np.empty(r, dtype=np.int64)
    row_of[nearest] = np.arange(r)
    cols = np.arange(d)
    truth = X_abs[planted_rows, cols]
    est = X_hat[row_of[planted_rows], cols]
    hits = int(np.sum(np.abs(est - truth) <= HEAVY_TOL * truth))
    if hits < HEAVY_SHARE * d:
        return f"{hits}/{d} planted coordinates within {HEAVY_TOL:.0%}"
    return None


def check_entries(expected, got) -> str | None:
    """Lazy tensor entries equal the oracle's, with no mismatch allowed."""
    if len(got) != len(expected):
        return f"{len(got)} entries returned for {len(expected)} triples"
    mismatches = sum(a != b for a, b in zip(expected, got))
    return f"{mismatches} tensor entries differ from the oracle" if mismatches else None


def check_singularity(out, trials) -> str | None:
    """Criterion 07's floor on the full-rank frequency over the rationals."""
    if out["trials"] != trials:
        return f"{out['trials']} trials run, {trials} requested"
    freq = out["real"]["frequency"]
    if freq < FULL_RANK_FLOOR:
        return f"full-rank frequency {freq} below {FULL_RANK_FLOOR}"
    return None


def check_csp(inst, assignment) -> str | None:
    """Criterion 10's identity: residual = 2 * (|E| - value)."""
    _, residual = ssbmf.csp.assignment_to_factors(inst, assignment)
    want = 2 * (inst.n_edges - assignment.value)
    return None if residual == want else f"residual {residual}, identity gives {want}"


# ------------------------------------------------------------- workloads


@dataclass
class Inputs:
    """One job's inputs; ``W`` is the instance counted for distinctness."""

    seed: int
    W: object
    data: dict


class Workload:
    """setup(seed) -> Inputs; job(inputs, attempt) -> output; declined(output)
    and check(inputs, output) -> reason or None.

    ``declined`` gives the program's own report of a failure (a
    ``success=False`` result), after which the job runs again with the next
    ``attempt`` number; ``check`` judges an output the program presented as
    a result.
    """

    def declined(self, out):
        return None


class Recover(Workload):
    """The paper's headline pipeline on a fresh README instance per job."""

    name = "recover"
    r, k, anchors = 16, 3, 64
    m = 13302  # required_sample_size(16, 3, 9, 0.1)

    def setup(self, seed):
        W = ssbmf.gen_selection_matrix(self.m, self.r, self.k, seed)
        M = ssbmf.gram(W)
        return Inputs(seed, W, {"M": M})

    def job(self, inp, attempt=0):
        return ssbmf.tensor_recover(inp.data["M"], self.r, self.k,
                                    ssbmf.RecoverConfig(anchors=self.anchors,
                                                        seed=anchor_seed(inp.seed, attempt)))

    def declined(self, out):
        return None if out.success else f"success=False: {out.failure}"

    def check(self, inp, out):
        return check_recover(inp.W, out)


class Attack(Workload):
    """Victim mixes a private matrix in set-up; the attacker recovers it in the job."""

    name = "attack"
    r, d, k, anchors = 12, 256, 2, 48
    m = 6151  # required_sample_size(12, 2, 6, 0.1)
    noise = 0.05

    def setup(self, seed):
        rng = own_rng(seed)
        X = self.noise * rng.normal(size=(self.r, self.d))
        planted = rng.integers(0, self.r, size=self.d)
        X[planted, np.arange(self.d)] = np.where(rng.random(self.d) < 0.5, -1.0, 1.0)
        syn, M = ssbmf.gen_instahide(ssbmf.Dataset(X=X), m=self.m, k=self.k, seed=seed)
        return Inputs(seed, syn.W, {"M": M, "syn": syn, "X": X, "planted": planted})

    def job(self, inp, attempt=0):
        return ssbmf.recover_dataset(
            inp.data["M"], inp.data["syn"], self.r, self.k,
            recover_config=ssbmf.RecoverConfig(anchors=self.anchors,
                                               seed=anchor_seed(inp.seed, attempt)))

    def declined(self, out):
        X_hat, report = out
        return None if X_hat is not None else f"success=False: {report.get('failure')}"

    def check(self, inp, out):
        return check_attack(np.abs(inp.data["X"]), inp.data["planted"], out[0].X)


class Validate(Workload):
    """The paper's validation experiments, run pointwise at desk scale."""

    name = "validate"
    m, r, k = 6151, 12, 2          # lazy tensor instance
    triples = 2000
    sing = (160, 40, 3)            # singularity_experiment(m, r, k)
    sing_trials = 30
    csp = (20, 8, 2)               # Boolean CSP reduction instance (m, r, k)
    csp_restarts = 3

    def setup(self, seed):
        rng = own_rng(seed)
        tensor_seed, sing_seed, csp_seed = (int(s) for s in
                                            rng.integers(0, 1 << SEED_BITS, size=3))
        W = ssbmf.gen_selection_matrix(self.m, self.r, self.k, tensor_seed)
        M = ssbmf.gram(W)
        triples = [tuple(t) for t in rng.integers(0, self.m, size=(self.triples, 3)).tolist()]
        Wc = ssbmf.gen_selection_matrix(*self.csp, csp_seed)
        Mc = ssbmf.gram(Wc)
        return Inputs(seed, W, {"M": M, "triples": triples, "sing_seed": sing_seed,
                                "Mc": Mc, "csp_seed": csp_seed})

    def job(self, inp, attempt=0):
        data = inp.data
        T = ssbmf.build_tensor(data["M"], self.r, self.k, mode="lazy")
        entries = [T.entry(a, b, c) for a, b, c in data["triples"]]
        sing = ssbmf.probes.singularity_experiment(*self.sing, trials=self.sing_trials,
                                                   seed=data["sing_seed"])
        inst = ssbmf.csp.reduce_symmetric(data["Mc"], self.csp[1], self.csp[2], "boolean")
        assignment = ssbmf.csp.solve_local(inst, restarts=self.csp_restarts,
                                           seed=data["csp_seed"])
        return entries, sing, inst, assignment

    def check(self, inp, out):
        entries, sing, inst, assignment = out
        oracle = ssbmf.oracle_tensor(inp.W)
        expected = [oracle.entry(a, b, c) for a, b, c in inp.data["triples"]]
        return (check_entries(expected, entries)
                or check_singularity(sing, self.sing_trials)
                or check_csp(inst, assignment))


WORKLOADS = {w.name: w for w in (Recover(), Attack(), Validate())}
