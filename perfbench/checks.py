"""Checks of an operation's outputs: against the independent reference
(``reference.py``) and against properties the method must have.

Each check returns a list of failure messages; an empty list passes.
"""

import math
import os

import numpy as np

import reference

ENTROPY_TOL = 1e-9  # absolute, nats
TEMP_TOL = 1e-9  # relative
LAW_Z = 5.0  # |z| bound of the drawn-token law test


def read_artifacts(out_dir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            files[name] = f.read()
    text = {k: v.decode() for k, v in files.items()}
    header, values = text["report.csv"].splitlines()
    report = dict(zip(header.split(","), values.split(",")))
    art = {
        "files": files,
        "tokens": np.array([[int(v) for v in line.split(",")]
                            for line in text["tokens.csv"].splitlines()]),
        "entropy": np.array([[float(v) for v in line.split(",")]
                             for line in text["entropy.csv"].splitlines()]),
        "tokens_emitted": int(report["tokens_emitted"]),
        "model_invocations": int(report["model_invocations"]),
        "accept_tests": int(report["accept_tests"]),
        "accepted": int(report["accepted"]),
    }
    if "scales.csv" in text:
        art["scale_means"] = [float(line.split(",")[1]) for line in
                              text["scales.csv"].splitlines()[1:]]
    return art


def check_operation(wl, art) -> list:
    """Every operation: sizes, counts and value ranges."""
    bad = []
    vocab = wl.get("vocab")
    tokens, eps = art["tokens"], art["entropy"]
    if art["tokens_emitted"] != wl.tokens:
        bad.append(f"tokens_emitted {art['tokens_emitted']} != {wl.tokens}")
    inv = art["model_invocations"]
    if wl.invocations is not None:
        if inv != wl.invocations:
            bad.append(f"model_invocations {inv} != {wl.invocations}")
    elif not math.ceil(wl.tokens / wl.get("window")) <= inv <= wl.tokens:
        bad.append(f"model_invocations {inv} out of range")
    if tokens.shape != eps.shape:
        bad.append("tokens.csv and entropy.csv differ in shape")
    if tokens.min() < 0 or tokens.max() >= vocab:
        bad.append("token id outside [0, V)")
    if eps.min() < 0 or eps.max() > math.log(vocab) + ENTROPY_TOL:
        bad.append("entropy outside [0, ln V]")
    return bad


def check_same_files(a: dict, b: dict) -> list:
    if a["files"] != b["files"]:
        return ["rerunning the seed wrote different artifacts"]
    return []


def profile(wl) -> np.ndarray:
    top, left, rh, rw = (int(v) for v in str(wl.get("rect")).split(","))
    prof = np.full((wl.get("height"), wl.get("width")), wl.get("kappa_bg"))
    prof[top:top + rh, left:left + rw] = wl.get("kappa_fg")
    return prof


def make_oracle(wl, seed: int):
    from entropix.oracle import Oracle, OracleConfig
    prof = profile(wl)
    return Oracle(OracleConfig(vocab=wl.get("vocab"), shape=prof.shape,
                               profile=prof, seed=seed,
                               context_sensitivity=wl.get(
                                   "context_sensitivity")))


def query(oracle, wl, args):
    """Stacked cond and uncond logits_at rows; args are (position, prefix
    tokens, prefix indices, kappa) per row."""
    cond = np.array([oracle.logits_at(p, t, i, kappa=k)
                     for p, t, i, k in args])
    uncond = None
    if wl.get("cfg_scale", 1.0) != 1.0:
        uncond = np.array([oracle.logits_at(p, t, i, conditional=False,
                                            kappa=k) for p, t, i, k in args])
    return cond, uncond


def run_reference(oracle, wl, args, **scaled):
    cond, uncond = query(oracle, wl, args)
    return reference.pipeline(cond, uncond, wl.get("cfg_scale", 1.0),
                              wl.temp, wl.get("top_k"), wl.get("top_p"),
                              **scaled)


def sequential_args(tokens):
    """Position i conditions on tokens[:i] at indices 0..i-1."""
    index = np.arange(len(tokens))
    return [(i, tokens[:i], index[:i], None) for i in range(len(tokens))]


def compare(name, got, want, tol, relative=False) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: {got.shape[0]} values, reference has "
                f"{want.shape[0]}"]
    err = np.abs(got - want)
    if relative:
        err = err / np.abs(want)
    worst = int(np.argmax(err)) if err.size else 0
    if err.size and err[worst] > tol:
        return [f"{name} differs from the reference at {worst}: "
                f"{got[worst]!r} vs {want[worst]!r}"]
    return []


def check_drawn(name, probs, tokens, law: bool) -> list:
    """Drawn tokens lie in the reference support and, if ``law``, follow
    the reference law."""
    bad = []
    if (probs[np.arange(len(tokens)), tokens] <= 0).any():
        bad.append(f"{name}: a token was drawn outside the reference support")
    if law:
        z_prob, z_cdf = reference.law_z(probs, tokens)
        if not (abs(z_prob) <= LAW_Z and abs(z_cdf) <= LAW_Z):
            bad.append(f"{name}: drawn tokens off the reference law, "
                       f"z = {z_prob:.2f} (probability), {z_cdf:.2f} (CDF)")
    return bad


def check_next_token(wl, seed, art, res) -> list:
    tokens = art["tokens"].reshape(-1)
    probs, eps, temps = run_reference(make_oracle(wl, seed), wl,
                                      sequential_args(tokens))
    return (compare("entropy", art["entropy"].reshape(-1), eps, ENTROPY_TOL)
            + compare("temperature", res.temps, temps, TEMP_TOL, True)
            + check_drawn("next-token", probs, tokens, law=True))


def emitted_slots(per_iteration_accepted, length, window):
    """Index into a Jacobi decode's temperature list of each emitted token:
    each window adds one temperature per slot and emits its accepted slots
    plus the one after them, unless every slot was accepted."""
    slots, base, offset = [], 0, 0
    for accepted in per_iteration_accepted:
        w_eff = min(window, length - base)
        advance = accepted if accepted == w_eff else accepted + 1
        slots.extend(range(offset, offset + advance))
        base += advance
        offset += w_eff
    return slots


def check_spec(wl, seed, art, res) -> list:
    tokens = art["tokens"].reshape(-1)
    _, eps, temps = run_reference(make_oracle(wl, seed), wl,
                                  sequential_args(tokens))
    slots = emitted_slots(res.stats.per_iteration_accepted, wl.tokens,
                          wl.get("window"))
    got_t = np.asarray(res.temps)[slots] if len(slots) == len(tokens) else []
    return (compare("entropy", art["entropy"].reshape(-1), eps, ENTROPY_TOL)
            + compare("temperature", got_t, temps, TEMP_TOL, True))


def check_baseline_law(wl, runs) -> list:
    """``runs``: (seed, artifacts) of baseline-rule decodes. Pooled over
    them, the emitted tokens follow the next-token law, and the residual
    path fired."""
    probs, tokens = [], []
    for seed, art in runs:
        toks = art["tokens"].reshape(-1)
        p, _, _ = run_reference(make_oracle(wl, seed), wl,
                                sequential_args(toks))
        probs.append(p)
        tokens.append(toks)
    bad = check_drawn("spec-baseline", np.concatenate(probs),
                      np.concatenate(tokens), law=True)
    if all(art["accepted"] == art["accept_tests"] for _, art in runs):
        bad.append("spec-baseline: no draft was rejected, so the residual "
                   "path was not tested")
    return bad


def check_mask(wl, seed, art, history, temps) -> list:
    bad = []
    h, w = wl.get("height"), wl.get("width")
    n, steps, vocab = h * w, wl.get("steps"), wl.get("vocab")
    if len(history) != steps + 1:
        return [f"mask: {len(history) - 1} steps, expected {steps}"]
    t = np.arange(steps + 1) / steps
    ideal = -np.diff(np.cos(t * np.pi / 2.0)) * n
    args, where, tokens = [], [], []
    offset = 0
    for step, (before, after) in enumerate(zip(history, history[1:])):
        acc0, acc1 = before.accepted.reshape(-1), after.accepted.reshape(-1)
        tok0, tok1 = before.tokens.reshape(-1), after.tokens.reshape(-1)
        if (acc0 & ~acc1).any() or (tok0[acc0] != tok1[acc0]).any():
            bad.append(f"mask step {step}: an accepted token changed")
        new = np.flatnonzero(acc1 & ~acc0)
        if abs(len(new) - ideal[step]) >= 1.0:
            bad.append(f"mask step {step}: accepted {len(new)}, cosine "
                       f"schedule gives {ideal[step]:.2f}")
        grid = np.where(acc0, tok0, vocab)
        open_pos = np.flatnonzero(~acc0)
        for pos in new:
            args.append((int(pos), grid, np.arange(n), None))
            where.append(offset + int(np.searchsorted(open_pos, pos)))
            tokens.append(tok1[pos])
        offset += len(open_pos)
    final = history[-1]
    if not final.accepted.all() or len(tokens) != n:
        bad.append("mask: not every position was accepted exactly once")
        return bad
    if not np.array_equal(final.tokens, art["tokens"]):
        bad.append("mask: final grid differs from tokens.csv")
    probs, eps, ref_t = run_reference(make_oracle(wl, seed), wl, args)
    positions = [a[0] for a in args]
    bad += compare("entropy", art["entropy"].reshape(-1)[positions], eps,
                   ENTROPY_TOL)
    bad += compare("temperature", np.asarray(temps)[where], ref_t, TEMP_TOL,
                   True)
    return bad + check_drawn("mask", probs, np.array(tokens), law=False)


def check_scale(wl, seed, art, grids, emaps, means, temps) -> list:
    from entropix.scales import SCALE_STRIDE
    bad = []
    ph, pw = wl.get("height"), wl.get("width")
    prof = profile(wl)
    oracle = make_oracle(wl, seed)
    count = len(grids)
    shapes = [g.shape for g in grids]
    ladder = [(min(2 ** s, ph), min(2 ** s, pw)) for s in range(count)]
    if shapes != ladder or ladder[-1] != (ph, pw):
        return [f"scale: ladder {shapes}, expected {ladder}"]
    if not np.array_equal(grids[-1], art["tokens"]) \
            or not np.array_equal(emaps[-1], art["entropy"]):
        bad.append("scale: final grid or entropy map differs from the "
                   "artifacts")
    bad += compare("scale mean entropy", art["scale_means"],
                   [float(e.mean()) for e in emaps], 1e-11, True)
    pre_tok = np.zeros(0, dtype=np.int64)
    pre_idx = np.zeros(0, dtype=np.int64)
    probs, got_eps, ref_eps, ref_t, tokens = [], [], [], [], []
    for s, grid in enumerate(grids, start=1):
        h, w = grid.shape
        i, j = np.divmod(np.arange(h * w), w)
        kappas = prof[i * ph // h, j * pw // w]
        positions = s * SCALE_STRIDE + np.arange(h * w)
        args = [(int(p), pre_tok, pre_idx, float(k))
                for p, k in zip(positions, kappas)]
        factor = 1.0 - wl.get("beta") * (s - count // 2)
        p, e, t = run_reference(oracle, wl, args, scale=factor,
                                floor=wl.get("floor_temperature"))
        probs.append(p)
        ref_eps.append(e)
        ref_t.append(t)
        got_eps.append(emaps[s - 1].reshape(-1))
        tokens.append(grid.reshape(-1))
        pre_tok = np.concatenate([pre_tok, grid.reshape(-1)])
        pre_idx = np.concatenate([pre_idx, positions])
    bad += compare("entropy", np.concatenate(got_eps),
                   np.concatenate(ref_eps), ENTROPY_TOL)
    bad += compare("temperature", temps, np.concatenate(ref_t), TEMP_TOL,
                   True)
    return bad + check_drawn("scale", np.concatenate(probs),
                             np.concatenate(tokens), law=True)
