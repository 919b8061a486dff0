"""Spans around the public functions of each entropix module, added from
outside the program.

``Tracer.install`` replaces every traced function with a wrapper, also
where another module imported it by name (``mask.pipeline_probs``,
``cli.parse_config``), and ``uninstall`` puts the originals back. Each
wrapper records a span (name, start, end, parent span, operation id) in
memory and adds to per-name totals: calls, work units (rows, pairs or
draws) and self time, which is a span's duration minus the time its child
spans cover. A kernel called from inside another kernel (the numpy one-row
``raw_logits`` runs ``raw_logits_rows``) is part of that kernel, not a span
of its own.
"""

import sys
from array import array
from time import perf_counter

import numpy as np


def _rows(a, kw):
    return len(a[0]) if np.ndim(a[0]) == 2 else 1


def targets():
    """(span name, owner, attribute, work) for every traced function; work
    is None or (unit name, count from the call's arguments)."""
    from entropix import (_kernels_py, backend, cli, config, dist, mask, pgm,
                          scales, speculative, temperature)
    from entropix.oracle import Oracle, RunningDigest
    from entropix.rng import RngStream
    k = backend.kernels
    rows = ("rows", lambda a, kw: len(a[0]))
    draw = ("draws", lambda a, kw: 1)
    return [
        ("kernels.raw_logits_rows", _kernels_py, "raw_logits_rows", rows),
        ("kernels.raw_logits", k, "raw_logits", None),
        ("kernels.prefix_fold", k, "prefix_fold", ("pairs", rows[1])),
        ("oracle.logits_rows", Oracle, "logits_rows",
         ("rows", lambda a, kw: len(a[1]))),
        ("oracle.logits_from_digest", Oracle, "logits_from_digest", None),
        ("oracle.digest_of", Oracle, "digest_of", None),
        ("oracle.running_digest", RunningDigest, "append", None),
        ("oracle.running_digest", RunningDigest, "continuation_digests",
         None),
        ("temperature.pipeline_probs", temperature, "pipeline_probs",
         ("rows", _rows)),
        ("temperature.sample_entropy_aware", temperature,
         "sample_entropy_aware", None),
        ("dist.sample_rows", dist, "sample_rows", rows),
        ("dist.sample_categorical", dist, "sample_categorical", None),
        ("rng", RngStream, "uniform", draw),
        ("rng", RngStream, "uniforms", ("draws", lambda a, kw: int(a[1]))),
        ("rng", RngStream, "integer", draw),
        ("mask.mask_generate", mask, "mask_generate", None),
        ("mask.confidence_rows", mask, "confidence_rows", None),
        ("mask.update_mask", mask, "update_mask", None),
        ("scales.scale_generate", scales, "scale_generate", None),
        ("speculative.jacobi_decode", speculative, "jacobi_decode", None),
        ("speculative.accept", speculative, "baseline_accept", None),
        ("speculative.accept", speculative, "entropy_accept", None),
        ("speculative.residual_resample", speculative, "residual_resample",
         None),
        ("cli.run", cli, "run", None),
        ("cli.write_artifacts", cli, "write_artifacts", None),
        ("pgm.write_pgm", pgm, "write_pgm", None),
        ("config.parse_config", config, "parse_config", None),
    ]


class Tracer:
    def __init__(self, targets):
        self.names = sorted({t[0] for t in targets})
        ix = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.work = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # spans, one entry per column
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._next_id = 0
        self._stack = []  # [span id, child time, is kernel]
        self._saved = []  # (owner, attribute, original) to restore
        self.work_unit = {name: work[0] for name, _, _, work in targets
                          if work is not None}
        self._wrappers = [(owner, attr, self._wrap(
            ix[name], name.startswith("kernels."), getattr(owner, attr),
            work and work[1])) for name, owner, attr, work in targets]

    def _wrap(self, ix, kernel, fn, count):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if kernel and stack and stack[-1][2]:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0, kernel]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[ix] += 1
                if count is not None:
                    tracer.work[ix] += count(args, kwargs)
                tracer.self_s[ix] += dur - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                tracer.span_id.append(sid)
                tracer.span_name.append(ix)
                tracer.span_parent.append(parent)
                tracer.span_op.append(tracer.op)
                tracer.span_start.append(start)
                tracer.span_end.append(end)

        traced.__wrapped__ = fn
        return traced

    def install(self, op: int) -> None:
        """Wrap every target for operation ``op``, and rebind each name
        that another entropix module imported."""
        self.op = op
        modules = [m for name, m in list(sys.modules.items())
                   if name == "entropix" or name.startswith("entropix.")]
        for owner, attr, wrapper in self._wrappers:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def totals(self):
        """name -> (calls, work units, self seconds)."""
        return {n: (self.calls[i], self.work[i], self.self_s[i])
                for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as CSV, times in seconds from the first span."""
        t0 = min(self.span_start, default=0.0)
        with open(path, "w") as f:
            f.write("span,name,parent,op,start_s,end_s\n")
            for sid, ix, parent, op, start, end in zip(
                    self.span_id, self.span_name, self.span_parent,
                    self.span_op, self.span_start, self.span_end):
                f.write(f"{sid},{self.names[ix]},{parent},{op},"
                        f"{start - t0:.9f},{end - t0:.9f}\n")
