"""Per-layer tracing of the package's public functions, from outside it.

Each traced function is replaced, for the life of a session, by a wrapper
in every ``seqtransfer`` module that holds it, so a call is caught where
the caller looks the name up (``sequential.spectral_estimate``,
``ptum.value_iteration``, ...).  Methods are replaced on their class.

A wrapper records one span per call into the calling thread's own
statistics: the call count, the total time and the time covered by
traced child spans on the same thread; self time is total minus child.
Ops that run on pool threads or worker processes hand their thread's
statistics back with ``Tracer.take`` and the benchmark merges them.

A few wrappers also count outcomes, for the ratios the benchmark reports:
pruning calls that removed a candidate, spectral estimates that raised,
and which successful estimates a later ``run_ptum`` call read (followed
through the models ``unpack_models`` makes of them, which the
``ApproxModelSet`` handed to ``run_ptum`` holds).
"""
import contextlib
import functools
import itertools
import sys
import threading
import time
import weakref
from collections import Counter

from seqtransfer import envs, harness, mdp, ptum, sequential, spectral

# (metric prefix, owner, attribute): the layer boundaries the benchmark
# reports.  ``cli`` is left out: it parses config and writes CSV around
# ``harness.sweep``.
TRACED = (
    ("envs.GenerativeModel.query", envs.GenerativeModel, "query"),
    ("envs.GenerativeModel.query_batch", envs.GenerativeModel, "query_batch"),
    ("mdp.value_iteration", mdp, "value_iteration"),
    ("mdp.policy_evaluation", mdp, "policy_evaluation"),
    ("ptum.ApproxModelSet", ptum.ApproxModelSet, "__init__"),
    ("ptum.run_ptum", ptum, "run_ptum"),
    ("ptum.prune_confidence_set", ptum, "prune_confidence_set"),
    ("ptum.info_index_table", ptum, "info_index_table"),
    ("ptum.uniform_pac_fallback", ptum, "uniform_pac_fallback"),
    ("spectral.spectral_estimate", spectral, "spectral_estimate"),
    ("spectral.estimate_moments", spectral, "estimate_moments"),
    ("spectral.whiten", spectral, "whiten"),
    ("spectral.MomentSet.whitened_third_moment", spectral.MomentSet,
     "whitened_third_moment"),
    ("spectral.rtp_decompose", spectral, "rtp_decompose"),
    ("spectral.recover_parameters", spectral, "recover_parameters"),
    ("spectral.align_columns", spectral, "align_columns"),
    ("sequential.run_sequential", sequential, "run_sequential"),
    ("sequential.collect_post_samples", sequential, "collect_post_samples"),
    ("sequential.pre_eliminate", sequential, "pre_eliminate"),
    ("harness.sweep", harness, "sweep"),
    ("harness.random_hmm_family", harness, "random_hmm_family"),
    ("harness.simulate_hmm_observations", harness, "simulate_hmm_observations"),
)
LAYER_NAMES = tuple(name for name, _, _ in TRACED)
SPECTRAL_FAILURES = (spectral.DegenerateMomentsError,
                     spectral.DecompositionFailureError)


class _ThreadState:
    """One thread's open spans, finished-span totals and outcome counts."""

    def __init__(self):
        self.stack = []          # child time accumulated by each open span
        self.spans = {}          # name -> [calls, total_s, child_s]
        self.counts = Counter()
        self.serials = itertools.count()
        self.estimate_serial = {}    # id(estimate) -> (weakref, serial)
        self.model_serial = {}       # id(first unpacked model) -> (model, serial)
        self.used = set()            # serials of estimates run_ptum read


class Tracer:
    """Installs the wrappers and collects what they record."""

    def __init__(self):
        self._local = threading.local()
        self._saved = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def take(self) -> dict:
        """This thread's finished spans and counts; resets them.

        Spans still open stay open and are reported by a later take.
        """
        state = self._state()
        out = {"spans": state.spans, "counts": state.counts}
        out["counts"]["estimates_used"] += len(state.used)
        state.spans, state.counts, state.used = {}, Counter(), set()
        return out

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ptum.prune_confidence_set": self._after_prune,
            "ptum.run_ptum": self._after_run_ptum,
            "spectral.spectral_estimate": self._after_estimate,
        }
        for name, owner, attr in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, attr, wrapper)
        self._replace(sequential, "unpack_models",
                      self._observe(sequential.unpack_models, self._after_unpack))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, original, attr, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "seqtransfer" and \
                    getattr(module, attr, None) is original:
                self._replace(module, attr, wrapper)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            state.stack.append(0.0)
            start = time.perf_counter()
            out, error = None, None
            try:
                out = fn(*args, **kwargs)
                return out
            except SPECTRAL_FAILURES as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                child = state.stack.pop()
                rec = state.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += child
                if state.stack:
                    state.stack[-1] += elapsed
                if hook is not None:
                    hook(state, args, kwargs, out, error)

        return traced

    def _observe(self, fn, hook):
        """Wrapper that passes the result to ``hook`` and records no span."""
        tracer = self

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(tracer._state(), args, kwargs, out, None)
            return out

        return observed

    # -- outcome hooks -----------------------------------------------------

    @staticmethod
    def _after_prune(state, args, kwargs, out, error):
        active = args[0] if args else kwargs["active"]
        state.counts["prune_calls"] += 1
        if out is not None and len(out) < len(active):
            state.counts["prune_eliminating"] += 1

    @staticmethod
    def _after_estimate(state, args, kwargs, out, error):
        if error is not None:
            state.counts["spectral_raised"] += 1
        elif out is not None:
            state.counts["estimates"] += 1
            state.estimate_serial[id(out)] = (weakref.ref(out),
                                              next(state.serials))

    @staticmethod
    def _after_unpack(state, args, kwargs, out, error):
        est = args[0] if args else kwargs["est"]
        ref, serial = state.estimate_serial.get(id(est), (None, None))
        if ref is not None and ref() is est and out:
            state.model_serial[id(out[0])] = (out[0], serial)

    @staticmethod
    def _after_run_ptum(state, args, kwargs, out, error):
        approx = args[0] if args else kwargs["approx"]
        first = approx.models[0]
        model, serial = state.model_serial.get(id(first), (None, None))
        if model is first:
            state.used.add(serial)


# The wrappers are process-wide, as the module attributes they replace
# are; one tracer per process is the only arrangement that can be right.
_PROCESS_TRACER = None


@contextlib.contextmanager
def session():
    """Install a tracer for this process for the length of the block."""
    global _PROCESS_TRACER
    if _PROCESS_TRACER is not None:
        raise RuntimeError("a tracing session is already open")
    tracer = Tracer()
    tracer.install()
    _PROCESS_TRACER = tracer
    try:
        yield tracer
    finally:
        _PROCESS_TRACER = None
        tracer.uninstall()


def process_tracer() -> Tracer:
    """The tracer of this process, installing one in a worker process that
    has none yet (a pool worker lives only as long as its pool)."""
    global _PROCESS_TRACER
    if _PROCESS_TRACER is None:
        _PROCESS_TRACER = Tracer()
        _PROCESS_TRACER.install()
    return _PROCESS_TRACER


def merge(total: dict, part: dict) -> dict:
    """Add one ``Tracer.take`` result into another."""
    for name, (calls, span_s, child_s) in part["spans"].items():
        rec = total["spans"].setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += span_s
        rec[2] += child_s
    total["counts"].update(part["counts"])
    return total
