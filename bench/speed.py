"""Machine-speed probe that scales the benchmark's times to one reference.

The small shared machines the benchmark runs on change speed by 15-35%
over tens of seconds, with no CPU time stolen: a fixed loop's CPU time
moves with its wall time.  Between its operations a run therefore times a
fixed probe, plain value iteration from ``reference`` on a fixed random
MDP that touches no package code, and reports every time scaled by
``REFERENCE_S`` over the mean time of the probes taken during or right
after it.
A change to the package moves the operations and not the probe, so it
shows in full; a change in the machine's speed moves both and cancels.
The raw wall times go into the result file beside the scaled ones.
"""
import statistics
import time

import numpy as np

import reference

# A usual probe time on the machine the README's figures come from; it
# only fixes the scale, and must stay the same from one commit to the next.
REFERENCE_S = 0.0045

_STATES, _ACTIONS, _REWARDS, _GAMMA = 40, 4, 3, 0.9


def _probe_mdp():
    rng = np.random.default_rng(12345)
    p = rng.random((_STATES, _ACTIONS, _STATES))
    q = rng.random((_STATES, _ACTIONS, _REWARDS))
    return (p / p.sum(axis=-1, keepdims=True),
            q / q.sum(axis=-1, keepdims=True),
            np.linspace(0.0, 1.0, _REWARDS))


class SpeedProbe:
    """Probe times taken over one phase of a run.

    ``tick`` takes one probe per INTERVAL_S of work since the phase began,
    so the probes are spread evenly over the phase's time however long its
    operations are.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self._p, self._q, self._support = _probe_mdp()
        self.times = []
        self.total = 0.0
        self._unprobed = 0.0
        self._mark = time.perf_counter()

    def sample(self) -> None:
        start = time.perf_counter()
        reference.optimal_values(self._p, self._q, self._support, _GAMMA)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.total += elapsed

    def tick(self) -> None:
        self._unprobed += time.perf_counter() - self._mark
        while self._unprobed >= self.INTERVAL_S:
            self._unprobed -= self.INTERVAL_S
            self.sample()
        self._mark = time.perf_counter()

    def scale(self, since: int) -> float:
        """Factor that turns an operation's wall time into reference time:
        REFERENCE_S over the mean of the probes taken from index ``since``
        on, during or right after the operation, or of the latest probe
        when none was.  1 when the phase took no probes; its times are
        reported as measured.
        """
        recent = self.times[since:] or self.times[-1:]
        return REFERENCE_S / statistics.fmean(recent) if recent else 1.0
