"""The paper's contribution: interval-based clock scheduling policies.

An interval policy performs two tasks on every scheduling interval
(prediction and speed-setting, after Govil et al.):

1. **Prediction** (:mod:`repro.core.predictors`): estimate the coming
   interval's utilization from the observed past -- ``PAST`` uses the last
   interval verbatim; ``AVG_N`` keeps an exponential moving average with
   decay ``N``.
2. **Speed setting** (:mod:`repro.core.speed`): decide how far to move
   through the discrete clock table -- ``one`` step, ``double``/halve,
   or ``peg`` to the extreme -- with hysteresis thresholds deciding *when*
   (:mod:`repro.core.hysteresis`).

:mod:`repro.core.policy` assembles these into a kernel governor, optionally
with the Itsy's limited voltage scaling (1.23 V below 162.2 MHz).
:mod:`repro.core.catalog` names the exact configurations evaluated in the
paper.  :mod:`repro.core.cycleavg` implements the naive busy-cycle
averaging policy of Figure 5, and :mod:`repro.core.oracle` the trace-based
Weiser baselines (OPT / FUTURE / unfinished-work PAST).

Extensions beyond the paper's evaluation:

- :mod:`repro.core.govil` -- the Govil et al. predictor family as
  trace-level baselines; :mod:`repro.core.live` runs them in-kernel;
- :mod:`repro.core.deadline` -- the §6 future-work designs: declared
  deadline specs and synthesized (period-detected) deadlines;
- :mod:`repro.core.martin` -- Martin's battery-rational clock floor.
"""
