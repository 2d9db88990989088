"""Loop references the library's fast paths are verified against.

One module per phase, each holding the straightforward implementation the
parity suites compare the production engine with, byte for byte:

* :mod:`oracles.walks` -- the per-walker BSP loop (``BSPEngine``,
  ``Walker``, the InCoM and full-path measures) driven over every walk
  mode, plus exact transition/stationary distributions;
* :mod:`oracles.partition` -- MPGP scored by on-demand galloping, and the
  per-node segment-merge affinity;
* :mod:`oracles.embedding` -- the per-window SGNS / Pword2vec learners and
  the one-lifetime-at-a-time DSGL learner.

The library never imports these (CI checks it): they exist only to be
compared against.  What the paper's *measured baselines* run -- HuGE-D's
``fullpath`` walks (on the one lock-step walk engine) and pSGNScc --
stays in ``src/``.
"""
