"""The whole-program passes of ``repro lint`` (the ``ANA...`` codes).

Where :mod:`repro.devtools.rules` checks files one at a time, these
modules build a name-resolved model of a whole ``repro`` package and
run three passes over it:

* :mod:`repro.devtools.analysis.model` — module/call-graph builder
  (imports, functions, classes, lock-attribute ownership);
* :mod:`repro.devtools.analysis.taint` — interprocedural exactness
  taint into the declared exact sinks (``ANA101``/``ANA102``);
* :mod:`repro.devtools.analysis.locks` — lock discipline for classes
  owning a ``_lock`` (``ANA201``);
* :mod:`repro.devtools.analysis.schemas` — ``repro.<name>/<v>``
  schema-registry consistency (``ANA301``-``ANA303``);
* :mod:`repro.devtools.analysis.codes` — the ``ANA`` code catalogue.

:mod:`repro.devtools.engine` drives them alongside the per-file rules;
findings share the ``Diagnostic`` record and the ``# repro: noqa``
marker.
"""
