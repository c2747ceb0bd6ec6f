"""Applications used in the paper's evaluation.

* :mod:`repro.apps.traceplayer` — replays find/SQLite syscall traces
  against a file system (Figure 9).
* :mod:`repro.apps.lsm` — a LevelDB-like LSM-tree key-value store over
  the POSIX shim (Figure 10).
* :mod:`repro.apps.compress` — a real lossless audio compressor
  (Rice/delta coding, the libFLAC stand-in).
* :mod:`repro.apps.voice` — the voice-assistant pipeline of 6.5.1.
"""
