"""Serving-path benchmark: open-loop load through gateway -> cluster -> TKCM.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the one command; see ``perfbench/README.md``.
"""
