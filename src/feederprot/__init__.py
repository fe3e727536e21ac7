"""Radial distribution feeder protection coordination toolkit.

Its modules cover the pipeline end to end: network model, file ingestion
with the shipped curve and fuse tables, pre-fault load flow, fault
studies with distributed-generation sources, time-current curve math,
pair coordination checks, and the settings and DG-dispatch optimizer.
"""

__version__ = "0.1.0"
