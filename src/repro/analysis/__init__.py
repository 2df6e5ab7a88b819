"""Experiment reproduction layer: one function per paper table/figure."""
