"""Deduplication scheme zoo: Baseline, Dedup_SHA1, DeWrite, DaE, PDE and
NV-Dedup, plus the parts they share.

The ESD scheme itself lives in :mod:`repro.core`; :mod:`repro.registry`
names the schemes of both packages and builds them by name.
"""
