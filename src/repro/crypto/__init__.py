"""Crypto substrate: fingerprint engines, counter-mode encryption, cost models."""
