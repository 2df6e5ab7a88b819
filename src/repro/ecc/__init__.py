"""ECC substrate: SEC-DED Hamming(72,64) per-word codes and line fingerprints."""
