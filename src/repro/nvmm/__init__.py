"""NVMM (PCM) substrate: device contents, banking, timing, energy."""
