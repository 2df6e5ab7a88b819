"""ESD core: EFIT, LRCU policy, AMT, and the ESD scheme itself."""
