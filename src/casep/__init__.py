"""casep: time-domain speech separation with a dual-path
convolution-attention mask network, built on a small numpy autodiff engine.
"""
