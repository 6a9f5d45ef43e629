"""vocalnet: identify animal species and breeds from vocalization recordings.

Pipeline: WAV parsing -> 28 spectral properties per clip -> sigmoid MLPs
trained by back-propagation under 10-fold cross-validation -> MDL-guided
forward feature selection -> confusion-matrix evaluation.

The package root defines nothing: import each name from the module that
defines it, so `import vocalnet` alone loads no submodule. The version is
recorded once, in pyproject.toml.
"""
