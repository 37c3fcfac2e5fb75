"""Every rank and sample limit of the library and the CLI, each with its reason.

The library call a limit bounds checks it; `cli` reads these only to write its
help, so importing this module loads nothing else.  README has the timings.
"""

# reading an element form-checks its matrix, cubic in the rank: about 0.05 s at rank 50
ELEMENT_RANK_LIMIT = 50
# enumerate_refinements builds one object per refinement: 2^20 at rank 10, 1.4 s and 140 MB
ENUMERATION_RANK_LIMIT = 9
# orbit_decomposition keeps each orbit as one 4^r-bit int: about 0.05 s at rank 10
DECOMPOSITION_RANK_LIMIT = 10
# a verdict without a witness reports 4^r candidates; 4^31 is the largest that fits in int64
SPLIT_RANK_LIMIT = 31
# the suites keep one 4^r-bit set: `verify --r 8 --samples 200` takes about 0.8 s and 16 MB
VERIFY_RANK_LIMIT = 8
# the largest round count that keeps run_suites(8, samples, seed) within about 1 s
VERIFY_SAMPLES_LIMIT = 300
