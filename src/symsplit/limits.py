"""Every rank and sample limit of the library and the CLI, each with its reason.

The library call a limit bounds checks it; `cli` reads these only to write its
help, so importing this module loads nothing else.  README has the timings.
"""

# reading an element form-checks its matrix: a rank-50 `inv` takes about 0.007 s in process on a
# dense word of 11-bit entries (packed check), but 4200-digit ones make it about 26 s (ROADMAP item 7)
ELEMENT_RANK_LIMIT = 50
# enumerate_refinements builds one object per refinement: 2^20 at rank 10, 1.4 s and 140 MB
ENUMERATION_RANK_LIMIT = 9
# orbit_decomposition keeps each orbit as one 4^r-bit int: about 0.02 s at rank 10
DECOMPOSITION_RANK_LIMIT = 10
# a verdict without a witness reports 4^r candidates; 4^31 is the largest that fits in int64
SPLIT_RANK_LIMIT = 31
# a kept cap within the samples limit's ~1 s budget: `verify --r 8 --samples 300` takes 0.5 to 0.7 s
# and 16 MB; time grows with r and memory does not (the suites at 300 samples: 0.6 to 1.0 s at r = 10)
VERIFY_RANK_LIMIT = 8
# a kept cap, not the largest within budget: run_suites(8, 300, seed) takes under about 1 s
VERIFY_SAMPLES_LIMIT = 300
