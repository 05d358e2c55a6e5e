from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=200)
settings.load_profile("deterministic")
