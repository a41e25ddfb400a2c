# Shared ctest label sets for the sanitizer sweeps. Sourced by
# tools/run_tier1.sh and tools/run_chaos_tests.sh so the two scripts can
# never drift apart (adding a label here registers it in both sweeps).
#
#   MURMUR_ASAN_LABELS: ASan+UBSan sweep — every fault/concurrency-adjacent
#     suite plus the numeric kernels.
#   MURMUR_TSAN_LABELS: TSan sweep — the genuinely multi-threaded suites
#     (obs hammers the flight-recorder ring; replicas races kill/drain/join;
#     adapt hammers snapshot swaps against concurrent decisions; pareto
#     races front readers against refiner publications and drift purges;
#     faults runs the executor's failover protocol, whose deadline receives
#     and fallback accounting share the walk with pooled tile tasks).
#
# Values are ctest -L regexes. Environment overrides still win in
# run_chaos_tests.sh (MURMUR_CHAOS_LABEL / MURMUR_TSAN_LABEL).
MURMUR_ASAN_LABELS='obs|kernels|int8|faults|serving|batching|replicas|adapt|pareto'
MURMUR_TSAN_LABELS='obs|faults|serving|batching|replicas|adapt|pareto'
