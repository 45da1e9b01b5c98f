// Per-kernel scan instrumentation shared by every hot analysis kernel.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace bw::core {

/// Per-kernel scan counters, registered as kernel.<name>.scan_rows and
/// kernel.<name>.scan_ns. Rows counts resolved range sizes and is invariant
/// across thread counts; the _ns suffix exempts the timing counter from the
/// determinism contract (see obs::is_deterministic_metric).
struct KernelScanMetrics {
  obs::Counter* rows;
  obs::Counter* ns;
};

/// Registry handles for one kernel's scan counters. Call once per kernel
/// (function-local static in the kernel body) — the lookup hits the global
/// registry map, the returned pointers are then hot-loop safe.
[[nodiscard]] KernelScanMetrics make_kernel_scan_metrics(
    std::string_view kernel);

}  // namespace bw::core
