#pragma once
// Umbrella header for the merge-path-sparse library.  Individual modules
// can be included directly to keep compile times down; this exists for
// quick prototyping and the examples.

// Utilities.
#include "util/common.hpp"     // IWYU pragma: export
#include "util/env.hpp"        // IWYU pragma: export
#include "util/error.hpp"      // IWYU pragma: export
#include "util/rng.hpp"        // IWYU pragma: export
#include "util/stats.hpp"      // IWYU pragma: export
#include "util/table.hpp"      // IWYU pragma: export
#include "util/timer.hpp"      // IWYU pragma: export

// Virtual GPU substrate.
#include "vgpu/cpu_model.hpp"       // IWYU pragma: export
#include "vgpu/device.hpp"          // IWYU pragma: export
#include "vgpu/fault_injector.hpp"  // IWYU pragma: export
#include "vgpu/memory_model.hpp"    // IWYU pragma: export
#include "vgpu/trace.hpp"           // IWYU pragma: export

// Sparse formats.
#include "sparse/compare.hpp"     // IWYU pragma: export
#include "sparse/convert.hpp"     // IWYU pragma: export
#include "sparse/coo.hpp"         // IWYU pragma: export
#include "sparse/csr.hpp"         // IWYU pragma: export
#include "sparse/ell.hpp"         // IWYU pragma: export
#include "sparse/io.hpp"          // IWYU pragma: export
#include "sparse/ops.hpp"         // IWYU pragma: export
#include "sparse/packed_key.hpp"  // IWYU pragma: export
#include "sparse/stats.hpp"       // IWYU pragma: export
#include "sparse/validate.hpp"    // IWYU pragma: export

// Resilience: integrity guards and the self-healing solver driver.
#include "resilience/integrity.hpp"  // IWYU pragma: export
#include "solver/resilient.hpp"      // IWYU pragma: export

// Parallel primitives.
#include "primitives/balanced_path.hpp"     // IWYU pragma: export
#include "primitives/cta_radix_sort.hpp"    // IWYU pragma: export
#include "primitives/device_merge.hpp"      // IWYU pragma: export
#include "primitives/device_radix_sort.hpp" // IWYU pragma: export
#include "primitives/merge_path.hpp"        // IWYU pragma: export
#include "primitives/reduce_by_key.hpp"     // IWYU pragma: export
#include "primitives/scan.hpp"              // IWYU pragma: export
#include "primitives/search.hpp"            // IWYU pragma: export
#include "primitives/segmented_reduce.hpp"  // IWYU pragma: export
#include "primitives/set_ops.hpp"           // IWYU pragma: export
#include "primitives/sorted_search.hpp"     // IWYU pragma: export

// The paper's kernels.
#include "core/spadd.hpp"            // IWYU pragma: export
#include "core/spgemm.hpp"           // IWYU pragma: export
#include "core/spgemm_chunked.hpp"   // IWYU pragma: export
#include "core/spmm.hpp"             // IWYU pragma: export
#include "core/spmv.hpp"             // IWYU pragma: export

// Comparators and workloads.
#include "baselines/cusplike.hpp"    // IWYU pragma: export
#include "baselines/formats.hpp"     // IWYU pragma: export
#include "baselines/rowwise.hpp"     // IWYU pragma: export
#include "baselines/seq.hpp"         // IWYU pragma: export
#include "workloads/generators.hpp"  // IWYU pragma: export
#include "workloads/suite.hpp"       // IWYU pragma: export

// Serving: concurrent batched sparse-op engine (docs/serving.md).
#include "serve/engine.hpp"      // IWYU pragma: export
#include "serve/plan_cache.hpp"  // IWYU pragma: export
#include "serve/trace.hpp"       // IWYU pragma: export
