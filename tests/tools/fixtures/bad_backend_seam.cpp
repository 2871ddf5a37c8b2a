// Seeded violations for the backend-seam rule: direct construction of
// concrete block-sweep kernels outside src/backend bypasses
// build_kernel's availability fallback and telemetry counters. Linted with
// --treat-as src/core.
#include <memory>

#include "backend/block_jacobi_kernel.hpp"
#include "backend/simd_kernel.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace bars {

void direct_stack_construction(const Csr& a, const Vector& b,
                               const RowPartition& part) {
  BlockJacobiKernel kernel(a, b, part, 5);  // caught
  (void)kernel;
}

void direct_heap_construction(const Csr& a, const Vector& b,
                              RowPartition part) {
  auto k1 = std::make_unique<BlockJacobiKernel>(a, b, part, 5);  // caught
  auto* k2 = new backend::SimdBlockSweepKernel(a, b, part, {});  // caught
  delete k2;
}

// Naming the types (members, docs references) stays clean: only
// construction is the seam violation.
const char* describe() { return "BlockJacobiKernel::update"; }

}  // namespace bars
