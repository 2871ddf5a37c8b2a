#include "backend/registry.hpp"

#include <stdexcept>
#include <string_view>
#include <utility>

#include "backend/block_jacobi_kernel.hpp"
#include "backend/simd_kernel.hpp"

namespace bars::backend {

namespace {

/// Count a build on the caller's registry. Setup path: may allocate
/// (the record-hot contract applies to inc(), not here).
void count_use(telemetry::MetricsRegistry* metrics, std::string_view used,
               bool fell_back) {
  if (metrics == nullptr) return;
  metrics->counter("backend_used_" + std::string(used)).inc();
  if (fell_back) metrics->counter("backend_fallbacks").inc();
}

}  // namespace

std::vector<std::string> backend_names() { return {"scalar", "simd"}; }

BackendKind resolve_backend(const std::string& name, bool simd) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "simd") return BackendKind::kSimd;
  if (name.empty() || name == "auto") {
    return simd ? BackendKind::kSimd : BackendKind::kScalar;
  }
  std::string valid;
  for (const auto& n : backend_names()) {
    valid += (valid.empty() ? "" : ", ") + n;
  }
  throw std::invalid_argument("unknown backend '" + name +
                              "'; valid backends: " + valid + " (or 'auto')");
}

std::unique_ptr<BlockSweepKernel> build_kernel(
    const std::string& name, const Csr& a, const Vector& b,
    RowPartition partition, const KernelConfig& config,
    telemetry::MetricsRegistry* metrics) {
  bool fell_back = false;
  if (resolve_backend(name, simd_available()) == BackendKind::kSimd) {
    try {
      // Pass a copy: `partition` must survive for the scalar retry below.
      auto kernel = std::make_unique<SimdBlockSweepKernel>(a, b, partition,
                                                           config);
      count_use(metrics, "simd", /*fell_back=*/false);
      return kernel;
    } catch (const backend_unsupported&) {
      // No AVX2+FMA here, or a configuration the SIMD kernel cannot
      // express (Gauss-Seidel sweeps, overlap): degrade to scalar,
      // which supports the full KernelConfig surface.
      fell_back = true;
    }
  }
  count_use(metrics, "scalar", fell_back);
  return std::make_unique<BlockJacobiKernel>(
      a, b, std::move(partition), config.local_iters, config.sweep,
      config.local_omega, config.overlap);
}

}  // namespace bars::backend
