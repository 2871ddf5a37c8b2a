#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "telemetry/metrics.hpp"

/// \file registry.hpp
/// The kernel factory. Tools and options structs carry a backend
/// *name*; build_kernel turns it into a kernel once per solve, at setup
/// time. A backend is one branch of build_kernel:
///   "scalar" — BlockJacobiKernel, the full KernelConfig.
///   "simd"   — SimdBlockSweepKernel (AVX2/FMA padded slices); Jacobi
///              sweeps, overlap 0.
///   "auto"   — "simd" when simd_available(), else "scalar" ("" too).
///
/// Degradation policy: when the SIMD kernel throws backend_unsupported
/// (AVX2+FMA missing, or a configuration it cannot express), the
/// kernel is built on "scalar" instead — recorded on the caller's
/// MetricsRegistry as `backend_fallbacks` plus a per-backend
/// `backend_used_<name>` counter. Unknown names always throw
/// std::invalid_argument: a typo is a bug, a missing ISA is an
/// environment.

namespace bars::backend {

/// The kernels build_kernel can build.
enum class BackendKind { kScalar, kSimd };

/// The backend names, "scalar" then "simd" ("auto" is a selection
/// alias, not listed).
[[nodiscard]] std::vector<std::string> backend_names();

/// The kernel build_kernel tries first for `name` when the SIMD kernel
/// is (`simd`) or is not available: "auto" and "" pick kSimd only when
/// it is. Throws std::invalid_argument for unknown names (the message
/// lists the valid ones).
[[nodiscard]] BackendKind resolve_backend(const std::string& name, bool simd);

/// The one kernel factory every solver front-end uses: resolve `name`
/// against simd_available(), then build that kernel — degrading to
/// "scalar" when the SIMD kernel throws backend_unsupported (counted as
/// a fallback). When `metrics` is non-null, `backend_used_<name>`
/// counts the kernel built. Input errors (std::invalid_argument from
/// the kernel constructor) propagate unchanged.
[[nodiscard]] std::unique_ptr<BlockSweepKernel> build_kernel(
    const std::string& name, const Csr& a, const Vector& b,
    RowPartition partition, const KernelConfig& config,
    telemetry::MetricsRegistry* metrics = nullptr);

}  // namespace bars::backend
