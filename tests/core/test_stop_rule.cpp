#include "common/stop_rule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "core/nonlinear.hpp"
#include "core/registry.hpp"
#include "matrices/generators.hpp"
#include "telemetry/observer.hpp"

namespace bars {
namespace {

TEST(StopRule, ChecksInOneFixedOrder) {
  common::CancelToken token;
  token.request_cancel();
  const StopRule rule{.max_iters = 5, .tol = 1e-3, .divergence_limit = 1e3,
                      .cancel = &token};
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  // Converged beats everything, at the limit and under cancellation.
  EXPECT_EQ(rule.verdict(9, 1e-3), SolverStatus::kConverged);
  // Diverged beats aborted and the limit.
  EXPECT_EQ(rule.verdict(9, nan), SolverStatus::kDiverged);
  EXPECT_EQ(rule.verdict(9, 1e4), SolverStatus::kDiverged);
  // Aborted beats the limit.
  EXPECT_EQ(rule.verdict(9, 1.0), SolverStatus::kAborted);

  const StopRule live{.max_iters = 5, .tol = 1e-3};
  EXPECT_EQ(live.verdict(5, 1.0), SolverStatus::kMaxIterations);
  EXPECT_FALSE(live.verdict(4, 1.0).has_value());
  EXPECT_FALSE(live.cancelled());
  EXPECT_TRUE(rule.cancelled());
}

TEST(StopRule, EstimateVerdictWidensOnlyTheTolerance) {
  const StopRule rule{.max_iters = 5, .tol = 1e-3, .divergence_limit = 1e3};
  EXPECT_EQ(rule.estimate_verdict(1, 5e-3, 10.0), SolverStatus::kConverged);
  EXPECT_FALSE(rule.estimate_verdict(1, 5e-2, 10.0).has_value());
  EXPECT_EQ(rule.estimate_verdict(1, 1e4, 10.0), SolverStatus::kDiverged);
  // An estimate of exactly 0 is within any margin, even with tol 0.
  const StopRule exact{.tol = 0.0};
  EXPECT_EQ(exact.estimate_verdict(1, 0.0,
                                   std::numeric_limits<value_t>::infinity()),
            SolverStatus::kConverged);
}

/// Every registry solver plus the two nonlinear ones (cubic phi).
std::vector<std::string> conformance_names() {
  std::vector<std::string> names = solver_names();
  names.emplace_back("nonlinear-block-async");
  names.emplace_back("nonlinear-jacobi");
  return names;
}

SolveResult run_solver(const std::string& name, const Csr& a, const Vector& b,
                       const RegistrySolveOptions& o) {
  if (name == "nonlinear-block-async") {
    NonlinearAsyncOptions no;
    no.solve = o.solve;
    no.block_size = o.block_size;
    no.local_iters = o.local_iters;
    no.seed = o.seed;
    return nonlinear_block_async_solve(a, b, cubic_nonlinearity(0.5), no)
        .solve;
  }
  if (name == "nonlinear-jacobi") {
    return nonlinear_jacobi_solve(a, b, cubic_nonlinearity(0.5), o.solve);
  }
  return find_solver(name)(a, b, o);
}

/// Options under which no solver converges on its own: only the row's
/// own setting can stop the solve at boundary 0.
RegistrySolveOptions unreachable_options() {
  RegistrySolveOptions o;
  o.solve.max_iters = 50000;
  o.solve.tol = 1e-300;
  o.block_size = 32;
  o.local_iters = 2;
  o.num_threads = 2;
  return o;
}

/// Counts the observer callbacks and keeps their order and each
/// iteration event's residual.
class CountingObserver final : public telemetry::SolveObserver {
 public:
  void on_start(const telemetry::SolveStartEvent&) override { seq += 'S'; }
  void on_iteration(const telemetry::IterationEvent& ev) override {
    seq += 'I';
    residuals.push_back(ev.residual);
  }
  void on_finish(const telemetry::SolveFinishEvent& ev) override {
    seq += 'F';
    finish = ev;
  }
  [[nodiscard]] long count(char c) const {
    return static_cast<long>(std::count(seq.begin(), seq.end(), c));
  }

  std::string seq;
  std::vector<value_t> residuals;
  telemetry::SolveFinishEvent finish;
};

/// One stopping rule for every solver: the same verdicts at boundary 0,
/// and the same start / iteration / finish event stream.
class StopConformance : public ::testing::TestWithParam<std::string> {
 protected:
  // 15 = 2^4 - 1 so the multigrid entries can build a hierarchy.
  const Csr a_ = fv_like(15, 0.8);
  Vector ones_ = Vector(static_cast<std::size_t>(a_.rows()), 1.0);

  void expect_stops_at_zero(const SolveResult& r, SolverStatus want) const {
    EXPECT_EQ(r.status, want) << GetParam() << ": " << to_string(r.status);
    EXPECT_EQ(r.iterations, 0) << GetParam();
    EXPECT_EQ(r.residual_history.size(), 1U) << GetParam();
  }
};

/// The cancel row keeps the test ids it had before the suite existed.
using CancelAllSolvers = StopConformance;

TEST_P(StopConformance, ZeroRhsConvergesAtBoundaryZero) {
  const Vector zero(ones_.size(), 0.0);
  const SolveResult r =
      run_solver(GetParam(), a_, zero, unreachable_options());
  expect_stops_at_zero(r, SolverStatus::kConverged);
  EXPECT_EQ(r.final_residual, 0.0) << GetParam();
}

TEST_P(StopConformance, TolAtInitialResidualConvergesAtBoundaryZero) {
  RegistrySolveOptions o = unreachable_options();
  o.solve.tol = 1.0;  // x0 = 0 starts at relative residual exactly 1
  const SolveResult r = run_solver(GetParam(), a_, ones_, o);
  expect_stops_at_zero(r, SolverStatus::kConverged);
  EXPECT_EQ(r.final_residual, 1.0) << GetParam();
}

TEST_P(CancelAllSolvers, PreTrippedTokenAbortsPromptly) {
  common::CancelToken token;
  token.request_cancel();
  RegistrySolveOptions o = unreachable_options();
  o.solve.cancel = &token;
  expect_stops_at_zero(run_solver(GetParam(), a_, ones_, o),
                       SolverStatus::kAborted);
}

TEST_P(StopConformance, InitialResidualAboveLimitDivergesAtBoundaryZero) {
  RegistrySolveOptions o = unreachable_options();
  o.solve.divergence_limit = 0.5;
  expect_stops_at_zero(run_solver(GetParam(), a_, ones_, o),
                       SolverStatus::kDiverged);
}

TEST_P(StopConformance, NanInRhsDivergesAtBoundaryZero) {
  Vector b = ones_;
  b[7] = std::numeric_limits<value_t>::quiet_NaN();
  const SolveResult r = run_solver(GetParam(), a_, b, unreachable_options());
  expect_stops_at_zero(r, SolverStatus::kDiverged);
  EXPECT_TRUE(std::isnan(r.final_residual)) << GetParam();
}

TEST_P(StopConformance, ObservedRunBracketsOneEventPerBoundary) {
  CountingObserver obs;
  RegistrySolveOptions o = unreachable_options();
  o.solve.max_iters = 40;
  o.solve.tol = 1e-6;
  o.solve.telemetry.observer = &obs;
  const SolveResult r = run_solver(GetParam(), a_, ones_, o);
  ASSERT_FALSE(obs.seq.empty()) << GetParam();
  EXPECT_EQ(obs.seq.front(), 'S') << GetParam();
  EXPECT_EQ(obs.seq.back(), 'F') << GetParam();
  EXPECT_EQ(obs.count('S'), 1) << GetParam();
  EXPECT_EQ(obs.count('F'), 1) << GetParam();
  EXPECT_EQ(obs.count('I'), r.iterations + 1) << GetParam();
  EXPECT_EQ(obs.finish.status, r.status) << GetParam();
  EXPECT_EQ(obs.finish.iterations, r.iterations) << GetParam();
  EXPECT_EQ(obs.finish.final_residual, r.final_residual) << GetParam();
  // Observers and the history see the same value at every boundary.
  EXPECT_EQ(obs.residuals, r.residual_history) << GetParam();
}

TEST_P(StopConformance, EmptySystemConvergesAtBoundaryZero) {
  const Csr empty(0, 0, {0}, {}, {});
  const Vector b;
  // The multigrid entries need an fv_like grid, and scaled-jacobi an
  // iteration matrix with a spectrum: none exists for 0 x 0.
  const std::string& name = GetParam();
  if (name == "mg" || name == "mg-async" || name == "fcg-mg" ||
      name == "scaled-jacobi") {
    EXPECT_THROW((void)run_solver(name, empty, b, unreachable_options()),
                 std::invalid_argument)
        << name;
    return;
  }
  CountingObserver obs;
  RegistrySolveOptions o = unreachable_options();
  o.solve.telemetry.observer = &obs;
  const SolveResult r = run_solver(name, empty, b, o);
  expect_stops_at_zero(r, SolverStatus::kConverged);
  EXPECT_EQ(obs.seq, "SIF") << name;
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, StopConformance,
                         ::testing::ValuesIn(conformance_names()), param_name);
INSTANTIATE_TEST_SUITE_P(AllSolvers, CancelAllSolvers,
                         ::testing::ValuesIn(conformance_names()), param_name);

}  // namespace
}  // namespace bars
