#include "common/cancel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "matrices/generators.hpp"

namespace bars {
namespace {

TEST(CancelToken, FirstReasonWins) {
  common::CancelToken t;
  EXPECT_FALSE(t.requested());
  EXPECT_EQ(t.reason(), common::CancelReason::kNone);

  t.request_cancel(common::CancelReason::kDeadline);
  EXPECT_TRUE(t.requested());
  EXPECT_EQ(t.reason(), common::CancelReason::kDeadline);

  // A later request cannot relabel the abort.
  t.request_cancel(common::CancelReason::kUser);
  EXPECT_EQ(t.reason(), common::CancelReason::kDeadline);
}

TEST(CancelToken, ResetRearms) {
  common::CancelToken t;
  t.request_cancel();
  EXPECT_TRUE(t.requested());
  EXPECT_EQ(t.reason(), common::CancelReason::kUser);
  t.reset();
  EXPECT_FALSE(t.requested());
  EXPECT_EQ(t.reason(), common::CancelReason::kNone);
}

TEST(CancelToken, ParentLinkPropagatesRequestAndReason) {
  common::CancelToken parent;
  common::CancelToken attempt;
  attempt.set_parent(&parent);
  EXPECT_FALSE(attempt.requested());

  // Request-level cancel reaches the attempt; the attempt reports the
  // parent's reason because it was never tripped directly.
  parent.request_cancel(common::CancelReason::kUser);
  EXPECT_TRUE(attempt.requested());
  EXPECT_EQ(attempt.reason(), common::CancelReason::kUser);
  EXPECT_FALSE(parent.requested() && attempt.reason() !=
               common::CancelReason::kUser);

  // A directly-tripped attempt reports its own reason even though the
  // parent tripped first — the attempt-local verdict wins.
  attempt.request_cancel(common::CancelReason::kDeadline);
  EXPECT_EQ(attempt.reason(), common::CancelReason::kDeadline);
  EXPECT_EQ(parent.reason(), common::CancelReason::kUser);

  // reset() re-arms the attempt but keeps the parent link.
  attempt.reset();
  EXPECT_TRUE(attempt.requested());  // parent still tripped
  EXPECT_EQ(attempt.reason(), common::CancelReason::kUser);
}

TEST(CancelToken, ParentLinkLeavesSiblingsIndependent) {
  common::CancelToken parent;
  common::CancelToken a;
  common::CancelToken b;
  a.set_parent(&parent);
  b.set_parent(&parent);

  a.request_cancel(common::CancelReason::kHedge);
  EXPECT_TRUE(a.requested());
  EXPECT_FALSE(b.requested());
  EXPECT_FALSE(parent.requested());
  EXPECT_EQ(b.reason(), common::CancelReason::kNone);
}

// Many threads race distinct reasons into one token: exactly one reason
// must win, every thread must observe the token requested afterwards,
// and the winner must be the reason some thread actually submitted.
// Run under TSan in CI (suite name is in the TSan filter).
TEST(CancelTokenConcurrent, FirstReasonWinsUnderContention) {
  static constexpr std::array<common::CancelReason, 4> kReasons = {
      common::CancelReason::kUser, common::CancelReason::kDeadline,
      common::CancelReason::kWatchdog, common::CancelReason::kHedge};
  for (int round = 0; round < 200; ++round) {
    common::CancelToken t;
    std::atomic<int> start{0};
    std::vector<std::thread> threads;
    threads.reserve(kReasons.size());
    for (const common::CancelReason r : kReasons) {
      threads.emplace_back([&t, &start, r] {
        start.fetch_add(1);
        while (start.load() < static_cast<int>(kReasons.size())) {
        }
        t.request_cancel(r);
        EXPECT_TRUE(t.requested());
      });
    }
    for (std::thread& th : threads) th.join();
    const common::CancelReason winner = t.reason();
    EXPECT_TRUE(winner == common::CancelReason::kUser ||
                winner == common::CancelReason::kDeadline ||
                winner == common::CancelReason::kWatchdog ||
                winner == common::CancelReason::kHedge);
    // Once settled, the reason is stable.
    t.request_cancel(common::CancelReason::kUser);
    EXPECT_EQ(t.reason(), winner);
  }
}

TEST(CancelTokenConcurrent, ParentTripRacesAttemptPolls) {
  common::CancelToken parent;
  common::CancelToken attempt;
  attempt.set_parent(&parent);
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!attempt.requested() && !stop.load()) {
    }
    EXPECT_TRUE(attempt.requested());
  });
  parent.request_cancel(common::CancelReason::kDeadline);
  poller.join();
  stop.store(true);
  EXPECT_EQ(attempt.reason(), common::CancelReason::kDeadline);
}

TEST(CancelToken, NullSafeHelper) {
  EXPECT_FALSE(common::cancel_requested(nullptr));
  common::CancelToken t;
  EXPECT_FALSE(common::cancel_requested(&t));
  t.request_cancel();
  EXPECT_TRUE(common::cancel_requested(&t));
}

TEST(Cancel, ConvergenceBeatsCancellation) {
  // Cancellation never downgrades a solve whose iterate already passes
  // the tolerance test: every solver checks convergence before polling
  // the token. With a tolerance the initial iterate already satisfies
  // (x0 = 0 starts at relative residual 1.0), even a pre-tripped token
  // yields kConverged.
  const Csr a = fv_like(8, 0.5);
  const Vector b(static_cast<std::size_t>(a.rows()), 1.0);

  common::CancelToken token;
  token.request_cancel();
  RegistrySolveOptions o;
  o.solve.max_iters = 1000;
  o.solve.tol = 1.0;
  o.solve.cancel = &token;
  const SolveResult r = find_solver("jacobi")(a, b, o);
  EXPECT_EQ(r.status, SolverStatus::kConverged);
  EXPECT_LE(r.final_residual, 1.0);
}

}  // namespace
}  // namespace bars
