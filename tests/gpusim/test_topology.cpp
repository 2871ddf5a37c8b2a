#include "gpusim/topology.hpp"

#include <gtest/gtest.h>

namespace bars::gpusim {
namespace {

TEST(Link, AcquireSerializesTransfers) {
  Link l;
  EXPECT_DOUBLE_EQ(l.acquire(0.0, 1.0), 1.0);
  // Second transfer ready at 0.5 must queue behind the first.
  EXPECT_DOUBLE_EQ(l.acquire(0.5, 1.0), 2.0);
  // Third ready after the link idles: starts immediately.
  EXPECT_DOUBLE_EQ(l.acquire(5.0, 0.5), 5.5);
}

TEST(Link, ResetClearsHorizon) {
  Link l;
  (void)l.acquire(0.0, 3.0);
  l.reset();
  EXPECT_DOUBLE_EQ(l.busy_until(), 0.0);
}

TEST(Topology, SocketAssignmentPairsDevices) {
  Topology t(4, InterconnectSpec::supermicro_x8dtg());
  EXPECT_EQ(t.socket_of(0), 0);
  EXPECT_EQ(t.socket_of(1), 0);
  EXPECT_EQ(t.socket_of(2), 1);
  EXPECT_EQ(t.socket_of(3), 1);
  EXPECT_FALSE(t.crosses_qpi(0, 1));
  EXPECT_TRUE(t.crosses_qpi(1, 2));
  EXPECT_FALSE(t.crosses_qpi(2, 3));
}

TEST(Topology, P2pDeratedAcrossQpi) {
  Topology t(4, InterconnectSpec::supermicro_x8dtg());
  const value_t same = t.p2p_transfer_duration(1.0e6, 0, 1);
  const value_t cross = t.p2p_transfer_duration(1.0e6, 0, 2);
  EXPECT_GT(cross, same);
}

TEST(Topology, HostTransferMatchesSpec) {
  const auto spec = InterconnectSpec::supermicro_x8dtg();
  Topology t(2, spec);
  const value_t d = t.host_transfer_duration(spec.pcie_bandwidth_gbs * 1e9);
  EXPECT_NEAR(d, 1.0 + spec.pcie_latency_s, 1e-12);
}

TEST(Topology, PerDeviceLinksAreIndependent) {
  Topology t(2, InterconnectSpec::supermicro_x8dtg());
  (void)t.pcie(0).acquire(0.0, 1.0);
  EXPECT_DOUBLE_EQ(t.pcie(1).busy_until(), 0.0);
}

TEST(Topology, RejectsBadDeviceCount) {
  EXPECT_THROW(Topology(0, InterconnectSpec::supermicro_x8dtg()),
               std::invalid_argument);
}

TEST(Topology, BadDeviceIndexThrows) {
  Topology t(2, InterconnectSpec::supermicro_x8dtg());
  EXPECT_THROW((void)t.socket_of(2), std::out_of_range);
  EXPECT_THROW((void)t.pcie(-1), std::out_of_range);
}

TEST(TransferScheme, Names) {
  EXPECT_EQ(to_string(TransferScheme::kNone), "none");
  EXPECT_EQ(to_string(TransferScheme::kAMC), "AMC");
  EXPECT_EQ(to_string(TransferScheme::kDC), "DC");
  EXPECT_EQ(to_string(TransferScheme::kDK), "DK");
}

}  // namespace
}  // namespace bars::gpusim
