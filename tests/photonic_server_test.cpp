#include <gtest/gtest.h>

#include "core/photonic_server.hpp"

namespace lp::core {
namespace {

TEST(PhotonicServer, ConnectByAcceleratorId) {
  PhotonicServer server{8};
  auto id = server.connect(0, 5, 4);
  ASSERT_TRUE(id.ok()) << id.error().message;
  EXPECT_NEAR(server.bandwidth_between(0, 5).to_gbps(), 4 * 224.0, 1e-6);
  EXPECT_NEAR(server.bandwidth_between(5, 0).to_gbps(), 0.0, 1e-12)
      << "circuits are unidirectional";
  server.disconnect(id.value());
}

TEST(PhotonicServer, RejectsOutOfRange) {
  PhotonicServer server{8};
  EXPECT_EQ(server.accelerator_count(), 8u);
  EXPECT_FALSE(server.connect(0, 8, 1).ok());
  EXPECT_FALSE(server.connect(9, 0, 1).ok());
}

TEST(PhotonicServer, ProvisionRingAllEdges) {
  PhotonicServer server{8};
  const std::vector<std::uint32_t> order{0, 1, 2, 3, 4, 5, 6, 7};
  auto ring = server.provision_ring(order, 16);
  ASSERT_TRUE(ring.ok()) << ring.error().message;
  EXPECT_EQ(ring.value().size(), 8u);
  // Every edge carries the full redirected bandwidth.
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_NEAR(
        server.bandwidth_between(order[i], order[(i + 1) % order.size()]).to_gBps(),
        448.0, 1e-6);
  }
  EXPECT_NEAR(server.tx_utilization(), 1.0, 1e-12) << "all lasers committed";
  server.release(ring.value());
  EXPECT_NEAR(server.tx_utilization(), 0.0, 1e-12);
  EXPECT_EQ(server.fabric().active_circuits(), 0u);
}

TEST(PhotonicServer, RingFailureRollsBack) {
  PhotonicServer server{4};
  // Consume accelerator 2's Tx budget so the ring cannot complete.
  auto hog = server.connect(2, 0, 16);
  ASSERT_TRUE(hog.ok());
  auto ring = server.provision_ring({0, 1, 2, 3}, 4);
  EXPECT_FALSE(ring.ok());
  // Only the hog circuit remains.
  EXPECT_EQ(server.fabric().active_circuits(), 1u);
  server.disconnect(hog.value());
}

TEST(PhotonicServer, BandwidthMatrixShape) {
  PhotonicServer server{4};
  ASSERT_TRUE(server.connect(1, 3, 2).ok());
  const auto matrix = server.bandwidth_matrix_gBps();
  ASSERT_EQ(matrix.size(), 16u);
  EXPECT_NEAR(matrix[1 * 4 + 3], 2 * 28.0, 1e-6);  // 2 x 224 Gbps = 56 GB/s
  EXPECT_NEAR(matrix[3 * 4 + 1], 0.0, 1e-12);
  double sum = 0.0;
  for (double v : matrix) sum += v;
  EXPECT_NEAR(sum, 56.0, 1e-6) << "only one circuit live";
}

TEST(PhotonicServer, RedirectionChangesMatrix) {
  // The paper's core capability at API level: tear down one neighbor's
  // circuits, re-aim at another, full bandwidth follows.
  PhotonicServer server{8};
  auto first = server.connect(0, 1, 16);
  ASSERT_TRUE(first.ok());
  EXPECT_NEAR(server.bandwidth_between(0, 1).to_gBps(), 448.0, 1e-6);
  server.disconnect(first.value());
  // Stale entries in the pair table are pruned via release().
  server.release({});
  auto second = server.connect(0, 7, 16);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_NEAR(server.bandwidth_between(0, 7).to_gBps(), 448.0, 1e-6);
}

}  // namespace
}  // namespace lp::core
