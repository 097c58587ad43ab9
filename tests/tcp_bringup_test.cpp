/// TCP mesh bring-up through the connection supervisor: every node starts
/// its protocol only once all of its own links are up (a send in on_start
/// reaches every peer, in both hello modes), and the initial links are not
/// reconnects.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "transport/tcp.hpp"

namespace delphi::transport {
namespace {

class ByteMsg final : public net::MessageBody {
 public:
  std::size_t wire_size() const override { return 1; }
  void serialize(ByteWriter& w) const override { w.u8(0x5A); }
  std::string debug() const override { return "byte"; }
};

Decoder byte_decoder() {
  return [](std::uint32_t, ByteReader& r) -> net::MessagePtr {
    DELPHI_REQUIRE(r.u8() == 0x5A, "bad byte message");
    return std::make_shared<ByteMsg>();
  };
}

/// Sends one byte to every peer in on_start; terminates once every peer's
/// byte arrived. A link that was not up at on_start would lose its byte
/// (a legacy link is never re-established) and the run would time out.
class PingAll final : public net::Protocol {
 public:
  void on_start(net::Context& ctx) override {
    n_ = ctx.n();
    for (NodeId to = 0; to < ctx.n(); ++to) {
      if (to != ctx.self()) ctx.send(to, 0, std::make_shared<ByteMsg>());
    }
  }
  void on_message(net::Context&, NodeId, std::uint32_t,
                  const net::MessageBody&) override {
    ++got_;
  }
  bool terminated() const override { return n_ > 0 && got_ + 1 == n_; }

 private:
  std::size_t n_ = 0;
  std::size_t got_ = 0;
};

void expect_clean_bring_up(bool recovery, bool auth) {
  TcpCluster::Options opts;
  opts.n = 7;
  opts.auth = auth;
  opts.recovery = recovery;
  opts.timeout_ms = 20'000;
  TcpCluster cluster(opts);
  cluster.start([](NodeId) { return std::make_unique<PingAll>(); },
                byte_decoder());
  ASSERT_TRUE(cluster.wait());
  EXPECT_TRUE(cluster.failures().empty());
  for (NodeId i = 0; i < opts.n; ++i) {
    const auto& m = cluster.metrics(i);
    EXPECT_EQ(m.msgs_sent, opts.n - 1) << "node " << i;
    EXPECT_EQ(m.msgs_delivered, opts.n - 1) << "node " << i;
    // The initial mesh is not a recovery event.
    EXPECT_EQ(m.reconnects, 0u) << "node " << i;
    EXPECT_EQ(m.catchup_frames, 0u) << "node " << i;
  }
}

TEST(TcpBringUp, LegacyHelloMeshIsCompleteAtStart) {
  expect_clean_bring_up(/*recovery=*/false, /*auth=*/true);
  expect_clean_bring_up(/*recovery=*/false, /*auth=*/false);
}

TEST(TcpBringUp, CountedHelloMeshIsCompleteAtStart) {
  expect_clean_bring_up(/*recovery=*/true, /*auth=*/true);
  expect_clean_bring_up(/*recovery=*/true, /*auth=*/false);
}

}  // namespace
}  // namespace delphi::transport
