#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "transport/frame.hpp"
#include "transport/udp.hpp"

namespace perfbench {

namespace {

namespace crypto = delphi::crypto;
namespace transport = delphi::transport;

/// Channel of a mid-pipeline mux instance (sid 500, in-window channel 0):
/// three uvarint bytes, as most frames of a 1000-instance batch carry.
constexpr std::uint32_t kChannel = 500u << 16;

/// Every timed result feeds this, so no timed call is dead code.
volatile std::uint64_t g_sink = 0;

/// Median over 5 repetitions of the mean ns per call of `op`, each
/// repetition running at least 20 ms.
template <typename Op>
double ns_per_call(Op&& op) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    auto t1 = t0;
    do {
      for (int i = 0; i < 256; ++i) op();
      calls += 256;
      t1 = Clock::now();
    } while (t1 - t0 < std::chrono::milliseconds(20));
    reps.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   static_cast<double>(calls));
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

}  // namespace

LayerTimes time_layers(double frame_bytes, bool udp) {
  // frame = u32 length + channel uvarint + payload + tag.
  const std::size_t overhead = 4 + delphi::uvarint_size(kChannel) + crypto::kMacTagSize;
  const std::size_t payload_size =
      frame_bytes > static_cast<double>(overhead + 1)
          ? static_cast<std::size_t>(frame_bytes + 0.5) - overhead
          : 1;
  std::vector<std::uint8_t> payload(payload_size);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  crypto::Key raw{};
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i] = static_cast<std::uint8_t>(i);
  const crypto::HmacKey key(raw);
  const auto body = transport::encode_frame_body(kChannel, payload, true);
  const std::vector<std::uint8_t> frame = transport::encode_frame(kChannel, payload, &key);

  std::uint64_t sink = 0;
  std::uint32_t seq = 0;
  LayerTimes t;
  t.mac_ns = udp ? ns_per_call([&] { sink += transport::udp_frame_tag(key, ++seq, *body)[0]; })
                 : ns_per_call([&] {
                     sink += key.tag(std::span<const std::uint8_t>(*body).subspan(4))[0];
                   });
  t.encode_ns = ns_per_call([&] {
    const auto b = transport::encode_frame_body(kChannel, payload, true);
    sink += transport::frame_tag(key, *b)[0];
  });
  transport::FrameParser parser(&key);
  t.parse_ns = ns_per_call([&] {
    parser.feed(frame);
    sink += parser.next_view()->payload.size();
  });
  g_sink = sink;
  return t;
}

}  // namespace perfbench
