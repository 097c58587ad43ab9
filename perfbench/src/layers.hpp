#pragma once
/// \file layers.hpp
/// Isolated timings of the per-frame layers, taken through their public
/// calls at a given frame size (the mean frame size a workload measured).

namespace perfbench {

struct LayerTimes {
  /// One link MAC: crypto::HmacKey::tag over a frame body (stream links) or
  /// transport::udp_frame_tag (datagram links).
  double mac_ns = 0.0;
  /// transport::encode_frame_body + transport::frame_tag for one frame.
  double encode_ns = 0.0;
  /// transport::FrameParser feed + next_view (MAC verification included).
  double parse_ns = 0.0;
};

/// Times each layer at `frame_bytes` on-wire bytes per frame.
LayerTimes time_layers(double frame_bytes, bool udp);

}  // namespace perfbench
