#include "core/whatif.hpp"

#include <algorithm>

#include "core/flow_view.hpp"
#include "net/ports.hpp"

namespace bw::core {

std::string_view to_string(Strategy s) {
  switch (s) {
    case Strategy::kRtbhObserved: return "rtbh-observed";
    case Strategy::kRtbhPerfect: return "rtbh-perfect";
    case Strategy::kRtbhTargeted: return "rtbh-targeted";
    case Strategy::kFlowspecAmpPorts: return "flowspec-amp-ports";
    case Strategy::kAdvancedBlackholing: return "advanced-blackholing";
  }
  return "unknown";
}

namespace {

constexpr auto kUdp = static_cast<std::uint8_t>(net::Proto::kUdp);

bool is_amp_source(const flow::FlowColumns& c, std::size_t i) {
  return c.proto[i] == kUdp && net::is_amplification_port(c.src_port[i]);
}

bool is_attack_packet(const flow::FlowColumns& c, std::size_t i) {
  if (c.proto[i] != kUdp) return false;
  if (is_amp_source(c, i)) return true;
  // UDP towards an ephemeral destination port during an attack event:
  // reflection lands on the port the attacker spoofed, carpet floods sweep
  // high ports. Gaming clients also live here — that ambiguity is exactly
  // the whitelisting problem Section 7.2 describes.
  return c.dst_port[i] >= 1024;
}

bool in_active_span(const RtbhEvent& ev, util::TimeMs t) {
  auto it = std::upper_bound(ev.active.begin(), ev.active.end(), t,
                             [](util::TimeMs v, const util::TimeRange& r) {
                               return v < r.begin;
                             });
  if (it == ev.active.begin()) return false;
  --it;
  return it->contains(t);
}

}  // namespace

WhatIfReport compute_whatif(const Dataset& dataset,
                            const std::vector<RtbhEvent>& events,
                            const PreRtbhReport& pre) {
  WhatIfReport report;
  for (std::size_t s = 0; s < kStrategyCount; ++s) {
    report.outcomes[s].strategy = static_cast<Strategy>(s);
  }

  const FlowView view = dataset.view();
  std::vector<std::uint8_t> attack_peer(dataset.source_as_count());
  for (std::size_t e = 0; e < events.size(); ++e) {
    if (e >= pre.per_event.size() || !pre.per_event[e].anomaly_within_10min) {
      continue;
    }
    const auto& ev = events[e];

    // Pass 1: which handover ASes carry attack traffic in this event? Dense
    // member ids stand for the handover MACs' member ASes (one id per AS),
    // so a flag per id is the attacking-peer set.
    std::size_t matched = 0;
    std::fill(attack_peer.begin(), attack_peer.end(), std::uint8_t{0});
    view.for_each_dst_row(ev.prefix, ev.span,
                          [&](const flow::FlowColumns& cols, std::size_t i) {
      ++matched;
      const std::uint32_t m = cols.src_member[i];
      if (m != flow::FlowColumns::kNoMember && is_attack_packet(cols, i)) {
        attack_peer[m] = 1;
      }
    });
    if (matched == 0) continue;
    ++report.events_considered;

    // Pass 2: evaluate every strategy per sampled packet.
    view.for_each_dst_row(ev.prefix, ev.span,
                          [&](const flow::FlowColumns& cols, std::size_t i) {
      const bool attack = is_attack_packet(cols, i);
      const bool active = in_active_span(ev, cols.time[i]);
      const std::uint32_t m = cols.src_member[i];
      const bool from_attack_peer =
          m != flow::FlowColumns::kNoMember && attack_peer[m] != 0;

      const bool amp_match = is_amp_source(cols, i);
      const bool advanced_match =
          amp_match || (cols.proto[i] == kUdp && cols.dst_port[i] >= 1024);

      const std::array<bool, kStrategyCount> dropped{
          cols.dropped(i),             // observed
          active,                      // perfect RTBH
          active && from_attack_peer,  // targeted
          amp_match,                   // FlowSpec
          advanced_match,              // advanced BH
      };
      const std::uint64_t pk = cols.packets[i];
      for (std::size_t s = 0; s < kStrategyCount; ++s) {
        auto& o = report.outcomes[s];
        if (attack) {
          o.attack_packets += pk;
          if (dropped[s]) o.attack_dropped += pk;
        } else {
          o.legit_packets += pk;
          if (dropped[s]) o.legit_dropped += pk;
        }
      }
    });
  }
  return report;
}

}  // namespace bw::core
