#include "core/participation.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/flow_view.hpp"
#include "net/ports.hpp"

namespace bw::core {

ParticipationReport compute_participation(const Dataset& dataset,
                                          const std::vector<RtbhEvent>& events,
                                          const PreRtbhReport& pre) {
  ParticipationReport report;
  struct Tally {
    std::size_t events{0};
    std::uint64_t packets{0};
  };
  std::unordered_map<bgp::Asn, Tally> handover;
  std::unordered_map<bgp::Asn, Tally> origins;
  std::uint64_t total_packets = 0;
  std::uint64_t total_amplifiers = 0;
  std::uint64_t total_handover = 0;
  std::uint64_t total_origins = 0;
  const FlowView view = dataset.view();
  constexpr auto kUdp = static_cast<std::uint8_t>(net::Proto::kUdp);

  for (std::size_t e = 0; e < events.size(); ++e) {
    if (e >= pre.per_event.size() || !pre.per_event[e].anomaly_within_10min) {
      continue;
    }
    const auto& ev = events[e];
    std::unordered_set<std::uint32_t> amplifiers;
    std::unordered_set<bgp::Asn> ev_handover;
    std::unordered_set<bgp::Asn> ev_origins;
    std::unordered_map<bgp::Asn, std::uint64_t> ev_handover_pkts;
    std::unordered_map<bgp::Asn, std::uint64_t> ev_origin_pkts;

    view.for_each_dst_row(ev.prefix, ev.span,
                          [&](const flow::FlowColumns& cols, std::size_t i) {
      if (cols.proto[i] != kUdp || !net::is_amplification_port(cols.src_port[i])) {
        return;
      }
      const std::uint64_t pk = cols.packets[i];
      amplifiers.insert(cols.src_ip[i]);
      // The dense member id resolves to the handover MAC's member AS.
      if (const std::uint32_t m = cols.src_member[i];
          m != flow::FlowColumns::kNoMember) {
        const bgp::Asn asn = dataset.source_as(m);
        ev_handover.insert(asn);
        ev_handover_pkts[asn] += pk;
      }
      if (const auto asn = dataset.origin_asn(net::Ipv4(cols.src_ip[i]))) {
        ev_origins.insert(*asn);
        ev_origin_pkts[*asn] += pk;
      }
      total_packets += pk;
    });
    if (amplifiers.empty()) continue;  // not an amplification attack

    ++report.attacks;
    total_amplifiers += amplifiers.size();
    total_handover += ev_handover.size();
    total_origins += ev_origins.size();
    for (const bgp::Asn asn : ev_handover) {
      auto& t = handover[asn];
      ++t.events;
      t.packets += ev_handover_pkts[asn];
    }
    for (const bgp::Asn asn : ev_origins) {
      auto& t = origins[asn];
      ++t.events;
      t.packets += ev_origin_pkts[asn];
    }
  }

  auto flatten = [&](const std::unordered_map<bgp::Asn, Tally>& in) {
    std::vector<AsParticipation> out;
    out.reserve(in.size());
    for (const auto& [asn, t] : in) {
      AsParticipation p;
      p.asn = asn;
      p.events = t.events;
      p.event_share = report.attacks > 0 ? static_cast<double>(t.events) /
                                               static_cast<double>(report.attacks)
                                         : 0.0;
      p.packets = t.packets;
      p.traffic_share =
          total_packets > 0 ? static_cast<double>(t.packets) /
                                  static_cast<double>(total_packets)
                            : 0.0;
      out.push_back(p);
    }
    std::sort(out.begin(), out.end(),
              [](const AsParticipation& a, const AsParticipation& b) {
                return a.event_share > b.event_share;
              });
    return out;
  };
  report.handover = flatten(handover);
  report.origins = flatten(origins);
  if (report.attacks > 0) {
    const auto n = static_cast<double>(report.attacks);
    report.avg_amplifiers_per_attack =
        static_cast<double>(total_amplifiers) / n;
    report.avg_handover_per_attack = static_cast<double>(total_handover) / n;
    report.avg_origins_per_attack = static_cast<double>(total_origins) / n;
  }
  return report;
}

}  // namespace bw::core
