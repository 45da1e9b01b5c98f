// The joint measurement corpus (Section 3).
//
// A Dataset bundles exactly what the paper's analysts had: the route-server
// BGP log (control plane), the sampled flow log (data plane), the MAC ->
// member-AS mapping of the switching fabric, and a BGP-derived source-IP ->
// origin-AS resolver. It additionally builds the indices every analysis
// module needs: the route-server blackhole activity index and the columnar
// flow view sorted by destination and by source address (core/flow_view.hpp,
// the one way analysis code visits flows).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/blackhole_index.hpp"
#include "bgp/message.hpp"
#include "flow/columns.hpp"
#include "flow/record.hpp"
#include "ixp/platform.hpp"
#include "net/mac.hpp"
#include "net/prefix_trie.hpp"
#include "store/flow_store.hpp"
#include "util/status.hpp"

namespace bw::util {
class ThreadPool;
}

namespace bw::core {

class FlowView;

class Dataset {
 public:
  using OriginResolver = std::function<std::optional<bgp::Asn>(net::Ipv4)>;

  /// Ingest sanitation policy. Defaults are pass-through (trust the
  /// corpus); tolerant loaders (load_dataset_csv under kSkip/kRepair)
  /// enable quarantine so dirty telemetry costs records, not the run.
  struct BuildOptions {
    /// Drop exact-duplicate flow records (all fields equal), keeping one.
    bool dedupe_flows{false};
    /// Drop control updates / flow records whose timestamp falls outside
    /// the measurement period by more than `period_slack`.
    bool quarantine_out_of_period{false};
    /// Clock-skew tolerance before a record counts as out-of-period: the
    /// control and data planes legitimately disagree by seconds (the paper
    /// estimates the offset in Section 3.2), not hours.
    util::DurationMs period_slack{5 * util::kMinute};
  };

  /// What sanitation saw and did. Reordered counts are input-order
  /// inversions (always measured — sorting repairs them); quarantine and
  /// dedupe counts are non-zero only when enabled in BuildOptions.
  struct Quality {
    std::size_t reordered_updates{0};   ///< control rows out of time order
    std::size_t reordered_flows{0};     ///< flow rows out of time order
    std::size_t out_of_period_updates{0};
    std::size_t out_of_period_flows{0};
    std::size_t duplicate_flows{0};
    std::size_t unknown_mac_flows{0};   ///< flows with an unattributable MAC

    [[nodiscard]] bool clean() const {
      return reordered_updates == 0 && reordered_flows == 0 &&
             out_of_period_updates == 0 && out_of_period_flows == 0 &&
             duplicate_flows == 0 && unknown_mac_flows == 0;
    }
    friend bool operator==(const Quality&, const Quality&) = default;
  };

  /// Build from a platform replay. Copies the MAC table and origin table
  /// out of the platform so the Dataset is self-contained afterwards.
  static Dataset from_run(ixp::RunResult run, const ixp::Platform& platform);

  /// Build from raw corpora (e.g. deserialised from disk). Sanitation is
  /// applied per `options` before the indices are built.
  Dataset(bgp::UpdateLog control, flow::FlowLog data,
          std::unordered_map<net::Mac, bgp::Asn> mac_to_asn,
          std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes,
          util::TimeRange period, const BuildOptions& options);
  /// Pass-through build (no sanitation) — the trusting default.
  Dataset(bgp::UpdateLog control, flow::FlowLog data,
          std::unordered_map<net::Mac, bgp::Asn> mac_to_asn,
          std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes,
          util::TimeRange period)
      : Dataset(std::move(control), std::move(data), std::move(mac_to_asn),
                std::move(origin_prefixes), period, BuildOptions()) {}

  // --- raw corpora ---
  [[nodiscard]] const bgp::UpdateLog& control() const noexcept {
    return control_;
  }
  /// The materialized flow log (time order, after sanitation). Empty in
  /// chunked (out-of-core) mode. Analysis kernels never read it — they scan
  /// through view(), which serves both modes; consumers that need whole
  /// records (replay, CSV export, the v2 writer) require a materializing
  /// load.
  [[nodiscard]] const flow::FlowLog& flows() const noexcept { return data_; }
  [[nodiscard]] util::TimeRange period() const noexcept { return period_; }

  /// Only the RTBH-related updates, in time order.
  [[nodiscard]] const bgp::UpdateLog& blackhole_updates() const noexcept {
    return blackhole_updates_;
  }

  /// Route-server blackhole activity rebuilt from the control log.
  [[nodiscard]] const bgp::BlackholeIndex& rs_index() const noexcept {
    return rs_index_;
  }

  /// Sanitation accounting from construction (see BuildOptions). A dataset
  /// opened from a v3 file carries only the persisted unknown-MAC count.
  [[nodiscard]] const Quality& quality() const noexcept { return quality_; }

  // --- attribution ---
  [[nodiscard]] std::optional<bgp::Asn> member_asn(net::Mac mac) const;
  [[nodiscard]] std::optional<bgp::Asn> origin_asn(net::Ipv4 src) const;
  [[nodiscard]] const std::unordered_map<net::Mac, bgp::Asn>& mac_table()
      const noexcept {
    return mac_to_asn_;
  }
  [[nodiscard]] const std::vector<std::pair<net::Prefix, bgp::Asn>>&
  origin_prefixes() const noexcept {
    return origin_prefixes_;
  }

  /// Member source ASes in ascending ASN order. The columnar src_member
  /// column stores indices into this table, so a flat-array accumulation
  /// iterated by dense id visits ASes in the same ascending order a
  /// std::map<Asn, ...> would — the key to byte-identical source reports.
  [[nodiscard]] std::size_t source_as_count() const noexcept {
    return source_as_.size();
  }
  [[nodiscard]] bgp::Asn source_as(std::uint32_t id) const {
    return source_as_[id];
  }

  /// The structure-of-arrays flow view (layout invariants: flow/columns.hpp),
  /// built from the records by the constructor or taken from the chunks by
  /// try_load. Empty in chunked mode; kernels should go through view(),
  /// which serves both modes with identical visit order.
  [[nodiscard]] const flow::FlowColumns& columns() const noexcept {
    return columns_;
  }

  /// Uniform columnar access for both residency modes (core/flow_view.hpp).
  [[nodiscard]] FlowView view() const;

  /// True when the flows live in a .bwds v3 store on disk and are decoded
  /// chunk-at-a-time instead of being materialized in data_/columns_.
  [[nodiscard]] bool chunked() const noexcept { return store_ != nullptr; }
  [[nodiscard]] const store::FlowStore* store() const noexcept {
    return store_.get();
  }

  // --- persistence (binary, versioned) ---
  /// Structured-error variants: the Status carries what failed and where
  /// (path, magic, truncation point). try_save writes the chunked .bwds v3
  /// format (column chunks + zone maps, streamed one chunk at a time);
  /// try_load opens a v3 file like try_open_chunked, then decodes every
  /// chunk once into RAM, keeping its row order (try_save reproduces the
  /// file). Both reject v2 files with an error naming tools/bw-convert.
  [[nodiscard]] util::Status try_save(const std::string& path) const;
  [[nodiscard]] static util::Result<Dataset> try_load(const std::string& path);

  /// Open a v3 file *without* materializing the flows: control-plane
  /// tables and indices are built as usual, while flow scans stream
  /// decoded chunks through the zone-map/bloom pruned FlowStore. Reports
  /// produced in this mode are byte-identical to the in-RAM path.
  [[nodiscard]] static util::Result<Dataset> try_open_chunked(
      const std::string& path);

  /// Legacy v2 (single AoS FLOW section) reader, backing tools/bw-convert's
  /// migration path; it refuses anything but a v2 file.
  [[nodiscard]] static util::Result<Dataset> try_load_v2(
      const std::string& path);
  /// v2 writer, kept only so tests can fabricate v2 inputs for the reader.
  [[nodiscard]] util::Status try_save_v2(const std::string& path) const;

  // --- summary ---
  struct Summary {
    std::size_t control_updates{0};
    std::size_t blackhole_updates{0};
    std::size_t blackholed_prefixes{0};
    std::size_t flow_records{0};
    std::uint64_t sampled_packets{0};
    std::uint64_t sampled_bytes{0};
    std::uint64_t dropped_packets{0};
    std::uint64_t dropped_bytes{0};
  };
  /// Corpus totals; the volume sums shard over `pool` (null: the global
  /// pool) and are exact at any thread count and in either residency mode.
  [[nodiscard]] Summary summary(util::ThreadPool* pool = nullptr) const;

 private:
  /// Chunked-open shell; fields are filled by open_v3.
  Dataset() = default;

  /// The v3 open step try_load and try_open_chunked share: control-plane
  /// tables and indices, flows behind a FlowStore. Errors name op and path.
  static util::Result<Dataset> open_v3(const std::string& path,
                                       const char* op);

  void sanitize(const BuildOptions& options);
  void build_indices();
  /// Control-plane half of build_indices (sorting, blackhole replay, LPM,
  /// member tables) — everything a v3 open needs besides flows.
  /// Returns the MAC -> dense member id map the column build consumes.
  std::unordered_map<net::Mac, std::uint32_t> build_control_indices();

  bgp::UpdateLog control_;
  flow::FlowLog data_;
  std::unordered_map<net::Mac, bgp::Asn> mac_to_asn_;
  std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes_;
  util::TimeRange period_;

  Quality quality_;
  bgp::UpdateLog blackhole_updates_;
  bgp::BlackholeIndex rs_index_;
  net::FlatLpm<bgp::Asn> origin_lpm_;
  std::vector<std::size_t> by_dst_;  ///< flow indices sorted by (dst, time)
  std::vector<bgp::Asn> source_as_;  ///< ascending unique member source ASes
  flow::FlowColumns columns_;  ///< SoA view in (dst, time) / (src, time) order
  /// Non-null in chunked mode: the on-disk v3 store flows are read from.
  std::shared_ptr<const store::FlowStore> store_;
};

}  // namespace bw::core
