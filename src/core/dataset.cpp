#include "core/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <unordered_set>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/container.hpp"
#include "util/parallel.hpp"

namespace bw::core {

namespace {

/// dataset.{save,load}.{ok,fail,wall_us} plus a latency histogram — the
/// numbers that separate "cache hit" from "regenerate + save" in a run
/// manifest at a glance.
struct IoMetrics {
  obs::Counter* ok;
  obs::Counter* fail;
  obs::Counter* wall_us;
  obs::Histogram* latency;
};

const IoMetrics& io_metrics(const char* op) {
  auto make = [](const std::string& base) {
    auto& reg = obs::Registry::global();
    return IoMetrics{&reg.counter(base + ".ok"), &reg.counter(base + ".fail"),
                     &reg.counter(base + ".wall_us"),
                     &reg.histogram(base + ".latency_us")};
  };
  static const IoMetrics save = make("dataset.save");
  static const IoMetrics load = make("dataset.load");
  return op[0] == 's' ? save : load;
}

void record_io(const IoMetrics& m, bool succeeded, const obs::StopWatch& wall) {
  const std::uint64_t us = wall.elapsed_us();
  (succeeded ? m.ok : m.fail)->add();
  m.wall_us->add(us);
  m.latency->record(us);
}

}  // namespace

Dataset Dataset::from_run(ixp::RunResult run, const ixp::Platform& platform) {
  std::unordered_map<net::Mac, bgp::Asn> macs;
  for (const auto& m : platform.members()) macs[m.port_mac] = m.asn;
  // The platform's origin table is the BGP-derived prefix->origin view the
  // paper resolves source addresses against.
  auto origins = platform.origin_prefix_table();
  return Dataset(std::move(run.control), std::move(run.data), std::move(macs),
                 std::move(origins), platform.config().period);
}

Dataset::Dataset(bgp::UpdateLog control, flow::FlowLog data,
                 std::unordered_map<net::Mac, bgp::Asn> mac_to_asn,
                 std::vector<std::pair<net::Prefix, bgp::Asn>> origin_prefixes,
                 util::TimeRange period, const BuildOptions& options)
    : control_(std::move(control)),
      data_(std::move(data)),
      mac_to_asn_(std::move(mac_to_asn)),
      origin_prefixes_(std::move(origin_prefixes)),
      period_(period) {
  sanitize(options);
  build_indices();
}

namespace {

/// Adjacent input-order time inversions — what an out-of-order feed looks
/// like before the build sorts it.
template <typename Records>
std::size_t count_inversions(const Records& records) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].time < records[i - 1].time) ++n;
  }
  return n;
}

bool flow_records_equal(const flow::FlowRecord& a, const flow::FlowRecord& b) {
  return a.time == b.time && a.src_ip == b.src_ip && a.dst_ip == b.dst_ip &&
         a.proto == b.proto && a.src_port == b.src_port &&
         a.dst_port == b.dst_port && a.src_mac == b.src_mac &&
         a.dst_mac == b.dst_mac && a.packets == b.packets && a.bytes == b.bytes;
}

/// Total order over every FlowRecord field, so exact duplicates sort
/// adjacent and the dedupe pass is thread-count independent.
bool flow_record_less(const flow::FlowRecord& a, const flow::FlowRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.src_ip != b.src_ip) return a.src_ip < b.src_ip;
  if (a.dst_ip != b.dst_ip) return a.dst_ip < b.dst_ip;
  if (a.proto != b.proto) return a.proto < b.proto;
  if (a.src_port != b.src_port) return a.src_port < b.src_port;
  if (a.dst_port != b.dst_port) return a.dst_port < b.dst_port;
  if (a.src_mac != b.src_mac) return a.src_mac < b.src_mac;
  if (a.dst_mac != b.dst_mac) return a.dst_mac < b.dst_mac;
  if (a.packets != b.packets) return a.packets < b.packets;
  return a.bytes < b.bytes;
}

}  // namespace

void Dataset::sanitize(const BuildOptions& options) {
  quality_.reordered_updates = count_inversions(control_);
  quality_.reordered_flows = count_inversions(data_);

  if (options.quarantine_out_of_period) {
    const util::TimeMs lo = period_.begin - options.period_slack;
    const util::TimeMs hi = period_.end + options.period_slack;
    auto out_of_period = [&](util::TimeMs t) { return t < lo || t >= hi; };
    const std::size_t control_before = control_.size();
    std::erase_if(control_,
                  [&](const bgp::Update& u) { return out_of_period(u.time); });
    quality_.out_of_period_updates = control_before - control_.size();
    const std::size_t flows_before = data_.size();
    std::erase_if(data_, [&](const flow::FlowRecord& r) {
      return out_of_period(r.time);
    });
    quality_.out_of_period_flows = flows_before - data_.size();
  }

  if (options.dedupe_flows && !data_.empty()) {
    // Full-key sort makes exact duplicates adjacent; build_indices re-sorts
    // by time afterwards, so the record order analyses see is unchanged.
    util::parallel_sort(util::ThreadPool::global(), data_.begin(), data_.end(),
                        flow_record_less);
    const std::size_t before = data_.size();
    data_.erase(std::unique(data_.begin(), data_.end(), flow_records_equal),
                data_.end());
    quality_.duplicate_flows = before - data_.size();
  }

  // Unattributable MACs (e.g. a damaged MAC table): flows whose handover
  // port — or egress port, blackhole MAC aside — has no member mapping.
  const net::Mac blackhole = net::Mac::blackhole();
  for (const auto& r : data_) {
    const bool src_unknown = mac_to_asn_.find(r.src_mac) == mac_to_asn_.end();
    const bool dst_unknown = r.dst_mac != blackhole &&
                             mac_to_asn_.find(r.dst_mac) == mac_to_asn_.end();
    if (src_unknown || dst_unknown) ++quality_.unknown_mac_flows;
  }
}

std::unordered_map<net::Mac, std::uint32_t> Dataset::build_control_indices() {
  // Time order, withdraws before announces at equal times.
  util::parallel_sort(util::ThreadPool::global(), control_.begin(),
                      control_.end(),
                      [](const bgp::Update& a, const bgp::Update& b) {
                        if (a.time != b.time) return a.time < b.time;
                        return a.type == bgp::UpdateType::kWithdraw &&
                               b.type == bgp::UpdateType::kAnnounce;
                      });

  // Route-server replay: sequential by nature (open/close state).
  blackhole_updates_.clear();
  for (const auto& u : control_) {
    if (!u.is_blackhole()) continue;
    blackhole_updates_.push_back(u);
    if (u.type == bgp::UpdateType::kAnnounce) {
      rs_index_.open(u.prefix, u.time, u.communities, u.sender_asn);
    } else {
      rs_index_.close(u.prefix, u.time);
    }
  }
  rs_index_.finalize(period_.end);

  // FlatLpm freezes the origin table with last-wins dedupe — exactly the
  // overwrite semantics the trie's insert loop had.
  origin_lpm_ = net::FlatLpm<bgp::Asn>(origin_prefixes_);

  // Dense member-source table: ascending unique source ASes, plus the
  // MAC -> dense id map the column build resolves handover MACs through.
  // Iterating a flat per-id array then visits ASes in ascending-ASN order,
  // i.e. exactly the order a std::map<Asn, ...> accumulation produces.
  source_as_.clear();
  source_as_.reserve(mac_to_asn_.size());
  for (const auto& [mac, asn] : mac_to_asn_) source_as_.push_back(asn);
  std::sort(source_as_.begin(), source_as_.end());
  source_as_.erase(std::unique(source_as_.begin(), source_as_.end()),
                   source_as_.end());
  std::unordered_map<net::Mac, std::uint32_t> member_ids;
  member_ids.reserve(mac_to_asn_.size());
  for (const auto& [mac, asn] : mac_to_asn_) {
    member_ids[mac] = static_cast<std::uint32_t>(
        std::lower_bound(source_as_.begin(), source_as_.end(), asn) -
        source_as_.begin());
  }
  return member_ids;
}

void Dataset::build_indices() {
  util::ThreadPool& pool = util::ThreadPool::global();

  // The control plane (its own parallel sort, the sequential route-server
  // replay, the LPM and member tables) runs as one task beside the flow
  // sorts below. Every comparator, with parallel_sort's stability, yields
  // an order that is independent of the thread count.
  auto control_done = pool.submit([this] { return build_control_indices(); });
  util::parallel_sort(pool, data_.begin(), data_.end(),
                      [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
                        return a.time < b.time;
                      });

  // The src order is only needed to lay out the s_* columns; the dst order
  // is kept for try_save's chunk layout.
  by_dst_.resize(data_.size());
  std::vector<std::size_t> by_src(data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) by_dst_[i] = by_src[i] = i;
  // Tie-break on the flow index so the comparators induce a total order:
  // the sorted indices are then unique, i.e. identical at any thread count.
  auto by_dst_done = pool.submit([&] {
    util::parallel_sort(pool, by_dst_.begin(), by_dst_.end(),
                        [this](std::size_t a, std::size_t b) {
                          if (data_[a].dst_ip != data_[b].dst_ip) {
                            return data_[a].dst_ip < data_[b].dst_ip;
                          }
                          if (data_[a].time != data_[b].time) {
                            return data_[a].time < data_[b].time;
                          }
                          return a < b;
                        });
  });
  util::parallel_sort(pool, by_src.begin(), by_src.end(),
                      [this](std::size_t a, std::size_t b) {
                        if (data_[a].src_ip != data_[b].src_ip) {
                          return data_[a].src_ip < data_[b].src_ip;
                        }
                        if (data_[a].time != data_[b].time) {
                          return data_[a].time < data_[b].time;
                        }
                        return a < b;
                      });

  const std::unordered_map<net::Mac, std::uint32_t> member_ids =
      control_done.get();
  by_dst_done.get();
  columns_ = flow::FlowColumns::build(data_, by_dst_, by_src, member_ids,
                                      pool);
}

std::optional<bgp::Asn> Dataset::member_asn(net::Mac mac) const {
  const auto it = mac_to_asn_.find(mac);
  if (it == mac_to_asn_.end()) return std::nullopt;
  return it->second;
}

std::optional<bgp::Asn> Dataset::origin_asn(net::Ipv4 src) const {
  const bgp::Asn* asn = origin_lpm_.match(src);
  if (asn == nullptr) return std::nullopt;
  return *asn;
}

namespace {

struct Volume {
  std::uint64_t packets{0}, bytes{0}, dropped_packets{0}, dropped_bytes{0};
};

/// Volume sums of rows [begin, end) of one column set (the whole in-RAM
/// columns or one decoded chunk).
Volume sum_volume(const flow::FlowColumns& c, std::size_t begin,
                  std::size_t end) {
  const std::uint32_t* const packets = c.packets.data();
  const std::uint64_t* const bytes = c.bytes.data();
  Volume v;
  for (std::size_t i = begin; i < end; ++i) {
    v.packets += packets[i];
    v.bytes += bytes[i];
    if (c.dropped(i)) {
      v.dropped_packets += packets[i];
      v.dropped_bytes += bytes[i];
    }
  }
  return v;
}

}  // namespace

Dataset::Summary Dataset::summary(util::ThreadPool* pool_opt) const {
  Summary s;
  s.control_updates = control_.size();
  s.blackhole_updates = blackhole_updates_.size();
  s.blackholed_prefixes = rs_index_.prefix_count();
  s.flow_records = store_ != nullptr
                       ? static_cast<std::size_t>(store_->flow_count())
                       : data_.size();

  // Shard the volume sums over the pool; integer addition is associative,
  // so the merged totals are exact at any thread count and in either
  // residency mode (chunks partition the rows the in-RAM columns hold).
  util::ThreadPool& pool = util::pool_or_global(pool_opt);
  static const KernelScanMetrics metrics = make_kernel_scan_metrics("summary");
  const obs::StopWatch watch;
  std::vector<Volume> sums;
  if (store_ != nullptr) {
    // One shard per chunk, each decoded (or served from the per-thread
    // cache) and summed independently.
    sums = util::parallel_map(pool, store_->chunk_count(), [&](std::size_t k) {
      const std::shared_ptr<const store::ChunkData> ch = store_->chunk(k);
      return sum_volume(ch->cols, 0, ch->cols.size());
    });
  } else {
    const std::size_t rows = columns_.size();
    const std::size_t shards = std::clamp<std::size_t>(rows / 65536, 1, 64);
    const std::size_t shard_len = (rows + shards - 1) / shards;
    sums = util::parallel_map(pool, shards, [&](std::size_t k) {
      return sum_volume(columns_, k * shard_len,
                        std::min(rows, (k + 1) * shard_len));
    });
  }
  metrics.rows->add(s.flow_records);
  metrics.ns->add(watch.elapsed_ns());
  for (const Volume& v : sums) {
    s.sampled_packets += v.packets;
    s.sampled_bytes += v.bytes;
    s.dropped_packets += v.dropped_packets;
    s.dropped_bytes += v.dropped_bytes;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Binary persistence — checksummed sectioned container (see util/container)
// ---------------------------------------------------------------------------

namespace {

// Section ids of the v2 .bwds container. Each section carries its own
// length and CRC32C frame, so corruption is reported per section instead of
// surfacing as a garbage decode somewhere downstream.
constexpr std::uint32_t kSecPeriod = util::container::section_id('P', 'E', 'R', 'I');
constexpr std::uint32_t kSecControl = util::container::section_id('C', 'T', 'R', 'L');
constexpr std::uint32_t kSecFlows = util::container::section_id('F', 'L', 'O', 'W');
constexpr std::uint32_t kSecMacs = util::container::section_id('M', 'A', 'C', 'S');
constexpr std::uint32_t kSecOrigins = util::container::section_id('O', 'R', 'I', 'G');

template <typename T>
void put(util::container::Writer& w, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  w.write(&v, sizeof(v));
}

template <typename T>
T get(std::ifstream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void put_u64(util::container::Writer& w, std::uint64_t v) { put(w, v); }
std::uint64_t get_u64(std::ifstream& is) { return get<std::uint64_t>(is); }

// On-disk mirrors of the fixed-size table entries, packed to the exact byte
// layout the per-field put/get calls historically produced. Bulk span IO
// over these is format-identical to the field-at-a-time loops it replaced —
// only the syscall/copy count changes.
#pragma pack(push, 1)
struct DiskFlowRecord {
  util::TimeMs time;
  std::uint32_t src_ip;
  std::uint32_t dst_ip;
  std::uint8_t proto;
  net::Port src_port;
  net::Port dst_port;
  std::uint64_t src_mac;
  std::uint64_t dst_mac;
  std::uint32_t packets;
  std::uint64_t bytes;
};
struct DiskMacEntry {
  std::uint64_t mac;
  bgp::Asn asn;
};
struct DiskOriginEntry {
  std::uint32_t network;
  std::uint8_t length;
  bgp::Asn asn;
};
#pragma pack(pop)
static_assert(sizeof(DiskFlowRecord) == 49);
static_assert(sizeof(DiskMacEntry) == 8 + sizeof(bgp::Asn));
static_assert(sizeof(DiskOriginEntry) == 5 + sizeof(bgp::Asn));

/// Convert-and-write in bounded chunks: bulk IO without doubling the
/// resident corpus.
template <typename T, typename It, typename Fn>
void put_span(util::container::Writer& w, It first, It last, Fn to_disk) {
  constexpr std::size_t kChunk = 1 << 16;
  std::vector<T> buffer;
  buffer.reserve(std::min<std::size_t>(
      kChunk, static_cast<std::size_t>(std::distance(first, last))));
  while (first != last) {
    buffer.clear();
    for (; first != last && buffer.size() < kChunk; ++first) {
      buffer.push_back(to_disk(*first));
    }
    w.write(buffer.data(), buffer.size() * sizeof(T));
  }
}

template <typename T, typename Fn>
void get_span(std::ifstream& is, std::uint64_t count, Fn from_disk) {
  constexpr std::size_t kChunk = 1 << 16;
  std::vector<T> buffer(std::min<std::size_t>(kChunk, count));
  while (count > 0 && is) {
    const std::size_t n = std::min<std::uint64_t>(kChunk, count);
    is.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    if (!is) return;
    for (std::size_t i = 0; i < n; ++i) from_disk(buffer[i]);
    count -= n;
  }
}

/// PERI/CTRL/MACS/ORIG — the control-plane tables, byte-identical in v2 and
/// v3 (only the flow representation differs between the versions).
void write_table_sections(
    util::container::Writer& w, util::TimeRange period,
    const bgp::UpdateLog& control,
    const std::unordered_map<net::Mac, bgp::Asn>& mac_to_asn,
    const std::vector<std::pair<net::Prefix, bgp::Asn>>& origin_prefixes) {
  w.begin_section(kSecPeriod);
  put(w, period.begin);
  put(w, period.end);
  w.end_section();

  w.begin_section(kSecControl);
  put_u64(w, control.size());
  for (const auto& u : control) {
    put(w, u.time);
    put(w, static_cast<std::uint8_t>(u.type));
    put(w, u.sender_asn);
    put(w, u.origin_asn);
    put(w, u.prefix.network().value());
    put(w, u.prefix.length());
    put(w, u.next_hop.value());
    put_u64(w, u.communities.size());
    for (const auto& c : u.communities) {
      put(w, c.global);
      put(w, c.local);
    }
  }
  w.end_section();

  // Ascending MAC order, not hash-map order: re-saving a loaded corpus
  // then reproduces its file.
  const std::map<net::Mac, bgp::Asn> macs(mac_to_asn.begin(),
                                          mac_to_asn.end());
  w.begin_section(kSecMacs);
  put_u64(w, macs.size());
  put_span<DiskMacEntry>(w, macs.begin(), macs.end(), [](const auto& entry) {
    return DiskMacEntry{entry.first.value(), entry.second};
  });
  w.end_section();

  w.begin_section(kSecOrigins);
  put_u64(w, origin_prefixes.size());
  put_span<DiskOriginEntry>(w, origin_prefixes.begin(), origin_prefixes.end(),
                            [](const auto& entry) {
                              return DiskOriginEntry{
                                  entry.first.network().value(),
                                  entry.first.length(), entry.second};
                            });
  w.end_section();
}

}  // namespace

util::Status Dataset::try_save(const std::string& path) const {
  const obs::TraceSpan span("dataset.try_save", "io");
  const obs::StopWatch wall;
  util::Status st = [&]() -> util::Status {
    if (store_ != nullptr) {
      return util::failed_precondition(
          "Dataset::try_save: " + path +
          ": chunked dataset holds no materialized flows to rewrite; load it "
          "with Dataset::try_load first");
    }
    if (data_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      return util::invalid_argument("Dataset::try_save: " + path +
                                    ": flow count exceeds the v3 row-position "
                                    "range");
    }

    // MAC dictionary: every distinct MAC in the corpus, ascending. Chunk
    // rows store indexes into it, so 6-byte MACs cost one or two varint
    // bytes per row.
    std::vector<std::uint64_t> dict;
    {
      std::unordered_set<std::uint64_t> seen;
      seen.reserve(mac_to_asn_.size() * 2 + 16);
      for (const auto& r : data_) {
        seen.insert(r.src_mac.value());
        seen.insert(r.dst_mac.value());
      }
      dict.assign(seen.begin(), seen.end());
      std::sort(dict.begin(), dict.end());
    }
    std::unordered_map<std::uint64_t, std::uint32_t> dict_id;
    dict_id.reserve(dict.size());
    for (std::size_t i = 0; i < dict.size(); ++i) {
      dict_id[dict[i]] = static_cast<std::uint32_t>(i);
    }

    const std::size_t rows_per_chunk = store::chunk_rows();
    const std::size_t n = data_.size();

    // Atomic commit: the container streams into `<path>.tmp`, which is
    // fsync'd and renamed over `path` only once complete — a crash mid-save
    // leaves the previous file (or nothing), never a torn one. Chunks are
    // encoded one at a time into a reused buffer, so peak writer memory is
    // one chunk regardless of corpus size.
    return util::atomic_write_file(path, [&](std::ostream& os) -> util::Status {
      util::container::Writer w(os, util::container::kVersionV3);
      write_table_sections(w, period_, control_, mac_to_asn_,
                           origin_prefixes_);

      w.begin_section(store::kSecStoreMeta);
      put_u64(w, n);
      put_u64(w, quality_.unknown_mac_flows);
      put_u64(w, rows_per_chunk);
      put_u64(w, 0);  // reserved
      w.end_section();

      w.begin_section(store::kSecMacDict);
      put_u64(w, dict.size());
      for (const std::uint64_t mac : dict) put_u64(w, mac);
      w.end_section();

      // Dst-ordered chunks + their zone-map index.
      std::vector<std::uint8_t> payload;
      std::vector<std::uint8_t> index;
      std::size_t n_chunks = 0;
      for (std::size_t base = 0; base < n; base += rows_per_chunk) {
        const std::size_t end = std::min(n, base + rows_per_chunk);
        const std::size_t rows = end - base;
        store::ChunkData chunk;
        auto slice = [&](auto& dst, const auto& src) {
          dst.assign(src.begin() + static_cast<std::ptrdiff_t>(base),
                     src.begin() + static_cast<std::ptrdiff_t>(end));
        };
        slice(chunk.cols.time, columns_.time);
        slice(chunk.cols.src_ip, columns_.src_ip);
        slice(chunk.cols.dst_ip, columns_.dst_ip);
        slice(chunk.cols.proto, columns_.proto);
        slice(chunk.cols.src_port, columns_.src_port);
        slice(chunk.cols.dst_port, columns_.dst_port);
        slice(chunk.cols.packets, columns_.packets);
        slice(chunk.cols.bytes, columns_.bytes);
        slice(chunk.cols.src_member, columns_.src_member);
        chunk.cols.dropped_words.assign((rows + 63) / 64, 0);
        chunk.src_mac_id.resize(rows);
        chunk.dst_mac_id.resize(rows);
        chunk.orig_pos.resize(rows);
        for (std::size_t g = 0; g < rows; ++g) {
          if (columns_.dropped(base + g)) {
            chunk.cols.dropped_words[g >> 6] |= std::uint64_t{1} << (g & 63);
          }
          const std::size_t pos = by_dst_[base + g];
          const flow::FlowRecord& r = data_[pos];
          chunk.src_mac_id[g] = dict_id.find(r.src_mac.value())->second;
          chunk.dst_mac_id[g] = dict_id.find(r.dst_mac.value())->second;
          chunk.orig_pos[g] = static_cast<std::uint32_t>(pos);
        }
        store::encode_dst_chunk(chunk, payload);
        w.begin_section(store::kSecChunk);
        w.write(payload.data(), payload.size());
        w.end_section();
        store::append_meta(index, store::make_dst_meta(chunk, base));
        ++n_chunks;
      }
      w.begin_section(store::kSecChunkIndex);
      put_u64(w, n_chunks);
      w.write(index.data(), index.size());
      w.end_section();

      // Src-ordered chunks (the four s_* columns) + their index.
      index.clear();
      n_chunks = 0;
      for (std::size_t base = 0; base < n; base += rows_per_chunk) {
        const std::size_t end = std::min(n, base + rows_per_chunk);
        store::ChunkData chunk;
        auto slice = [&](auto& dst, const auto& src) {
          dst.assign(src.begin() + static_cast<std::ptrdiff_t>(base),
                     src.begin() + static_cast<std::ptrdiff_t>(end));
        };
        slice(chunk.cols.s_src_ip, columns_.s_src_ip);
        slice(chunk.cols.s_time, columns_.s_time);
        slice(chunk.cols.s_src_port, columns_.s_src_port);
        slice(chunk.cols.s_dst_port, columns_.s_dst_port);
        store::encode_src_chunk(chunk, payload);
        w.begin_section(store::kSecSrcChunk);
        w.write(payload.data(), payload.size());
        w.end_section();
        store::append_meta(index, store::make_src_meta(chunk, base));
        ++n_chunks;
      }
      w.begin_section(store::kSecSrcIndex);
      put_u64(w, n_chunks);
      w.write(index.data(), index.size());
      w.end_section();

      return w.finish().with_context("Dataset::try_save: " + path);
    });
  }();
  record_io(io_metrics("save"), st.ok(), wall);
  return st;
}

util::Status Dataset::try_save_v2(const std::string& path) const {
  if (store_ != nullptr) {
    return util::failed_precondition(
        "Dataset::try_save_v2: " + path +
        ": chunked dataset holds no materialized flows to rewrite");
  }
  return util::atomic_write_file(path, [&](std::ostream& os) -> util::Status {
    util::container::Writer w(os);
    write_table_sections(w, period_, control_, mac_to_asn_, origin_prefixes_);

    w.begin_section(kSecFlows);
    put_u64(w, data_.size());
    put_span<DiskFlowRecord>(w, data_.begin(), data_.end(),
                             [](const flow::FlowRecord& r) {
                               return DiskFlowRecord{
                                   r.time,
                                   r.src_ip.value(),
                                   r.dst_ip.value(),
                                   static_cast<std::uint8_t>(r.proto),
                                   r.src_port,
                                   r.dst_port,
                                   r.src_mac.value(),
                                   r.dst_mac.value(),
                                   r.packets,
                                   r.bytes,
                               };
                             });
    w.end_section();

    return w.finish().with_context("Dataset::try_save_v2: " + path);
  });
}

namespace {

/// Locate `id` in the TOC, verify its payload CRC, and leave `is` at the
/// payload start. Returns the section (for exact-length validation).
util::Result<util::container::Section> open_section(
    std::ifstream& is, const util::container::Toc& toc, std::uint32_t id) {
  const util::container::Section* sec = toc.find(id);
  if (sec == nullptr) {
    return util::data_loss("missing section " +
                           util::container::section_name(id));
  }
  util::Status st = util::container::verify_section(is, *sec);
  if (!st.ok()) return st;
  return *sec;
}

/// A section holding a u64 element count followed by `count * elem_size`
/// fixed-width records must have exactly that many bytes.
util::Status check_exact_length(const util::container::Section& sec,
                                std::uint64_t count, std::size_t elem_size) {
  if (sec.length != 8 + count * elem_size) {
    return util::data_loss("section " + util::container::section_name(sec.id) +
                           ": length does not match element count");
  }
  return util::ok_status();
}

/// The decoded PERI/CTRL/MACS/ORIG tables — common to every load mode.
struct LoadedTables {
  util::TimeRange period;
  bgp::UpdateLog control;
  std::unordered_map<net::Mac, bgp::Asn> macs;
  std::vector<std::pair<net::Prefix, bgp::Asn>> origins;
};

util::Status read_table_sections(std::ifstream& is,
                                 const util::container::Toc& toc,
                                 LoadedTables& out) {
  // --- PERI: the analysis period, two TimeMs -------------------------------
  auto peri = open_section(is, toc, kSecPeriod);
  if (!peri.ok()) return peri.status();
  if (peri->length != 2 * sizeof(util::TimeMs)) {
    return util::data_loss("section PERI: unexpected length");
  }
  out.period.begin = get<util::TimeMs>(is);
  out.period.end = get<util::TimeMs>(is);

  // --- CTRL: variable-width updates; counts bounded by section length -----
  auto ctrl = open_section(is, toc, kSecControl);
  if (!ctrl.ok()) return ctrl.status();
  auto checked_count = [&](const char* what) -> util::Result<std::uint64_t> {
    const std::uint64_t n = get_u64(is);
    if (!is || n > ctrl->length) {
      return util::data_loss(std::string("section CTRL: implausible ") + what +
                             " count");
    }
    return n;
  };
  const auto n_control = checked_count("control update");
  if (!n_control.ok()) return n_control.status();
  out.control.resize(*n_control);
  for (auto& u : out.control) {
    u.time = get<util::TimeMs>(is);
    u.type = static_cast<bgp::UpdateType>(get<std::uint8_t>(is));
    u.sender_asn = get<bgp::Asn>(is);
    u.origin_asn = get<bgp::Asn>(is);
    const auto net_v = get<std::uint32_t>(is);
    const auto len = get<std::uint8_t>(is);
    u.prefix = net::Prefix(net::Ipv4(net_v), len);
    u.next_hop = net::Ipv4(get<std::uint32_t>(is));
    const auto n_comms = checked_count("community");
    if (!n_comms.ok()) return n_comms.status();
    u.communities.resize(*n_comms);
    for (auto& c : u.communities) {
      c.global = get<std::uint16_t>(is);
      c.local = get<std::uint16_t>(is);
    }
  }
  if (!is) return util::data_loss("section CTRL: truncated decode");

  // --- MACS / ORIG: fixed-width tables with exact-length checks -----------
  auto mac_sec = open_section(is, toc, kSecMacs);
  if (!mac_sec.ok()) return mac_sec.status();
  const std::uint64_t n_macs = get_u64(is);
  if (util::Status st = check_exact_length(*mac_sec, n_macs,
                                           sizeof(DiskMacEntry));
      !st.ok()) {
    return st;
  }
  out.macs.reserve(n_macs);
  get_span<DiskMacEntry>(is, n_macs, [&](const DiskMacEntry& d) {
    out.macs[net::Mac(d.mac)] = d.asn;
  });

  auto orig_sec = open_section(is, toc, kSecOrigins);
  if (!orig_sec.ok()) return orig_sec.status();
  const std::uint64_t n_origins = get_u64(is);
  if (util::Status st = check_exact_length(*orig_sec, n_origins,
                                           sizeof(DiskOriginEntry));
      !st.ok()) {
    return st;
  }
  out.origins.reserve(n_origins);
  get_span<DiskOriginEntry>(is, n_origins, [&](const DiskOriginEntry& d) {
    out.origins.emplace_back(net::Prefix(net::Ipv4(d.network), d.length),
                             bgp::Asn{d.asn});
  });
  if (!is) return util::data_loss("truncated file");
  return util::ok_status();
}

/// The v2-file error every v3-only entry point reports: name the migration
/// path instead of a bare version mismatch.
util::Status v2_needs_convert(const char* op) {
  return util::failed_precondition(
      std::string(op) +
      ": .bwds v2 file; migrate it with tools/bw-convert "
      "(bw-convert <v2 file> --out <v3 file>)");
}

/// Frame a loader error with the entry point and file it came from.
util::Status in_file(util::Status st, const char* op, const std::string& path) {
  return std::move(st).with_context(std::string(op) + ": " + path);
}

/// An open container whose control-plane tables are already decoded; `is`
/// is left open for the entry point's flow sections.
struct OpenedContainer {
  std::ifstream is;
  util::container::Toc toc;
  LoadedTables tables;
};

/// The front half every loader shares: open `path`, read its TOC, refuse
/// any container version but `version` (the TOC reader accepts only v2 and
/// v3) and decode PERI/CTRL/MACS/ORIG. Errors carry "<op>: <path>" context.
util::Result<OpenedContainer> open_container(const std::string& path,
                                             const char* op,
                                             std::uint32_t version) {
  OpenedContainer c;
  c.is.open(path, std::ios::binary);
  if (!c.is) return util::not_found(std::string(op) + ": cannot open " + path);
  c.is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(c.is.tellg());

  auto toc = util::container::read_toc(c.is, file_size);
  if (!toc.ok()) return in_file(toc.status(), op, path);
  c.toc = std::move(toc).value();
  if (c.toc.version != version) {
    return in_file(
        version == util::container::kVersionV3
            ? v2_needs_convert(op)
            : util::failed_precondition(
                  "not a v2 file (version " + std::to_string(c.toc.version) +
                  "); this entry point reads only the legacy single-FLOW "
                  "layout"),
        op, path);
  }

  if (util::Status st = read_table_sections(c.is, c.toc, c.tables); !st.ok()) {
    return in_file(std::move(st), op, path);
  }
  return c;
}

}  // namespace

util::Result<Dataset> Dataset::open_v3(const std::string& path,
                                       const char* op) {
  auto opened = open_container(path, op, util::container::kVersionV3);
  if (!opened.ok()) return opened.status();
  LoadedTables& tables = opened->tables;
  opened->is.close();

  Dataset d;
  d.control_ = std::move(tables.control);
  d.mac_to_asn_ = std::move(tables.macs);
  d.origin_prefixes_ = std::move(tables.origins);
  d.period_ = tables.period;
  (void)d.build_control_indices();
  // src_member ids index the member tables just built; the store rejects
  // any other id in the chunk that holds it.
  auto store = store::FlowStore::open(path, d.source_as_count());
  if (!store.ok()) return in_file(store.status(), op, path);
  d.store_ = *store;
  // Sanitation ran before the file was written; the only quality signal
  // that survives serialization is the persisted unknown-MAC count.
  d.quality_.unknown_mac_flows =
      static_cast<std::size_t>(d.store_->unknown_mac_flows());
  return d;
}

util::Result<Dataset> Dataset::try_load(const std::string& path) {
  static constexpr const char* kOp = "Dataset::try_load";
  const obs::TraceSpan span("dataset.try_load", "io");
  const obs::StopWatch wall;
  util::Result<Dataset> result = [&]() -> util::Result<Dataset> {
    auto opened = open_v3(path, kOp);
    if (!opened.ok()) return opened;
    Dataset& d = *opened;
    const store::FlowStore& fs = *d.store_;
    auto ctx = [&](util::Status st) {
      return in_file(std::move(st), kOp, path);
    };

    // The dst chunks already hold the columns in row order: append each one
    // as it is decoded, and put only the AoS records back at their original
    // (time-sorted) positions. Each chunk is decoded once, uncached, and
    // freed before the next.
    const std::size_t n = fs.flow_count();
    flow::FlowColumns& c = d.columns_;
    auto append = [n](auto& column, const auto& part) {
      column.reserve(n);
      column.insert(column.end(), part.begin(), part.end());
    };
    d.data_.resize(n);
    d.by_dst_.resize(n);
    c.dropped_words.assign((n + 63) / 64, 0);
    std::vector<std::uint64_t> seen((n + 63) / 64, 0);
    for (std::size_t k = 0; k < fs.chunk_count(); ++k) {
      store::ChunkData chunk;
      if (util::Status st = fs.decode_at(k, /*src=*/false, chunk); !st.ok()) {
        return ctx(std::move(st));
      }
      const std::size_t base = c.size();
      for (std::size_t i = 0; i < chunk.rows(); ++i) {
        const std::uint32_t pos = chunk.orig_pos[i];
        if (pos >= n || ((seen[pos >> 6] >> (pos & 63)) & 1u) != 0) {
          return ctx(util::data_loss(
              "section CHNK: duplicate or out-of-range row position"));
        }
        seen[pos >> 6] |= std::uint64_t{1} << (pos & 63);
        d.by_dst_[base + i] = pos;
        d.data_[pos] = fs.record_at(chunk, i);
        if (chunk.cols.dropped(i)) {
          c.dropped_words[(base + i) >> 6] |= std::uint64_t{1}
                                              << ((base + i) & 63);
        }
      }
      append(c.time, chunk.cols.time);
      append(c.src_ip, chunk.cols.src_ip);
      append(c.dst_ip, chunk.cols.dst_ip);
      append(c.proto, chunk.cols.proto);
      append(c.src_port, chunk.cols.src_port);
      append(c.dst_port, chunk.cols.dst_port);
      append(c.packets, chunk.cols.packets);
      append(c.bytes, chunk.cols.bytes);
      append(c.src_member, chunk.cols.src_member);
    }

    for (std::size_t k = 0; k < fs.src_chunk_count(); ++k) {
      store::ChunkData chunk;
      if (util::Status st = fs.decode_at(k, /*src=*/true, chunk); !st.ok()) {
        return ctx(std::move(st));
      }
      append(c.s_src_ip, chunk.cols.s_src_ip);
      append(c.s_time, chunk.cols.s_time);
      append(c.s_src_port, chunk.cols.s_src_port);
      append(c.s_dst_port, chunk.cols.s_dst_port);
    }
    d.store_.reset();
    return opened;
  }();
  record_io(io_metrics("load"), result.ok(), wall);
  return result;
}

util::Result<Dataset> Dataset::try_load_v2(const std::string& path) {
  static constexpr const char* kOp = "Dataset::try_load_v2";
  auto opened = open_container(path, kOp, util::container::kVersion);
  if (!opened.ok()) return opened.status();
  auto& [is, toc, tables] = *opened;
  auto ctx = [&](util::Status st) {
    return in_file(std::move(st), kOp, path);
  };

  // --- FLOW: the legacy AoS record table -----------------------------------
  auto flow_sec = open_section(is, toc, kSecFlows);
  if (!flow_sec.ok()) return ctx(flow_sec.status());
  const std::uint64_t n_flows = get_u64(is);
  if (util::Status st = check_exact_length(*flow_sec, n_flows,
                                           sizeof(DiskFlowRecord));
      !st.ok()) {
    return ctx(std::move(st));
  }
  flow::FlowLog data;
  data.reserve(n_flows);
  get_span<DiskFlowRecord>(is, n_flows, [&](const DiskFlowRecord& d) {
    flow::FlowRecord r;
    r.time = d.time;
    r.src_ip = net::Ipv4(d.src_ip);
    r.dst_ip = net::Ipv4(d.dst_ip);
    r.proto = static_cast<net::Proto>(d.proto);
    r.src_port = d.src_port;
    r.dst_port = d.dst_port;
    r.src_mac = net::Mac(d.src_mac);
    r.dst_mac = net::Mac(d.dst_mac);
    r.packets = d.packets;
    r.bytes = d.bytes;
    data.push_back(r);
  });
  if (!is) return ctx(util::data_loss("truncated file"));

  return Dataset(std::move(tables.control), std::move(data),
                 std::move(tables.macs), std::move(tables.origins),
                 tables.period);
}

util::Result<Dataset> Dataset::try_open_chunked(const std::string& path) {
  const obs::TraceSpan span("dataset.try_open_chunked", "io");
  const obs::StopWatch wall;
  util::Result<Dataset> result = open_v3(path, "Dataset::try_open_chunked");
  record_io(io_metrics("load"), result.ok(), wall);
  return result;
}

}  // namespace bw::core
