#include "store/flow_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/checksum.hpp"

namespace bw::store {

namespace {

using util::container::Section;
using util::container::Toc;

template <typename T>
T read_raw(const std::uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  p += sizeof(v);
  return v;
}

/// Verify a metadata section's CRC and read its payload into memory.
util::Result<std::vector<std::uint8_t>> read_section(std::istream& is,
                                                     const Toc& toc,
                                                     std::uint32_t id) {
  const Section* section = toc.find(id);
  if (section == nullptr) {
    return util::data_loss("missing section " +
                           util::container::section_name(id));
  }
  if (auto s = util::container::verify_section(is, *section); !s.ok()) {
    return s;
  }
  std::vector<std::uint8_t> payload(section->length);
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  if (!is) {
    return util::data_loss("cannot read section " +
                           util::container::section_name(id));
  }
  return payload;
}

util::Result<std::vector<ChunkMeta>> parse_index(
    const std::vector<std::uint8_t>& payload, const char* name) {
  if (payload.size() < sizeof(std::uint64_t)) {
    return util::data_loss(std::string(name) + ": truncated index header");
  }
  const std::uint8_t* p = payload.data();
  const std::uint64_t count = read_raw<std::uint64_t>(p);
  if (payload.size() !=
      sizeof(std::uint64_t) + count * kChunkMetaBytes) {
    return util::data_loss(std::string(name) +
                           ": length does not match entry count");
  }
  std::vector<ChunkMeta> metas;
  metas.reserve(count);
  std::uint64_t next_row = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    ChunkMeta m = parse_meta(p);
    p += kChunkMetaBytes;
    if (m.row_begin != next_row) {
      return util::data_loss(std::string(name) +
                             ": chunk row ranges are not contiguous");
    }
    next_row += m.row_count;
    metas.push_back(m);
  }
  return metas;
}

struct CacheSlot {
  std::uint64_t store_id{0};
  std::size_t idx{0};
  bool src{false};
  std::uint64_t stamp{0};
  std::shared_ptr<const ChunkData> chunk;
};

/// Per-thread decoded-chunk LRU. Keyed by a process-unique store id so a
/// FlowStore destroyed and another opened at the same address can never
/// alias; stale entries age out by eviction.
thread_local std::array<CacheSlot, 4> t_chunk_cache;
thread_local std::uint64_t t_cache_stamp = 0;

std::uint64_t next_store_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::size_t chunk_rows() {
  constexpr std::size_t kDefault = 128 * 1024;
  const char* env = std::getenv("BW_STORE_CHUNK_ROWS");
  if (env == nullptr || *env == '\0') return kDefault;
  const long v = std::atol(env);
  if (v < 16) return 16;
  if (v > (4L << 20)) return std::size_t{4} << 20;
  return static_cast<std::size_t>(v);
}

ChunkSource& ChunkSource::operator=(ChunkSource&& other) noexcept {
  if (this != &other) {
    this->~ChunkSource();
    fd_ = other.fd_;
    map_ = other.map_;
    size_ = other.size_;
    other.fd_ = -1;
    other.map_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

ChunkSource::~ChunkSource() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), size_);
    map_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Result<ChunkSource> ChunkSource::open(const std::string& path) {
  ChunkSource src;
  src.fd_ = ::open(path.c_str(), O_RDONLY);
  if (src.fd_ < 0) {
    return util::not_found("ChunkSource: cannot open " + path);
  }
  struct stat st{};
  if (::fstat(src.fd_, &st) != 0) {
    return util::unavailable("ChunkSource: cannot stat " + path);
  }
  src.size_ = static_cast<std::uint64_t>(st.st_size);
  const char* no_mmap = std::getenv("BW_STORE_NO_MMAP");
  const bool want_mmap =
      src.size_ > 0 && (no_mmap == nullptr || *no_mmap == '\0' ||
                        std::strcmp(no_mmap, "0") == 0);
  if (want_mmap) {
    void* map = ::mmap(nullptr, src.size_, PROT_READ, MAP_PRIVATE, src.fd_, 0);
    if (map != MAP_FAILED) {
      src.map_ = static_cast<const std::uint8_t*>(map);
    }
    // MAP_FAILED silently degrades to the pread path.
  }
  return src;
}

const std::uint8_t* ChunkSource::fetch(
    std::uint64_t offset, std::uint64_t length,
    std::vector<std::uint8_t>& scratch) const {
  if (offset > size_ || length > size_ - offset) return nullptr;
  if (map_ != nullptr) return map_ + offset;
  scratch.resize(length);
  std::uint64_t done = 0;
  while (done < length) {
    const ssize_t n =
        ::pread(fd_, scratch.data() + done, length - done,
                static_cast<off_t>(offset + done));
    if (n <= 0) return nullptr;
    done += static_cast<std::uint64_t>(n);
  }
  return scratch.data();
}

util::Result<std::shared_ptr<const FlowStore>> FlowStore::open(
    const std::string& path, std::size_t member_count) {
  const auto ctx = [&path](util::Status s) {
    return std::move(s).with_context("FlowStore::open: " + path);
  };

  std::ifstream is(path, std::ios::binary);
  if (!is) return ctx(util::not_found("cannot open file"));
  is.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(is.tellg());

  auto toc_result = util::container::read_toc(is, file_size);
  if (!toc_result.ok()) return ctx(toc_result.status());
  const Toc& toc = *toc_result;
  if (toc.version != util::container::kVersionV3) {
    return ctx(util::data_loss(
        "v" + std::to_string(toc.version) +
        " container holds no column chunks; migrate it with "
        "`bw-convert <file> --out <file.v3.bwds>`"));
  }

  std::shared_ptr<FlowStore> fs(new FlowStore());
  fs->path_ = path;
  fs->store_id_ = next_store_id();
  fs->member_count_ = member_count;
  for (const Section& s : toc.sections) {
    if (s.id == kSecChunk) fs->dst_sections_.push_back(s);
    if (s.id == kSecSrcChunk) fs->src_sections_.push_back(s);
  }

  auto smet = read_section(is, toc, kSecStoreMeta);
  if (!smet.ok()) return ctx(smet.status());
  if (smet->size() != 4 * sizeof(std::uint64_t)) {
    return ctx(util::data_loss("SMET: unexpected length"));
  }
  {
    const std::uint8_t* p = smet->data();
    fs->flow_count_ = read_raw<std::uint64_t>(p);
    fs->unknown_mac_flows_ = read_raw<std::uint64_t>(p);
    (void)read_raw<std::uint64_t>(p);  // nominal chunk rows (informational)
    (void)read_raw<std::uint64_t>(p);  // reserved
  }

  auto mdic = read_section(is, toc, kSecMacDict);
  if (!mdic.ok()) return ctx(mdic.status());
  {
    if (mdic->size() < sizeof(std::uint64_t)) {
      return ctx(util::data_loss("MDIC: truncated dictionary header"));
    }
    const std::uint8_t* p = mdic->data();
    const std::uint64_t count = read_raw<std::uint64_t>(p);
    if (mdic->size() != (count + 1) * sizeof(std::uint64_t)) {
      return ctx(util::data_loss("MDIC: length does not match entry count"));
    }
    fs->mac_dict_.resize(count);
    if (count != 0) {  // an empty vector's data() may be null
      std::memcpy(fs->mac_dict_.data(), p, count * sizeof(std::uint64_t));
    }
    if (!std::is_sorted(fs->mac_dict_.begin(), fs->mac_dict_.end())) {
      return ctx(util::data_loss("MDIC: dictionary is not sorted"));
    }
  }

  auto cidx = read_section(is, toc, kSecChunkIndex);
  if (!cidx.ok()) return ctx(cidx.status());
  auto dst_metas = parse_index(*cidx, "CIDX");
  if (!dst_metas.ok()) return ctx(dst_metas.status());
  fs->dst_metas_ = std::move(*dst_metas);

  auto sidx = read_section(is, toc, kSecSrcIndex);
  if (!sidx.ok()) return ctx(sidx.status());
  auto src_metas = parse_index(*sidx, "SIDX");
  if (!src_metas.ok()) return ctx(src_metas.status());
  fs->src_metas_ = std::move(*src_metas);

  const auto total = [](const std::vector<ChunkMeta>& metas) {
    std::uint64_t rows = 0;
    for (const ChunkMeta& m : metas) rows += m.row_count;
    return rows;
  };
  if (fs->dst_metas_.size() != fs->dst_sections_.size() ||
      fs->src_metas_.size() != fs->src_sections_.size()) {
    return ctx(util::data_loss("index entry count does not match the "
                               "number of chunk sections"));
  }
  if (total(fs->dst_metas_) != fs->flow_count_ ||
      total(fs->src_metas_) != fs->flow_count_) {
    return ctx(
        util::data_loss("index row totals do not match the flow count"));
  }
  for (std::size_t k = 1; k < fs->dst_metas_.size(); ++k) {
    if (fs->dst_metas_[k].row_count != 0 &&
        fs->dst_metas_[k - 1].row_count != 0 &&
        fs->dst_metas_[k].min_ip < fs->dst_metas_[k - 1].max_ip) {
      return ctx(util::data_loss("CIDX: chunks are not sorted by dst"));
    }
  }

  auto source = ChunkSource::open(path);
  if (!source.ok()) return ctx(source.status());
  fs->source_ = std::move(*source);
  return std::shared_ptr<const FlowStore>(std::move(fs));
}

util::Status FlowStore::decode_at(std::size_t k, bool src,
                                  ChunkData& out) const {
  const std::vector<Section>& sections = src ? src_sections_ : dst_sections_;
  const std::vector<ChunkMeta>& metas = src ? src_metas_ : dst_metas_;
  const char* family = src ? "SCHK" : "CHNK";
  const auto ctx = [&](util::Status s) {
    return std::move(s).with_context("FlowStore: " + path_ + ": section " +
                                     family + "[" + std::to_string(k) + "]");
  };
  if (k >= sections.size()) return ctx(util::internal_error("out of range"));
  const Section& section = sections[k];

  std::vector<std::uint8_t> scratch;
  const std::uint8_t* payload =
      source_.fetch(section.offset, section.length, scratch);
  if (payload == nullptr) return ctx(util::data_loss("truncated payload"));

  util::Crc32c crc;
  crc.update(payload, section.length);
  if (crc.value() != section.crc) {
    return ctx(util::data_loss("checksum mismatch"));
  }

  const util::Status decoded =
      src ? decode_src_chunk(payload, section.length, out)
          : decode_dst_chunk(payload, section.length, out);
  if (!decoded.ok()) return ctx(decoded);
  if (out.rows() != metas[k].row_count) {
    return ctx(util::data_loss("decoded row count disagrees with the index"));
  }
  if (!src) {
    const std::vector<std::uint32_t>& member = out.cols.src_member;
    for (std::size_t i = 0; i < out.src_mac_id.size(); ++i) {
      if (out.src_mac_id[i] >= mac_dict_.size() ||
          out.dst_mac_id[i] >= mac_dict_.size()) {
        return ctx(util::data_loss("MAC id outside the dictionary"));
      }
      if (member[i] >= member_count_ &&
          member[i] != flow::FlowColumns::kNoMember) {
        return ctx(util::data_loss("src_member outside the member table"));
      }
    }
  }
  chunks_decoded_.fetch_add(1, std::memory_order_relaxed);
  return util::ok_status();
}

std::shared_ptr<const ChunkData> FlowStore::chunk(std::size_t k,
                                                  bool src) const {
  for (CacheSlot& slot : t_chunk_cache) {
    if (slot.chunk != nullptr && slot.store_id == store_id_ &&
        slot.idx == k && slot.src == src) {
      slot.stamp = ++t_cache_stamp;
      return slot.chunk;
    }
  }
  auto data = std::make_shared<ChunkData>();
  if (util::Status s = decode_at(k, src, *data); !s.ok()) {
    throw std::runtime_error(s.message());
  }
  CacheSlot* victim = &t_chunk_cache[0];
  for (CacheSlot& slot : t_chunk_cache) {
    if (slot.stamp < victim->stamp) victim = &slot;
  }
  victim->store_id = store_id_;
  victim->idx = k;
  victim->src = src;
  victim->stamp = ++t_cache_stamp;
  victim->chunk = data;
  return data;
}

}  // namespace bw::store
