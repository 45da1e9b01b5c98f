#include "store/chunk.hpp"

#include <cstring>
#include <string>

#include "store/codec.hpp"

namespace bw::store {

namespace {

template <typename T>
void append_raw(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

template <typename T>
T read_raw(const std::uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  p += sizeof(v);
  return v;
}

/// Append one length-prefixed column block.
void put_block(std::vector<std::uint8_t>& out,
               const std::vector<std::uint8_t>& block) {
  put_varint(out, block.size());
  out.insert(out.end(), block.begin(), block.end());
}

/// Resolve the next block's [begin, end) window.
[[nodiscard]] bool next_block(const std::uint8_t*& p, const std::uint8_t* end,
                              const std::uint8_t*& bp,
                              const std::uint8_t*& bend) {
  std::uint64_t len = 0;
  if (!get_varint(p, end, len)) return false;
  if (len > static_cast<std::uint64_t>(end - p)) return false;
  bp = p;
  bend = p + len;
  p = bend;
  return true;
}

util::Status column_error(const char* what, const char* column) {
  return util::data_loss(std::string("store: ") + what + " in column block '" +
                         column + "'");
}

// --- per-column codecs (each block decodes to exactly `rows` values) ---

template <typename T>
void encode_delta_sorted(const std::vector<T>& col,
                         std::vector<std::uint8_t>& block) {
  block.clear();
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    const auto v = static_cast<std::uint64_t>(col[i]);
    put_varint(block, i == 0 ? v : v - prev);  // non-negative: col is sorted
    prev = v;
  }
}

template <typename T>
bool decode_delta_sorted(const std::uint8_t* p, const std::uint8_t* end,
                         std::size_t rows, std::vector<T>& col) {
  col.resize(rows);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t d = 0;
    if (!get_varint(p, end, d)) return false;
    acc = i == 0 ? d : acc + d;
    col[i] = static_cast<T>(acc);
  }
  return p == end;
}

void encode_zigzag_delta(const std::vector<util::TimeMs>& col,
                         std::vector<std::uint8_t>& block) {
  block.clear();
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    put_varint(block, zigzag(i == 0 ? col[i] : col[i] - prev));
    prev = col[i];
  }
}

bool decode_zigzag_delta(const std::uint8_t* p, const std::uint8_t* end,
                         std::size_t rows, std::vector<util::TimeMs>& col) {
  col.resize(rows);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t z = 0;
    if (!get_varint(p, end, z)) return false;
    acc = i == 0 ? unzigzag(z) : acc + unzigzag(z);
    col[i] = acc;
  }
  return p == end;
}

template <typename T>
void encode_varints(const std::vector<T>& col,
                    std::vector<std::uint8_t>& block) {
  block.clear();
  for (const T v : col) put_varint(block, static_cast<std::uint64_t>(v));
}

template <typename T>
bool decode_varints(const std::uint8_t* p, const std::uint8_t* end,
                    std::size_t rows, std::vector<T>& col) {
  col.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t v = 0;
    if (!get_varint(p, end, v)) return false;
    col[i] = static_cast<T>(v);
  }
  return p == end;
}

}  // namespace

void append_meta(std::vector<std::uint8_t>& out, const ChunkMeta& meta) {
  append_raw(out, meta.row_begin);
  append_raw(out, meta.row_count);
  append_raw(out, meta.min_time);
  append_raw(out, meta.max_time);
  append_raw(out, meta.min_ip);
  append_raw(out, meta.max_ip);
  append_raw(out, meta.proto_mask);
  out.insert(out.end(), meta.bloom.bits.begin(), meta.bloom.bits.end());
}

ChunkMeta parse_meta(const std::uint8_t* p) {
  ChunkMeta m;
  m.row_begin = read_raw<std::uint64_t>(p);
  m.row_count = read_raw<std::uint32_t>(p);
  m.min_time = read_raw<util::TimeMs>(p);
  m.max_time = read_raw<util::TimeMs>(p);
  m.min_ip = read_raw<std::uint32_t>(p);
  m.max_ip = read_raw<std::uint32_t>(p);
  m.proto_mask = read_raw<std::uint32_t>(p);
  std::memcpy(m.bloom.bits.data(), p, m.bloom.bits.size());
  return m;
}

void encode_dst_chunk(const ChunkData& chunk,
                      std::vector<std::uint8_t>& out) {
  const flow::FlowColumns& c = chunk.cols;
  const std::size_t rows = c.time.size();
  out.clear();
  append_raw(out, static_cast<std::uint32_t>(rows));

  std::vector<std::uint8_t> block;
  encode_delta_sorted(c.dst_ip, block);
  put_block(out, block);
  encode_zigzag_delta(c.time, block);
  put_block(out, block);
  encode_varints(c.src_ip, block);
  put_block(out, block);
  // proto: raw byte per row.
  block.assign(c.proto.begin(), c.proto.end());
  put_block(out, block);
  encode_varints(c.src_port, block);
  put_block(out, block);
  encode_varints(c.dst_port, block);
  put_block(out, block);
  encode_varints(c.packets, block);
  put_block(out, block);
  encode_varints(c.bytes, block);
  put_block(out, block);
  encode_varints(chunk.src_mac_id, block);
  put_block(out, block);
  encode_varints(chunk.dst_mac_id, block);
  put_block(out, block);
  // src_member: kNoMember -> 0, member m -> m + 1 (keeps the varint short).
  block.clear();
  for (const std::uint32_t m : c.src_member) {
    put_varint(block, m == flow::FlowColumns::kNoMember
                          ? 0
                          : static_cast<std::uint64_t>(m) + 1);
  }
  put_block(out, block);
  // dropped: packed bitmap, one bit per row.
  block.clear();
  const std::size_t nbytes = (rows + 7) / 8;
  block.resize(nbytes, 0);
  for (std::size_t j = 0; j < nbytes; ++j) {
    block[j] = static_cast<std::uint8_t>(
        (c.dropped_words[j >> 3] >> (8 * (j & 7))) & 0xFFu);
  }
  put_block(out, block);
  // orig_pos: raw u32 per row (random values; varint would not help).
  block.clear();
  for (const std::uint32_t v : chunk.orig_pos) append_raw(block, v);
  put_block(out, block);
}

util::Status decode_dst_chunk(const std::uint8_t* p, std::size_t len,
                              ChunkData& out) {
  const std::uint8_t* end = p + len;
  if (len < sizeof(std::uint32_t)) {
    return util::data_loss("store: chunk shorter than its row-count header");
  }
  const std::size_t rows = read_raw<std::uint32_t>(p);
  flow::FlowColumns& c = out.cols;

  const std::uint8_t* bp = nullptr;
  const std::uint8_t* bend = nullptr;
  const auto block = [&](const char* column) -> util::Status {
    if (!next_block(p, end, bp, bend)) return column_error("bad frame", column);
    return util::ok_status();
  };

  if (auto s = block("dst_ip"); !s.ok()) return s;
  if (!decode_delta_sorted(bp, bend, rows, c.dst_ip)) {
    return column_error("bad varint run", "dst_ip");
  }
  if (auto s = block("time"); !s.ok()) return s;
  if (!decode_zigzag_delta(bp, bend, rows, c.time)) {
    return column_error("bad varint run", "time");
  }
  if (auto s = block("src_ip"); !s.ok()) return s;
  if (!decode_varints(bp, bend, rows, c.src_ip)) {
    return column_error("bad varint run", "src_ip");
  }
  if (auto s = block("proto"); !s.ok()) return s;
  if (static_cast<std::size_t>(bend - bp) != rows) {
    return column_error("bad length", "proto");
  }
  c.proto.assign(bp, bend);
  if (auto s = block("src_port"); !s.ok()) return s;
  if (!decode_varints(bp, bend, rows, c.src_port)) {
    return column_error("bad varint run", "src_port");
  }
  if (auto s = block("dst_port"); !s.ok()) return s;
  if (!decode_varints(bp, bend, rows, c.dst_port)) {
    return column_error("bad varint run", "dst_port");
  }
  if (auto s = block("packets"); !s.ok()) return s;
  if (!decode_varints(bp, bend, rows, c.packets)) {
    return column_error("bad varint run", "packets");
  }
  if (auto s = block("bytes"); !s.ok()) return s;
  if (!decode_varints(bp, bend, rows, c.bytes)) {
    return column_error("bad varint run", "bytes");
  }
  if (auto s = block("src_mac_id"); !s.ok()) return s;
  if (!decode_varints(bp, bend, rows, out.src_mac_id)) {
    return column_error("bad varint run", "src_mac_id");
  }
  if (auto s = block("dst_mac_id"); !s.ok()) return s;
  if (!decode_varints(bp, bend, rows, out.dst_mac_id)) {
    return column_error("bad varint run", "dst_mac_id");
  }
  if (auto s = block("src_member"); !s.ok()) return s;
  c.src_member.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t v = 0;
    if (!get_varint(bp, bend, v) || v > flow::FlowColumns::kNoMember) {
      return column_error("bad varint run", "src_member");
    }
    c.src_member[i] = v == 0 ? flow::FlowColumns::kNoMember
                             : static_cast<std::uint32_t>(v - 1);
  }
  if (bp != bend) return column_error("bad length", "src_member");
  if (auto s = block("dropped"); !s.ok()) return s;
  const std::size_t nbytes = (rows + 7) / 8;
  if (static_cast<std::size_t>(bend - bp) != nbytes) {
    return column_error("bad length", "dropped");
  }
  c.dropped_words.assign((rows + 63) / 64, 0);
  for (std::size_t j = 0; j < nbytes; ++j) {
    c.dropped_words[j >> 3] |= static_cast<std::uint64_t>(bp[j])
                               << (8 * (j & 7));
  }
  if (auto s = block("orig_pos"); !s.ok()) return s;
  if (static_cast<std::size_t>(bend - bp) != rows * sizeof(std::uint32_t)) {
    return column_error("bad length", "orig_pos");
  }
  out.orig_pos.resize(rows);
  if (rows != 0) {  // an empty vector's data() may be null
    std::memcpy(out.orig_pos.data(), bp, rows * sizeof(std::uint32_t));
  }
  if (p != end) {
    return util::data_loss("store: trailing bytes after the last column block");
  }
  return util::ok_status();
}

void encode_src_chunk(const ChunkData& chunk,
                      std::vector<std::uint8_t>& out) {
  const flow::FlowColumns& c = chunk.cols;
  out.clear();
  append_raw(out, static_cast<std::uint32_t>(c.s_time.size()));
  std::vector<std::uint8_t> block;
  encode_delta_sorted(c.s_src_ip, block);
  put_block(out, block);
  encode_zigzag_delta(c.s_time, block);
  put_block(out, block);
  encode_varints(c.s_src_port, block);
  put_block(out, block);
  encode_varints(c.s_dst_port, block);
  put_block(out, block);
}

util::Status decode_src_chunk(const std::uint8_t* p, std::size_t len,
                              ChunkData& out) {
  const std::uint8_t* end = p + len;
  if (len < sizeof(std::uint32_t)) {
    return util::data_loss("store: chunk shorter than its row-count header");
  }
  const std::size_t rows = read_raw<std::uint32_t>(p);
  flow::FlowColumns& c = out.cols;
  const std::uint8_t* bp = nullptr;
  const std::uint8_t* bend = nullptr;
  if (!next_block(p, end, bp, bend) ||
      !decode_delta_sorted(bp, bend, rows, c.s_src_ip)) {
    return column_error("bad varint run", "s_src_ip");
  }
  if (!next_block(p, end, bp, bend) ||
      !decode_zigzag_delta(bp, bend, rows, c.s_time)) {
    return column_error("bad varint run", "s_time");
  }
  if (!next_block(p, end, bp, bend) ||
      !decode_varints(bp, bend, rows, c.s_src_port)) {
    return column_error("bad varint run", "s_src_port");
  }
  if (!next_block(p, end, bp, bend) ||
      !decode_varints(bp, bend, rows, c.s_dst_port)) {
    return column_error("bad varint run", "s_dst_port");
  }
  if (p != end) {
    return util::data_loss("store: trailing bytes after the last column block");
  }
  return util::ok_status();
}

ChunkMeta make_dst_meta(const ChunkData& chunk, std::uint64_t row_begin) {
  const flow::FlowColumns& c = chunk.cols;
  ChunkMeta m;
  m.row_begin = row_begin;
  m.row_count = static_cast<std::uint32_t>(c.time.size());
  if (m.row_count == 0) return m;
  m.min_ip = c.dst_ip.front();  // sorted by dst_ip
  m.max_ip = c.dst_ip.back();
  m.min_time = c.time.front();
  m.max_time = c.time.front();
  for (std::size_t i = 0; i < c.time.size(); ++i) {
    m.min_time = std::min(m.min_time, c.time[i]);
    m.max_time = std::max(m.max_time, c.time[i]);
    m.proto_mask |= proto_bit(c.proto[i]);
    m.bloom.add(c.dst_ip[i] >> 8);
  }
  return m;
}

ChunkMeta make_src_meta(const ChunkData& chunk, std::uint64_t row_begin) {
  const flow::FlowColumns& c = chunk.cols;
  ChunkMeta m;
  m.row_begin = row_begin;
  m.row_count = static_cast<std::uint32_t>(c.s_time.size());
  if (m.row_count == 0) return m;
  m.min_ip = c.s_src_ip.front();  // sorted by src_ip
  m.max_ip = c.s_src_ip.back();
  m.min_time = c.s_time.front();
  m.max_time = c.s_time.front();
  for (const util::TimeMs t : c.s_time) {
    m.min_time = std::min(m.min_time, t);
    m.max_time = std::max(m.max_time, t);
  }
  return m;
}

}  // namespace bw::store
