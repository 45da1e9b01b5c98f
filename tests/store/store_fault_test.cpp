// Store-layer fault behaviour that the generic binary-fault matrix cannot
// pin down: corruption inside a specific chunk section must be reported
// *section-precisely* (naming the CHNK/SCHK family), lazily (at first
// touch, not at open), a CRC-valid chunk holding an out-of-range value
// must be refused by the decoder, and a legacy v2 file must be refused with
// an error that tells the operator exactly which tool migrates it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/corpus.hpp"
#include "core/pipeline.hpp"
#include "store/flow_store.hpp"
#include "util/container.hpp"

namespace bw::store {
namespace {

namespace fs = std::filesystem;
using bw::core::testutil::World;

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("bw_store_fault_test." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    World world;
    const net::Ipv4 victim(24, 0, 0, 1);
    bgp::UpdateLog control;
    control.push_back(world.platform->service().make_announce(
        util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    std::vector<flow::TrafficBurst> bursts;
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 {util::kHour, 2 * util::kHour}, 200,
                                 world.acceptor));
    dataset_ = std::make_unique<core::Dataset>(
        world.run(std::move(control), bursts));

    clean_path_ = (dir_ / "clean.bwds").string();
    ::setenv("BW_STORE_CHUNK_ROWS", "32", 1);
    ASSERT_TRUE(dataset_->try_save(clean_path_).ok());
    ::unsetenv("BW_STORE_CHUNK_ROWS");
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// First TOC section with `id`, from the clean file.
  util::container::Section find_section(std::uint32_t id) {
    std::ifstream is(clean_path_, std::ios::binary);
    is.seekg(0, std::ios::end);
    const auto size = static_cast<std::uint64_t>(is.tellg());
    auto toc = util::container::read_toc(is, size);
    EXPECT_TRUE(toc.ok());
    const util::container::Section* found = toc->find(id);
    EXPECT_NE(found, nullptr);
    return *found;
  }

  std::string clean_bytes() {
    std::ifstream is(clean_path_, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  }

  /// Copy of the clean file with one payload byte of `section` flipped.
  std::string corrupt_copy(const util::container::Section& section) {
    const std::string path = (dir_ / "corrupt.bwds").string();
    std::string bytes = clean_bytes();
    bytes[section.offset + section.length / 2] ^= 0x10;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
    return path;
  }

  /// Copy of the clean file re-framed section by section, with the payload
  /// of the first `id` section replaced: every CRC in the copy is valid, so
  /// only the decoders' own validation can reject the new payload.
  std::string reframed_copy(std::uint32_t id,
                            const std::vector<std::uint8_t>& payload) {
    const std::string path = (dir_ / "reframed.bwds").string();
    const std::string bytes = clean_bytes();
    std::istringstream is(bytes);
    auto toc = util::container::read_toc(is, bytes.size());
    EXPECT_TRUE(toc.ok());
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    util::container::Writer w(os, toc->version);
    bool replaced = false;
    for (const util::container::Section& s : toc->sections) {
      w.begin_section(s.id);
      if (s.id == id && !replaced) {
        w.write(payload.data(), payload.size());
        replaced = true;
      } else {
        w.write(bytes.data() + s.offset, s.length);
      }
      w.end_section();
    }
    EXPECT_TRUE(replaced);
    EXPECT_TRUE(w.finish().ok());
    return path;
  }

  fs::path dir_;
  std::unique_ptr<core::Dataset> dataset_;
  std::string clean_path_;
};

TEST_F(StoreFaultTest, CorruptDstChunkFailsAtTouchNamingTheSection) {
  const std::string path = corrupt_copy(find_section(kSecChunk));
  // Open validates only the frame metadata: the flipped payload byte is
  // not seen yet.
  auto store = FlowStore::open(path);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  // First touch of the damaged chunk reports it precisely.
  ChunkData chunk;
  const util::Status s = (*store)->decode_at(0, /*src=*/false, chunk);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.to_string().find("CHNK"), std::string::npos) << s.to_string();

  // A materializing load decodes every dst chunk, so it must fail too.
  const auto loaded = core::Dataset::try_load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("CHNK"), std::string::npos)
      << loaded.status().to_string();
}

TEST_F(StoreFaultTest, CorruptSrcChunkIsStillCaughtByFullLoad) {
  const std::string path = corrupt_copy(find_section(kSecSrcChunk));
  // The materializing loader decodes every src chunk, so a damaged one
  // fails its checksum there instead of shipping a silently damaged file.
  const auto loaded = core::Dataset::try_load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("SCHK"), std::string::npos)
      << loaded.status().to_string();
}

TEST_F(StoreFaultTest, OutOfRangeSrcMemberIsRejectedWhereTheChunkDecodes) {
  // Chunk 0 re-encoded with a member id one past the source-AS table.
  // Per-member kernels index arrays of source_as_count() entries with it,
  // so the decoder must refuse the row rather than hand it on.
  std::vector<std::uint8_t> payload;
  {
    auto store = FlowStore::open(clean_path_);
    ASSERT_TRUE(store.ok()) << store.status().to_string();
    ChunkData chunk;
    ASSERT_TRUE((*store)->decode_at(0, /*src=*/false, chunk).ok());
    chunk.cols.src_member[0] =
        static_cast<std::uint32_t>(dataset_->source_as_count());
    encode_dst_chunk(chunk, payload);
  }
  const std::string path = reframed_copy(kSecChunk, payload);

  const auto loaded = core::Dataset::try_load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  const std::string msg = loaded.status().to_string();
  EXPECT_NE(msg.find("CHNK[0]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("src_member"), std::string::npos) << msg;

  // Out of core the file opens (payloads are not read at open); the scans
  // that touch chunk 0 then fail inside their guarded stages.
  auto chunked = core::Dataset::try_open_chunked(path);
  ASSERT_TRUE(chunked.ok()) << chunked.status().to_string();
  const core::AnalysisReport report = core::run_pipeline(*chunked);
  EXPECT_TRUE(report.data_quality.degraded());
  bool named = false;
  for (const core::StageStatus& stage : report.data_quality.stages) {
    if (stage.degraded && stage.error.find("src_member") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST_F(StoreFaultTest, CorruptChunkIndexFailsAtOpen) {
  const std::string path = corrupt_copy(find_section(kSecChunkIndex));
  const auto store = FlowStore::open(path);
  EXPECT_FALSE(store.ok());
  EXPECT_NE(store.status().to_string().find("CIDX"), std::string::npos)
      << store.status().to_string();
}

TEST_F(StoreFaultTest, V2FileIsRefusedNamingTheConverter) {
  const std::string v2_path = (dir_ / "legacy.bwds").string();
  ASSERT_TRUE(dataset_->try_save_v2(v2_path).ok());

  const auto loaded = core::Dataset::try_load(v2_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().to_string().find("bw-convert"), std::string::npos)
      << loaded.status().to_string();

  const auto chunked = core::Dataset::try_open_chunked(v2_path);
  ASSERT_FALSE(chunked.ok());
  EXPECT_NE(chunked.status().to_string().find("bw-convert"), std::string::npos)
      << chunked.status().to_string();

  // The v2 reader still accepts it (bw-convert's input path).
  EXPECT_TRUE(core::Dataset::try_load_v2(v2_path).ok());
}

TEST_F(StoreFaultTest, V3FileIsRefusedByTheV2Reader) {
  // The v2 reader shares the container-open path with the v3 loaders; only
  // the version check differs, and it must fail the other way round.
  const auto legacy = core::Dataset::try_load_v2(clean_path_);
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), util::StatusCode::kFailedPrecondition);
  const std::string msg = legacy.status().to_string();
  EXPECT_NE(msg.find("Dataset::try_load_v2: " + clean_path_),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("not a v2 file (version 3)"), std::string::npos) << msg;
}

TEST_F(StoreFaultTest, ChunkedDatasetScansSurviveCorruptionViaStatus) {
  const std::string path = corrupt_copy(find_section(kSecChunk));
  auto ds = core::Dataset::try_open_chunked(path);
  ASSERT_TRUE(ds.ok()) << ds.status().to_string();
  // The throwing accessor surfaces the corruption as an exception that the
  // guarded pipeline stages absorb into a degraded-stage report.
  EXPECT_THROW(ds->store()->chunk(0), std::runtime_error);
}

}  // namespace
}  // namespace bw::store
