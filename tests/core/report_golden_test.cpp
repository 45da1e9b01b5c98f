// Golden report digests: the rendered markdown report (pipeline + what-if
// section) of three generated corpora, pinned by CRC32C and byte length.
//
// The digests were captured when the analysis still carried two kernel
// implementations per figure (the columnar scans and the original AoS
// record walks) and both rendered these exact bytes at 1 and 8 workers.
// They are the independent oracle for every figure the report renders:
// any change to a kernel's semantics, accumulation order or formatting
// moves a digest. Each corpus is checked four ways — {in RAM, saved and
// reopened out-of-core} x {serial, 7 workers}.
//
// On a mismatch the offending report is written next to the corpus under
// the per-process temp dir and the failure names the file, so the diff
// can be inspected. A deliberate change to the report format means
// updating the constants below by hand from such a file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/whatif.hpp"
#include "util/checksum.hpp"
#include "util/parallel.hpp"

namespace bw::core {
namespace {

namespace fs = std::filesystem;

struct Golden {
  std::uint64_t seed;
  std::uint32_t crc32c;
  std::size_t bytes;
};

// Printed as the bare seed, so test runners that name value-parameterized
// cases by their printed value list them as .../7, .../42, .../20191021.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.seed; }

// Scale 0.02, default scenario otherwise.
constexpr Golden kGolden[] = {
    {7u, 0x03ba6105u, 2139u},
    {42u, 0xe4223344u, 2138u},
    {20191021u, 0x2768b299u, 2165u},
};

std::string render_report(const Dataset& dataset, std::size_t workers) {
  util::ThreadPool pool(workers);
  AnalysisConfig cfg;
  cfg.pool = &pool;
  const AnalysisReport report = run_pipeline(dataset, cfg);
  const WhatIfReport whatif = compute_whatif(dataset, report.events, report.pre);
  return render_markdown(dataset, report, &whatif);
}

class ReportGoldenTest : public ::testing::TestWithParam<Golden> {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("bw_report_golden." + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  // Removes the directory only when no mismatch report was left in it.
  void TearDown() override {
    std::error_code ec;
    fs::remove(dir_, ec);
  }

  /// Compare one rendering against the pinned digest; on mismatch keep the
  /// report on disk and name it in the failure.
  void expect_golden(const std::string& report, const std::string& mode) {
    const Golden& g = GetParam();
    const std::uint32_t crc = util::crc32c(report);
    if (crc == g.crc32c && report.size() == g.bytes) return;
    const fs::path out =
        dir_ / ("report_" + std::to_string(g.seed) + "_" + mode + ".md");
    std::ofstream(out, std::ios::binary) << report;
    ADD_FAILURE() << "seed " << g.seed << " (" << mode << "): crc32c 0x"
                  << std::hex << crc << std::dec << ", " << report.size()
                  << " bytes; expected 0x" << std::hex << g.crc32c << std::dec
                  << ", " << g.bytes << " bytes. Report written to "
                  << out.string();
  }

  fs::path dir_;
};

TEST_P(ReportGoldenTest, ReportMatchesPinnedDigestInRamAndChunked) {
  const Golden& g = GetParam();
  gen::ScenarioConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = g.seed;
  const ScenarioRun run = run_scenario(cfg, std::string{});  // cache disabled

  expect_golden(render_report(run.dataset, 0), "ram_serial");
  expect_golden(render_report(run.dataset, 7), "ram_8way");

  const fs::path corpus = dir_ / ("corpus_" + std::to_string(g.seed) + ".bwds");
  ASSERT_TRUE(run.dataset.try_save(corpus.string()).ok());
  auto chunked = Dataset::try_open_chunked(corpus.string());
  ASSERT_TRUE(chunked.ok()) << chunked.status().to_string();
  ASSERT_TRUE(chunked->chunked());
  expect_golden(render_report(*chunked, 0), "chunked_serial");
  expect_golden(render_report(*chunked, 7), "chunked_8way");
  fs::remove(corpus);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReportGoldenTest, ::testing::ValuesIn(kGolden));

}  // namespace
}  // namespace bw::core
