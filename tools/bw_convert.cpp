// bw-convert: migrate .bwds corpora between container versions.
//
//   bw-convert IN.bwds --out OUT.bwds   migrate (v2 or v3) -> v3
//   bw-convert IN.bwds --csv DIR        export the corpus as CSV files
//
// The input version is sniffed from the container header: legacy v2 files
// (single AoS FLOW section) go through the retained v2 reader, v3 files
// through the chunk-materializing loader. Writes are atomic
// (temp -> fsync -> rename), so an interrupted conversion never leaves a
// torn output file.
//
// Exit codes: 0 ok, 2 usage, 3 data error, 4 internal (see tools/cli.hpp).
#include <fstream>
#include <iostream>
#include <string>

#include "cli.hpp"
#include "core/dataset.hpp"
#include "core/io_text.hpp"
#include "obs/manifest.hpp"
#include "util/container.hpp"

namespace {

void usage() {
  std::cerr << "usage: bw-convert IN.bwds (--out OUT.bwds | --csv DIR)\n"
               "  --out OUT.bwds  write the chunked v3 format (the format\n"
               "                  bw-analyze reads, in-RAM or --out-of-core)\n"
               "  --csv DIR       export control/flows/macs/origins/period\n"
               "                  CSV files under DIR\n"
            << bw::tools::kObsUsage;
}

/// Container version of `path`, from the TOC (so the frame is validated
/// before any decode work starts).
bw::util::Result<std::uint32_t> sniff_version(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return bw::util::not_found("bw-convert: cannot open " + path);
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  auto toc = bw::util::container::read_toc(is, file_size);
  if (!toc.ok()) {
    bw::util::Status st = toc.status();
    return std::move(st).with_context("bw-convert: " + path);
  }
  return toc->version;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bw;
  std::string in_path;
  std::string out_v3;
  std::string out_csv;
  tools::ObsOptions obs_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs_options.parse(argc, argv, i)) {
      continue;
    } else if (arg == "--out" && i + 1 < argc) {
      out_v3 = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      out_csv = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return tools::kExitOk;
    } else if (!arg.empty() && arg[0] != '-') {
      in_path = arg;
    } else {
      usage();
      return tools::kExitUsage;
    }
  }
  if (in_path.empty() || out_v3.empty() == out_csv.empty()) {
    usage();
    return tools::kExitUsage;
  }
  obs_options.arm();

  try {
    const auto version = sniff_version(in_path);
    if (!version.ok()) {
      std::cerr << version.status().to_string() << "\n";
      return tools::kExitData;
    }
    std::cout << "Loading " << in_path << " (v" << *version << ")...\n";
    auto loaded = *version == util::container::kVersionV3
                      ? core::Dataset::try_load(in_path)
                      : core::Dataset::try_load_v2(in_path);
    if (!loaded.ok()) {
      std::cerr << "bw-convert: " << loaded.status().to_string() << "\n";
      return tools::kExitData;
    }
    const core::Dataset dataset = std::move(loaded).value();

    if (!out_csv.empty()) {
      core::export_dataset_csv(dataset, out_csv);
      std::cout << "Wrote CSV corpus to " << out_csv << "/\n";
    } else {
      if (const util::Status st = dataset.try_save(out_v3); !st.ok()) {
        std::cerr << "bw-convert: " << st.to_string() << "\n";
        return tools::kExitData;
      }
      std::cout << "Wrote v3 corpus to " << out_v3 << "\n";
    }

    obs::Manifest manifest;
    manifest.tool = "bw-convert";
    manifest.corpus = in_path;
    manifest.populate_from_metrics(obs::Registry::global().snapshot());
    if (!obs_options.emit("bw-convert", manifest)) return tools::kExitData;
    return tools::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "bw-convert: internal error: " << e.what() << "\n";
    return tools::kExitInternal;
  }
}
