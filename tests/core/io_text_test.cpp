#include "core/io_text.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "corpus.hpp"

namespace bw::core {
namespace {

using testutil::World;

Dataset small_dataset() {
  World world({0, util::days(2)}, 0);
  const net::Ipv4 victim(24, 0, 0, 1);
  bgp::UpdateLog control;
  control.push_back(world.platform->service().make_announce(
      util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim),
      {bgp::Community{0, 300}}));
  control.push_back(world.platform->service().make_withdraw(
      2 * util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
  std::vector<flow::TrafficBurst> bursts;
  bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                               net::Proto::kUdp, 123, 4444,
                               {util::kHour, 2 * util::kHour}, 50,
                               world.acceptor));
  bursts.push_back(world.burst(net::Ipv4(64, 1, 0, 1), victim,
                               net::Proto::kTcp, 55555, 443,
                               {0, util::kHour}, 25, world.rejector));
  return world.run(std::move(control), bursts);
}

TEST(IoTextTest, ControlRoundTrip) {
  const Dataset ds = small_dataset();
  std::stringstream ss;
  write_control_csv(ss, ds.control());
  const auto parsed = read_control_csv(ss, LoadOptions{});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed->size(), ds.control().size());
  for (std::size_t i = 0; i < parsed->size(); ++i) {
    const auto& a = (*parsed)[i];
    const auto& b = ds.control()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.sender_asn, b.sender_asn);
    EXPECT_EQ(a.origin_asn, b.origin_asn);
    EXPECT_EQ(a.prefix, b.prefix);
    EXPECT_EQ(a.next_hop, b.next_hop);
    EXPECT_EQ(a.communities, b.communities);
  }
}

TEST(IoTextTest, FlowsRoundTrip) {
  const Dataset ds = small_dataset();
  std::stringstream ss;
  write_flows_csv(ss, ds.flows());
  const auto parsed = read_flows_csv(ss, LoadOptions{});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed->size(), ds.flows().size());
  for (std::size_t i = 0; i < parsed->size(); ++i) {
    const auto& a = (*parsed)[i];
    const auto& b = ds.flows()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.src_ip, b.src_ip);
    EXPECT_EQ(a.dst_ip, b.dst_ip);
    EXPECT_EQ(a.proto, b.proto);
    EXPECT_EQ(a.src_port, b.src_port);
    EXPECT_EQ(a.dst_port, b.dst_port);
    EXPECT_EQ(a.src_mac, b.src_mac);
    EXPECT_EQ(a.dst_mac, b.dst_mac);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.bytes, b.bytes);
  }
}

/// A strict read refused the row on line 2 (the one after the header) with
/// `code`, and the message names `file` and that line.
template <typename T>
void expect_rejected(const util::Result<T>& r, util::StatusCode code,
                     const std::string& file) {
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), code) << r.status().message();
  EXPECT_NE(r.status().message().find(file + ": line 2: "), std::string::npos)
      << r.status().message();
}

TEST(IoTextTest, MalformedRowsRejected) {
  const LoadOptions strict;
  {
    std::stringstream ss("time_ms,type,...\n123,X,1,2,10.0.0.1/32,1.2.3.4,\n");
    expect_rejected(read_control_csv(ss, strict),
                    util::StatusCode::kInvalidArgument, "control.csv");
  }
  {
    std::stringstream ss("header\nnot,enough,fields\n");
    expect_rejected(read_control_csv(ss, strict),
                    util::StatusCode::kDataLoss, "control.csv");
  }
  {
    std::stringstream ss("header\n1,2,3\n");
    expect_rejected(read_flows_csv(ss, strict), util::StatusCode::kDataLoss,
                    "flows.csv");
  }
  {
    std::stringstream ss("header\nzz:zz:zz:zz:zz:zz,abc\n");
    expect_rejected(read_macs_csv(ss, strict),
                    util::StatusCode::kInvalidArgument, "macs.csv");
  }
  {
    std::stringstream ss("header\n10.0.0.0/99,1\n");
    expect_rejected(read_origins_csv(ss, strict),
                    util::StatusCode::kInvalidArgument, "origins.csv");
  }
}

TEST(IoTextTest, EmptyBodiesAreValid) {
  std::stringstream control("header\n");
  const auto parsed = read_control_csv(control, LoadOptions{});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed->empty());
}

TEST(IoTextTest, DirectoryExportImportRoundTrip) {
  const Dataset ds = small_dataset();
  const std::string dir = testing::TempDir() + "/bw_csv_export";
  std::filesystem::remove_all(dir);
  export_dataset_csv(ds, dir);
  for (const char* name :
       {"control.csv", "flows.csv", "macs.csv", "origins.csv", "period.csv"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + name)) << name;
  }
  auto result = load_dataset_csv(dir);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const Dataset& loaded = *result;
  EXPECT_EQ(loaded.control().size(), ds.control().size());
  EXPECT_EQ(loaded.flows().size(), ds.flows().size());
  EXPECT_EQ(loaded.period(), ds.period());
  EXPECT_EQ(loaded.mac_table().size(), ds.mac_table().size());
  // Analyses on the re-imported dataset behave identically.
  const auto s1 = loaded.summary();
  const auto s2 = ds.summary();
  EXPECT_EQ(s1.dropped_packets, s2.dropped_packets);
  EXPECT_EQ(s1.blackholed_prefixes, s2.blackholed_prefixes);
  EXPECT_EQ(loaded.origin_asn(net::Ipv4(64, 0, 0, 1)),
            ds.origin_asn(net::Ipv4(64, 0, 0, 1)));
  std::filesystem::remove_all(dir);
}

TEST(IoTextTest, LoadMissingDirectoryIsNotFound) {
  const auto r = load_dataset_csv("/nonexistent-bw-dir");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find(
                "load_dataset_csv: /nonexistent-bw-dir: cannot open "
                "/nonexistent-bw-dir/control.csv"),
            std::string::npos)
      << r.status().message();
}

// --- streaming readers: CRLF, strictness, per-file accounting ---

constexpr const char* kFlowsHeader =
    "time_ms,src_ip,dst_ip,proto,src_port,dst_port,src_mac,dst_mac,"
    "packets,bytes";

std::string flow_row(std::int64_t time) {
  return std::to_string(time) +
         ",64.0.0.1,24.0.0.1,17,123,4444,"
         "aa:bb:cc:00:00:01,aa:bb:cc:00:00:02,3,1500";
}

TEST(IoTextTest, CrlfTerminatedLinesParse) {
  std::stringstream macs("mac,asn\r\naa:bb:cc:00:00:01,42\r\n");
  const auto parsed_macs = read_macs_csv(macs, LoadOptions{});
  ASSERT_TRUE(parsed_macs.ok()) << parsed_macs.status().to_string();
  ASSERT_EQ(parsed_macs->size(), 1u);
  EXPECT_EQ(parsed_macs->begin()->second, 42u);

  std::stringstream flows(std::string(kFlowsHeader) + "\r\n" + flow_row(100) +
                          "\r\n");
  const auto parsed_flows = read_flows_csv(flows, LoadOptions{});
  ASSERT_TRUE(parsed_flows.ok()) << parsed_flows.status().to_string();
  ASSERT_EQ(parsed_flows->size(), 1u);
  EXPECT_EQ((*parsed_flows)[0].time, 100);
  EXPECT_EQ((*parsed_flows)[0].bytes, 1500);
}

TEST(IoTextTest, StrictFailsWithLineNumber) {
  std::stringstream ss(std::string(kFlowsHeader) + "\n" + flow_row(100) +
                       "\ngarbage\n" + flow_row(200) + "\n");
  const auto r = read_flows_csv(ss, LoadOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("flows.csv"), std::string::npos);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

TEST(IoTextTest, SkipModeCostsOneRecordPerFault) {
  std::stringstream ss(std::string(kFlowsHeader) + "\n" + flow_row(100) +
                       "\ngarbage\n" + flow_row(200) + "\n");
  LoadOptions options;
  options.strictness = Strictness::kSkip;
  LoadReport report;
  const auto r = read_flows_csv(ss, options, &report);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_EQ(report.rows_read, 2u);
  EXPECT_EQ(report.rows_skipped, 1u);
  EXPECT_EQ(report.rows_repaired, 0u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].line, 3u);
  EXPECT_FALSE(report.clean());
}

TEST(IoTextTest, TruncatedTailCostsOneRecord) {
  // No terminating newline: the file ends mid-row.
  std::stringstream ss(std::string(kFlowsHeader) + "\n" + flow_row(100) + "\n" +
                       flow_row(200).substr(0, 20));
  LoadOptions options;
  options.strictness = Strictness::kSkip;
  LoadReport report;
  const auto r = read_flows_csv(ss, options, &report);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
  EXPECT_EQ(report.rows_skipped, 1u);
}

TEST(IoTextTest, RepairDefaultsDamagedVolumeTail) {
  // 8 intact leading fields (tail cut after dst_mac).
  std::string damaged = flow_row(100);
  damaged = damaged.substr(0, damaged.rfind(",3,1500"));
  std::stringstream ss(std::string(kFlowsHeader) + "\n" + damaged + "\n");
  LoadOptions options;
  options.strictness = Strictness::kRepair;
  LoadReport report;
  const auto r = read_flows_csv(ss, options, &report);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].packets, 1);
  EXPECT_EQ(r.value()[0].bytes, 0);
  EXPECT_EQ(report.rows_repaired, 1u);
  EXPECT_EQ(report.rows_skipped, 0u);

  // kSkip must not salvage the same row.
  std::stringstream again(std::string(kFlowsHeader) + "\n" + damaged + "\n");
  options.strictness = Strictness::kSkip;
  LoadReport skip_report;
  const auto r2 = read_flows_csv(again, options, &skip_report);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().empty());
  EXPECT_EQ(skip_report.rows_skipped, 1u);
}

TEST(IoTextTest, RepairDropsMangledCommunities) {
  const std::string row = "100,A,500,100,24.0.0.1/32,10.0.0.1,##mangled##";
  std::stringstream ss("time_ms,type,sender_asn,origin_asn,prefix,next_hop,"
                       "communities\n" +
                       row + "\n");
  LoadOptions options;
  options.strictness = Strictness::kRepair;
  LoadReport report;
  const auto r = read_control_csv(ss, options, &report);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_TRUE(r.value()[0].communities.empty());
  EXPECT_EQ(r.value()[0].prefix.to_string(), "24.0.0.1/32");
  EXPECT_EQ(report.rows_repaired, 1u);
}

TEST(IoTextTest, IngestReportSummarizes) {
  LoadReport report;
  report.file = "flows.csv";
  report.rows_read = 10;
  report.rows_skipped = 2;
  report.note(17, "bad src_ip 'x'", 8);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("flows.csv"), std::string::npos);
  EXPECT_NE(summary.find("line 17"), std::string::npos);

  IngestReport ingest;
  ingest.files.push_back(report);
  EXPECT_FALSE(ingest.clean());
  EXPECT_EQ(ingest.rows_skipped(), 2u);
}

}  // namespace
}  // namespace bw::core
