#include "core/dataset.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/flow_view.hpp"
#include "corpus.hpp"

namespace bw::core {
namespace {

using testutil::World;

/// What a destination scan visited: row count, packet sum, and whether
/// every visited row really was inside the prefix and the time window.
struct Scan {
  std::size_t rows{0};
  std::uint64_t packets{0};
  bool all_inside{true};
};

Scan view_scan(const Dataset& dataset, const net::Prefix& prefix,
               util::TimeRange range) {
  Scan s;
  dataset.view().for_each_dst_row(
      prefix, range, [&](const flow::FlowColumns& c, std::size_t i) {
        ++s.rows;
        s.packets += c.packets[i];
        if (!prefix.contains(net::Ipv4(c.dst_ip[i])) ||
            !range.contains(c.time[i])) {
          s.all_inside = false;
        }
      });
  return s;
}

/// The oracle: a plain loop over the materialized records.
Scan naive_scan(const flow::FlowLog& flows, const net::Prefix& prefix,
                util::TimeRange range) {
  Scan s;
  for (const auto& rec : flows) {
    if (!prefix.contains(rec.dst_ip) || !range.contains(rec.time)) continue;
    ++s.rows;
    s.packets += rec.packets;
  }
  return s;
}

void expect_same_summary(const Dataset::Summary& a, const Dataset::Summary& b) {
  EXPECT_EQ(a.control_updates, b.control_updates);
  EXPECT_EQ(a.blackhole_updates, b.blackhole_updates);
  EXPECT_EQ(a.blackholed_prefixes, b.blackholed_prefixes);
  EXPECT_EQ(a.flow_records, b.flow_records);
  EXPECT_EQ(a.sampled_packets, b.sampled_packets);
  EXPECT_EQ(a.sampled_bytes, b.sampled_bytes);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.dropped_bytes, b.dropped_bytes);
}

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    World world;
    const net::Ipv4 victim(24, 0, 0, 1);
    bgp::UpdateLog control;
    control.push_back(world.platform->service().make_announce(
        util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));
    control.push_back(world.platform->service().make_withdraw(
        2 * util::kHour, World::kVictimAsn, 50000, net::Prefix::host(victim)));

    std::vector<flow::TrafficBurst> bursts;
    // 100 packets during the blackhole from the acceptor (dropped),
    // 50 before it (forwarded).
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 1), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 {util::kHour, 2 * util::kHour}, 100,
                                 world.acceptor));
    bursts.push_back(world.burst(net::Ipv4(64, 0, 0, 2), victim,
                                 net::Proto::kUdp, 123, 4444,
                                 {0, util::kHour}, 50, world.acceptor));
    dataset_ = std::make_unique<Dataset>(world.run(std::move(control), bursts));
    macs_acceptor_ = world.platform->member(world.acceptor).port_mac;
  }

  void TearDown() override {
    if (!chunked_path_.empty()) std::remove(chunked_path_.c_str());
  }

  /// Save the corpus as a v3 store with 16-row chunks (so the victim's
  /// host run straddles chunk boundaries) and reopen it out-of-core.
  void open_chunked() {
    chunked_path_ = testing::TempDir() + "/bw_dataset_chunked." +
                    std::to_string(::getpid()) + ".bwds";
    ::setenv("BW_STORE_CHUNK_ROWS", "16", 1);
    const util::Status saved = dataset_->try_save(chunked_path_);
    ::unsetenv("BW_STORE_CHUNK_ROWS");
    ASSERT_TRUE(saved.ok()) << saved.to_string();
    auto opened = Dataset::try_open_chunked(chunked_path_);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    chunked_ = std::make_unique<Dataset>(std::move(*opened));
    ASSERT_TRUE(chunked_->chunked());
    ASSERT_GT(chunked_->store()->chunk_count(), 2u);
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<Dataset> chunked_;
  std::string chunked_path_;
  net::Mac macs_acceptor_;
};

TEST_F(DatasetTest, SummaryCountsDrops) {
  const auto s = dataset_->summary();
  EXPECT_EQ(s.control_updates, 2u);
  EXPECT_EQ(s.blackhole_updates, 2u);
  EXPECT_EQ(s.blackholed_prefixes, 1u);
  EXPECT_EQ(s.flow_records, 150u);
  EXPECT_EQ(s.sampled_packets, 150u);
  EXPECT_EQ(s.dropped_packets, 100u);
}

TEST_F(DatasetTest, RsIndexRebuiltFromControl) {
  EXPECT_TRUE(dataset_->rs_index().announced_at(net::Ipv4(24, 0, 0, 1),
                                                90 * util::kMinute));
  EXPECT_FALSE(dataset_->rs_index().announced_at(net::Ipv4(24, 0, 0, 1),
                                                 3 * util::kHour));
}

TEST_F(DatasetTest, FlowsToFiltersPrefixAndRange) {
  ASSERT_NO_FATAL_FAILURE(open_chunked());
  const net::Prefix victim = net::Prefix::host(net::Ipv4(24, 0, 0, 1));
  const struct {
    net::Prefix prefix;
    util::TimeRange range;
    std::size_t rows;
  } cases[] = {
      {victim, dataset_->period(), 150u},
      {victim, {util::kHour, 2 * util::kHour}, 100u},
      {*net::Prefix::parse("24.0.0.0/24"), dataset_->period(), 150u},
      {*net::Prefix::parse("24.0.0.0/24"), {0, util::kHour}, 50u},
      {net::Prefix::host(net::Ipv4(24, 0, 0, 99)), dataset_->period(), 0u},
  };
  for (const auto& c : cases) {
    const Scan oracle = naive_scan(dataset_->flows(), c.prefix, c.range);
    EXPECT_EQ(oracle.rows, c.rows) << c.prefix.to_string();
    for (const Dataset* ds : {dataset_.get(), chunked_.get()}) {
      const Scan got = view_scan(*ds, c.prefix, c.range);
      const char* mode = ds->chunked() ? "chunked" : "in RAM";
      EXPECT_EQ(got.rows, oracle.rows) << c.prefix.to_string() << " " << mode;
      EXPECT_EQ(got.packets, oracle.packets) << mode;
      EXPECT_TRUE(got.all_inside) << mode;
    }
  }
}

TEST_F(DatasetTest, HostScanHonorsTimeSubrangeBoundaries) {
  // Host (/32) runs are time-sorted, so the scan binary-searches the time
  // window instead of filtering per record; boundary behaviour must stay
  // exactly half-open [begin, end) — in RAM and across chunk boundaries
  // of the out-of-core store.
  ASSERT_NO_FATAL_FAILURE(open_chunked());
  const net::Prefix host = net::Prefix::host(net::Ipv4(24, 0, 0, 1));
  const util::TimeRange windows[] = {
      {0, util::kHour},
      {util::kHour, 2 * util::kHour},
      {30 * util::kMinute, 90 * util::kMinute},
      {util::kHour, util::kHour},  // empty window
      {util::kHour, util::kHour + 1},
      {-util::kHour, 4 * util::kHour},  // wider than the data
  };
  // Plus windows that begin or end exactly on each record's timestamp, so
  // every chunk's first and last row sits on some window boundary.
  std::vector<util::TimeRange> ranges(std::begin(windows), std::end(windows));
  const auto& flows = dataset_->flows();
  for (const auto& rec : flows) {
    const util::TimeMs t = rec.time;
    ranges.push_back({t, t + util::kMinute});
    ranges.push_back({t - util::kMinute, t});
    ranges.push_back({t, t});
  }
  for (const auto& range : ranges) {
    const Scan oracle = naive_scan(flows, host, range);
    for (const Dataset* ds : {dataset_.get(), chunked_.get()}) {
      const Scan got = view_scan(*ds, host, range);
      const char* mode = ds->chunked() ? "chunked" : "in RAM";
      EXPECT_EQ(got.rows, oracle.rows)
          << "[" << range.begin << ", " << range.end << ") " << mode;
      EXPECT_EQ(got.packets, oracle.packets) << mode;
      EXPECT_TRUE(got.all_inside) << mode;
    }
  }
}

TEST_F(DatasetTest, ColumnsMirrorDestinationOrder) {
  const auto& cols = dataset_->columns();
  ASSERT_EQ(cols.size(), dataset_->flows().size());
  // Rows ascend by (dst_ip, time) and the dropped bitmap agrees with the
  // record flags in aggregate.
  std::uint64_t dropped_rows = 0;
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (k > 0) {
      EXPECT_GE(cols.dst_ip[k], cols.dst_ip[k - 1]);
      if (cols.dst_ip[k] == cols.dst_ip[k - 1]) {
        EXPECT_GE(cols.time[k], cols.time[k - 1]);
      }
    }
    if (cols.dropped(k)) ++dropped_rows;
  }
  std::uint64_t dropped_records = 0;
  for (const auto& rec : dataset_->flows()) {
    if (rec.dropped()) ++dropped_records;
  }
  EXPECT_EQ(dropped_rows, dropped_records);
}

TEST_F(DatasetTest, SummaryMatchesNaiveSumOverFlows) {
  Dataset::Summary naive;
  naive.control_updates = dataset_->control().size();
  naive.blackhole_updates = dataset_->blackhole_updates().size();
  naive.blackholed_prefixes = dataset_->rs_index().prefix_count();
  naive.flow_records = dataset_->flows().size();
  for (const auto& rec : dataset_->flows()) {
    naive.sampled_packets += rec.packets;
    naive.sampled_bytes += rec.bytes;
    if (rec.dropped()) {
      naive.dropped_packets += rec.packets;
      naive.dropped_bytes += rec.bytes;
    }
  }
  ASSERT_GT(naive.dropped_bytes, 0u);
  expect_same_summary(dataset_->summary(), naive);
}

TEST_F(DatasetTest, ChunkedSummaryMatchesInRam) {
  ASSERT_NO_FATAL_FAILURE(open_chunked());
  expect_same_summary(chunked_->summary(), dataset_->summary());
}

TEST_F(DatasetTest, Attribution) {
  EXPECT_EQ(dataset_->member_asn(macs_acceptor_), World::kAcceptorAsn);
  EXPECT_FALSE(dataset_->member_asn(net::Mac(0xDEADBEEFULL)));
  EXPECT_EQ(dataset_->origin_asn(net::Ipv4(64, 0, 0, 1)), 210000u);
  EXPECT_FALSE(dataset_->origin_asn(net::Ipv4(65, 0, 0, 1)));
}

TEST_F(DatasetTest, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/bw_dataset_rt.bwds";
  ASSERT_TRUE(dataset_->try_save(path).ok());
  auto result = Dataset::try_load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const Dataset& loaded = *result;

  EXPECT_EQ(loaded.control().size(), dataset_->control().size());
  ASSERT_EQ(loaded.flows().size(), dataset_->flows().size());
  for (std::size_t i = 0; i < loaded.flows().size(); ++i) {
    const auto& a = loaded.flows()[i];
    const auto& b = dataset_->flows()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.src_ip, b.src_ip);
    EXPECT_EQ(a.dst_ip, b.dst_ip);
    EXPECT_EQ(a.proto, b.proto);
    EXPECT_EQ(a.src_port, b.src_port);
    EXPECT_EQ(a.dst_port, b.dst_port);
    EXPECT_EQ(a.src_mac, b.src_mac);
    EXPECT_EQ(a.dst_mac, b.dst_mac);
    EXPECT_EQ(a.bytes, b.bytes);
  }
  EXPECT_EQ(loaded.period(), dataset_->period());
  EXPECT_EQ(loaded.mac_table().size(), dataset_->mac_table().size());
  EXPECT_EQ(loaded.origin_asn(net::Ipv4(64, 0, 0, 1)), 210000u);
  const auto s1 = loaded.summary();
  const auto s2 = dataset_->summary();
  EXPECT_EQ(s1.dropped_packets, s2.dropped_packets);
  // Control log round-trips communities.
  EXPECT_TRUE(loaded.control()[0].is_blackhole());
}

TEST_F(DatasetTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/bw_dataset_bad.bwds";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a dataset";
  }
  const auto garbage = Dataset::try_load(path);
  std::remove(path.c_str());
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(garbage.status().message().find("Dataset::try_load: " + path),
            std::string::npos)
      << garbage.status().message();

  const auto missing = Dataset::try_load("/nonexistent/nope.bwds");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find(
                "Dataset::try_load: cannot open /nonexistent/nope.bwds"),
            std::string::npos)
      << missing.status().message();
}

}  // namespace
}  // namespace bw::core
