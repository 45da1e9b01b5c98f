// perfbench: the in-process half of the end-to-end benchmark (run.py is the
// other half). One invocation does one job and prints one JSON line:
//
//   perfbench info
//       build facts for the environment record.
//   perfbench setup --workload W --dir D --scale S --seed N --reps K
//                   [--cadence-ms MS]
//       generate the corpus K times (1 generation thread) and save it as
//       .bwds v3 to D/corpus.bwds, then write the workload's reference
//       result (and, for live-unix, the encoded frame stream) into D.
//   perfbench pass --workload W --dir D [--cadence-ms MS] [--trace 0|1]
//       one timed pass from input file to user-visible result, checked
//       against the reference. BW_THREADS sizes the pool, so run.py starts
//       one process per pass; the process's peak RSS is the pass's.
//
// With --trace 1 the pass records spans around every call into a layer
// (spans live here, never inside the library) and reads the library's own
// obs counters afterwards; run.py turns both into the per-layer metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/whatif.hpp"
#include "obs/metrics.hpp"
#include "store/flow_store.hpp"
#include "stream/incremental/rolling.hpp"
#include "stream/replay.hpp"
#include "stream/transport/frame.hpp"
#include "stream/transport/session.hpp"
#include "stream/transport/socket.hpp"
#include "util/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bw;
namespace tp = stream::transport;
namespace inc = stream::incremental;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// --- spans ------------------------------------------------------------------

/// In-memory span log: name, start, end and the index of the enclosing
/// span (-1 at top level). Recording is off unless the pass is traced, so
/// an untraced pass pays one branch per layer call.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  int open(std::string name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  /// A span timed by the caller, nested under the innermost open span.
  void add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), start_ns, end_ns,
                      stack_.empty() ? -1 : stack_.back()});
  }

  /// Sum of the durations of spans named `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const {
    std::uint64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.open(std::move(name))) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// --- JSON output --------------------------------------------------------------

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// One flat JSON object built field by field, printed as a single line.
class JsonLine {
 public:
  void num(std::string_view key, double v) { raw(key, json_num(v)); }
  void str(std::string_view key, std::string_view v) { raw(key, json_str(v)); }
  void raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += json_str(key);
    body_ += ':';
    body_ += json;
  }
  [[nodiscard]] std::string done() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

std::string json_spans(const SpanLog& log) {
  std::string out = "[";
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const SpanLog::Span& s = log.spans()[i];
    out += i ? ",[" : "[";
    out += json_str(s.name);
    for (const std::int64_t v :
         {static_cast<std::int64_t>(s.start_ns),
          static_cast<std::int64_t>(s.end_ns),
          static_cast<std::int64_t>(s.parent)}) {
      out += ',';
      out += std::to_string(v);
    }
    out += ']';
  }
  out += ']';
  return out;
}

std::string json_nums(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_num(v[i]);
  }
  out += ']';
  return out;
}

std::string json_metrics(const std::map<std::string, double>& m) {
  JsonLine j;
  for (const auto& [k, v] : m) j.num(k, v);
  return j.done();
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_str(v[i]);
  }
  out += ']';
  return out;
}

// --- small helpers ------------------------------------------------------------

/// Peak resident set of this process so far (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

bool write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The substring from `"figures":` on — the part of a rolling line the
/// batch convergence contract covers.
std::string_view figures_of(std::string_view line) {
  const std::size_t at = line.find("\"figures\":");
  return at == std::string_view::npos ? std::string_view{} : line.substr(at);
}

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  double scale{0.0};
  std::uint64_t seed{0};
  int reps{1};
  util::DurationMs cadence_ms{0};
  bool trace{false};
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--dir") a.dir = v;
    else if (k == "--scale") a.scale = std::atof(v);
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--reps") a.reps = std::atoi(v);
    else if (k == "--cadence-ms") a.cadence_ms = std::atoll(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else return std::nullopt;
  }
  if (argc % 2 != 0) return std::nullopt;
  return a;
}

std::string corpus_path(const Args& a) { return a.dir + "/corpus.bwds"; }
std::string reference_path(const Args& a) { return a.dir + "/reference.txt"; }
std::string wire_path(const Args& a) { return a.dir + "/wire.bwsf"; }

inc::RollingConfig rolling_config(const core::Dataset& ds,
                                  util::DurationMs cadence,
                                  std::string out_path) {
  inc::RollingConfig rc;
  rc.kernels.period = ds.period();
  rc.kernels.member_asn = [&ds](net::Mac mac) { return ds.member_asn(mac); };
  rc.report_every = cadence;
  rc.out_path = std::move(out_path);
  return rc;
}

/// Operator report as bw-analyze --markdown renders it.
std::string analysis_markdown(const core::Dataset& ds, SpanLog& spans,
                              core::AnalysisReport* report_out = nullptr) {
  core::AnalysisReport report;
  {
    const ScopedSpan s(spans, "core.pipeline");
    report = core::run_pipeline(ds, core::AnalysisConfig{});
  }
  core::WhatIfReport whatif;
  {
    const ScopedSpan s(spans, "core.whatif");
    whatif = core::compute_whatif(ds, report.events, report.pre);
  }
  std::string md;
  {
    const ScopedSpan s(spans, "core.render");
    md = core::render_markdown(ds, report, &whatif);
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return md;
}

/// The batch merge order bw-feed emits and replay_streaming delivers under
/// no shedding: (time, BGP update before flow, feed order).
template <typename Fn>
void for_each_merged_event(const core::Dataset& ds, Fn&& fn) {
  const auto& updates = ds.blackhole_updates();
  const auto& flows = ds.flows();
  std::size_t ui = 0;
  std::size_t fi = 0;
  while (ui < updates.size() || fi < flows.size()) {
    const bool take_update =
        fi >= flows.size() ||
        (ui < updates.size() && updates[ui].time <= flows[fi].time);
    if (take_update) {
      fn(stream::StreamEvent::from(updates[ui], ui));
      ++ui;
    } else {
      fn(stream::StreamEvent::from(flows[fi], fi));
      ++fi;
    }
  }
}

/// bw-feed's frame stream: events in batch merge order, a heartbeat per
/// second of event time, one close frame at the period end.
std::string encode_wire(const core::Dataset& ds, std::uint64_t& events) {
  constexpr util::DurationMs kHeartbeat = 1000;
  std::string wire;
  util::TimeMs last_heartbeat = ds.period().begin;
  events = 0;
  for_each_merged_event(ds, [&](const stream::StreamEvent& ev) {
    if (ev.time - last_heartbeat >= kHeartbeat) {
      last_heartbeat = ev.time;
      wire += tp::frame_heartbeat(ev.time);
    }
    wire += ev.kind == stream::EventKind::kBgpUpdate ? tp::frame_update(ev.update)
                                                     : tp::frame_flow(ev.flow);
    ++events;
  });
  wire += tp::frame_close(ds.period().end);
  return wire;
}

// --- setup --------------------------------------------------------------------

int run_setup(const Args& a) {
  gen::ScenarioConfig cfg;
  cfg.scale = a.scale;
  cfg.seed = a.seed;
  SpanLog spans(true);
  util::ThreadPool serial(0);
  std::vector<double> gen_s;
  std::vector<double> save_s;
  std::optional<core::ScenarioRun> run;
  for (int rep = 0; rep < std::max(a.reps, 1); ++rep) {
    run.reset();
    std::uint64_t t0 = now_ns();
    {
      const ScopedSpan s(spans, "gen.generate");
      run.emplace(core::run_scenario(cfg, std::string{}, &serial));
    }
    gen_s.push_back(seconds_since(t0));
    t0 = now_ns();
    {
      const ScopedSpan s(spans, "store.save");
      const util::Status st = run->dataset.try_save(corpus_path(a));
      if (!st.ok()) {
        std::cerr << "perfbench: save failed: " << st.to_string() << "\n";
        return 3;
      }
    }
    save_s.push_back(seconds_since(t0));
  }
  const core::Dataset& ds = run->dataset;

  JsonLine out;
  std::string reference;
  if (a.workload == "analyze-ram") {
    // The report of the freshly generated dataset, never saved or loaded:
    // the pass must reproduce it through the file.
    reference = analysis_markdown(ds, spans);
  } else if (a.workload == "analyze-ooc") {
    const int load_span = spans.open("core.load");
    auto loaded = core::Dataset::try_load(corpus_path(a));
    spans.close(load_span);
    if (!loaded.ok()) {
      std::cerr << "perfbench: " << loaded.status().to_string() << "\n";
      return 3;
    }
    reference = analysis_markdown(loaded.value(), spans);
  } else if (a.workload == "replay-rolling" ||
             a.workload == "replay-final") {
    const auto events =
        core::merge_events(ds.blackhole_updates(), ds.period().end);
    const auto drop = core::compute_drop_rates(ds, events);
    const auto ports = core::compute_port_stats(ds, events);
    const auto collateral = core::compute_collateral(ds, events, ports);
    reference = inc::RollingReporter::figures_json(drop, ports, collateral);
  } else if (a.workload == "live-unix") {
    std::uint64_t events = 0;
    std::string wire;
    const std::uint64_t t0 = now_ns();
    {
      const ScopedSpan s(spans, "transport.encode");
      wire = encode_wire(ds, events);
    }
    out.num("encode_s", seconds_since(t0));
    out.num("wire_events", static_cast<double>(events));
    if (!write_file(wire_path(a), wire) ||
        !write_file(a.dir + "/wire_events.txt", std::to_string(events))) {
      std::cerr << "perfbench: cannot write " << wire_path(a) << "\n";
      return 3;
    }
    // Lockstep replay with a final-only rolling reporter: the line a
    // fault-free live session must reproduce byte for byte.
    inc::RollingReporter rolling(rolling_config(ds, 0, ""));
    core::RtbhMonitor monitor({}, [](const core::Alert&) {});
    stream::ReplayOptions opt;
    opt.lockstep = true;
    opt.rolling = &rolling;
    (void)stream::replay_streaming(ds, monitor, opt);
    (void)rolling.finish(ds.period().end);
    reference = rolling.lines().back();
  } else {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  if (!write_file(reference_path(a), reference)) {
    std::cerr << "perfbench: cannot write " << reference_path(a) << "\n";
    return 3;
  }

  out.raw("gen_s", json_nums(gen_s));
  out.raw("save_s", json_nums(save_s));
  out.num("file_mb", static_cast<double>(
                         std::filesystem::file_size(corpus_path(a))) /
                         (1024.0 * 1024.0));
  out.num("flows", static_cast<double>(ds.flows().size()));
  out.raw("spans", json_spans(spans));
  std::cout << out.done() << "\n";
  return 0;
}

// --- passes -------------------------------------------------------------------

/// What one pass reports back to run.py.
struct PassResult {
  double wall_s{0.0};
  std::uint64_t ops{0};
  std::uint64_t ops_failed{0};
  std::vector<std::string> gates_failed;
  std::map<std::string, double> metrics;  ///< traced pass only

  void gate(bool ok, std::string name) {
    ++ops;
    if (!ok) {
      ++ops_failed;
      gates_failed.push_back(std::move(name));
    }
  }
};

std::map<std::string, double> obs_counters(std::string_view prefix,
                                           std::string_view suffix) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : obs::Registry::global().snapshot().counters) {
    const std::string_view n = name;
    if (n.size() > prefix.size() + suffix.size() && n.starts_with(prefix) &&
        n.ends_with(suffix)) {
      out[name] = static_cast<double>(value);
    }
  }
  return out;
}

/// Open the corpus store afresh (cold per-thread chunk cache) and decode
/// every dst chunk once: the store layer's cost without amplification.
void store_decode_pass(const Args& a, SpanLog& spans, PassResult& r) {
  std::uint64_t t0 = now_ns();
  std::shared_ptr<const store::FlowStore> st;
  {
    const ScopedSpan s(spans, "store.open");
    auto opened = store::FlowStore::open(corpus_path(a));
    if (!opened.ok()) {
      r.gate(false, "store.open");
      return;
    }
    st = opened.value();
  }
  r.metrics["store.open_s"] = seconds_since(t0);
  t0 = now_ns();
  {
    const ScopedSpan s(spans, "store.decode_pass");
    for (std::size_t k = 0; k < st->chunk_count(); ++k) (void)st->chunk(k);
  }
  r.metrics["store.decode_pass_s"] = seconds_since(t0);
  r.metrics["store.chunk_count"] = static_cast<double>(st->chunk_count());
}

PassResult pass_analyze(const Args& a, bool out_of_core, SpanLog& spans) {
  PassResult r;
  const auto reference = read_file(reference_path(a));
  const std::uint64_t t0 = now_ns();
  std::optional<core::Dataset> ds;
  {
    const ScopedSpan s(spans, "core.load");
    auto loaded = out_of_core ? core::Dataset::try_open_chunked(corpus_path(a))
                              : core::Dataset::try_load(corpus_path(a));
    if (!loaded.ok()) {
      std::cerr << "perfbench: " << loaded.status().to_string() << "\n";
      r.gate(false, a.workload + ".load");
      return r;
    }
    ds.emplace(std::move(loaded).value());
  }
  {
    const ScopedSpan s(spans, "core.columns");
    (void)ds->columns();
  }
  core::AnalysisReport report;
  const std::string md = analysis_markdown(*ds, spans, &report);
  r.wall_s = seconds_since(t0);

  for (const core::StageStatus& st : report.data_quality.stages) {
    r.gate(!st.degraded, "stage." + st.name);
  }
  r.gate(reference.has_value() && md == *reference,
         a.workload + (out_of_core ? ".report_equals_in_ram"
                                   : ".report_digest"));
  if (!spans.enabled()) return r;

  r.metrics["core.load_s"] = spans.total_s("core.load");
  r.metrics["core.columns_s"] = spans.total_s("core.columns");
  r.metrics["core.pipeline_s"] = spans.total_s("core.pipeline");
  r.metrics["core.whatif_s"] = spans.total_s("core.whatif");
  r.metrics["core.render_s"] = spans.total_s("core.render");
  for (const auto& [k, v] : obs_counters("pipeline.stage.", ".wall_us")) {
    r.metrics[k] = v;
  }
  for (const auto& [k, v] : obs_counters("kernel.", ".scan_ns")) {
    r.metrics[k] = v;
  }
  for (const auto& [k, v] : obs_counters("kernel.", ".scan_rows")) {
    r.metrics[k] = v;
  }
  const std::uint64_t decoded_by_chain =
      out_of_core ? ds->store()->chunks_decoded() : 0;
  ds.reset();
  store_decode_pass(a, spans, r);
  // In RAM, try_load's own store is internal: it decodes every chunk once,
  // which is what the benchmark's decode pass does.
  r.metrics["store.chunks_decoded"] =
      out_of_core ? static_cast<double>(decoded_by_chain)
                  : r.metrics["store.chunk_count"];
  return r;
}

/// Per-call timing of RollingReporter::on_event / finish. A call that
/// appended a line is a snapshot call; the percentiles are over those.
class TimedRolling {
 public:
  TimedRolling(inc::RollingReporter& rolling, SpanLog& spans)
      : rolling_(rolling), spans_(spans) {}

  void on_event(const stream::StreamEvent& ev) {
    const std::size_t before = rolling_.snapshots();
    const std::uint64_t t0 = now_ns();
    rolling_.on_event(ev);
    const std::uint64_t t1 = now_ns();
    if (rolling_.snapshots() != before) {
      snapshot(t0, t1);
    } else {
      update_ns_ += t1 - t0;
    }
  }

  util::Status finish(util::TimeMs end) {
    const std::uint64_t t0 = now_ns();
    util::Status st = rolling_.finish(end);
    snapshot(t0, now_ns());
    return st;
  }

  void report(PassResult& r) const {
    std::vector<double> ms;
    for (const std::uint64_t ns : snapshot_ns_) {
      ms.push_back(static_cast<double>(ns) * 1e-6);
    }
    double total_ms = 0.0;
    for (const double v : ms) total_ms += v;
    const std::size_t tenth = std::max<std::size_t>(ms.size() / 10, 1);
    double head = 0.0;
    double tail = 0.0;
    for (std::size_t i = 0; i < tenth && i < ms.size(); ++i) {
      head += ms[i];
      tail += ms[ms.size() - 1 - i];
    }
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    const auto pct = [&](double q) {
      if (sorted.empty()) return 0.0;
      const auto i = static_cast<std::size_t>(
          q * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(i, sorted.size() - 1)];
    };
    std::uint64_t bytes = 0;
    for (const std::string& line : rolling_.lines()) bytes += line.size() + 1;
    r.metrics["rolling.update_s"] = static_cast<double>(update_ns_) * 1e-9;
    r.metrics["rolling.snapshots"] =
        static_cast<double>(rolling_.snapshots());
    r.metrics["rolling.snapshot_s"] = total_ms * 1e-3;
    r.metrics["rolling.snapshot_p50_ms"] = pct(0.50);
    r.metrics["rolling.snapshot_p99_ms"] = pct(0.99);
    r.metrics["rolling.snapshot_growth"] = head > 0.0 ? tail / head : 0.0;
    r.metrics["rolling.bytes"] = static_cast<double>(bytes);
  }

 private:
  void snapshot(std::uint64_t t0, std::uint64_t t1) {
    snapshot_ns_.push_back(t1 - t0);
    spans_.add("rolling.snapshot", t0, t1);
  }

  inc::RollingReporter& rolling_;
  SpanLog& spans_;
  std::uint64_t update_ns_{0};
  std::vector<std::uint64_t> snapshot_ns_;
};

void stream_metrics(PassResult& r, std::uint64_t delivered,
                    std::uint64_t shed, const stream::MuxStats& mux) {
  r.metrics["stream.delivered"] = static_cast<double>(delivered);
  r.metrics["stream.shed_total"] = static_cast<double>(shed);
  r.metrics["stream.late_dropped"] = static_cast<double>(mux.late_dropped);
  r.metrics["stream.forced_releases"] =
      static_cast<double>(mux.forced_releases);
}

PassResult pass_replay(const Args& a, SpanLog& spans) {
  PassResult r;
  const auto reference = read_file(reference_path(a));
  const std::uint64_t t0 = now_ns();
  std::optional<core::Dataset> ds;
  {
    const ScopedSpan s(spans, "core.load");
    auto loaded = core::Dataset::try_load(corpus_path(a));
    if (!loaded.ok()) {
      std::cerr << "perfbench: " << loaded.status().to_string() << "\n";
      r.gate(false, a.workload + ".load");
      return r;
    }
    ds.emplace(std::move(loaded).value());
  }
  inc::RollingReporter rolling(
      rolling_config(*ds, a.cadence_ms, a.dir + "/rolling.jsonl"));
  core::RtbhMonitor monitor({}, [](const core::Alert&) {});
  stream::ReplayOptions opt;
  opt.lockstep = true;
  // replay_streaming has no per-event hook: a traced pass replays into the
  // monitor alone, then drives the reporter over the delivered sequence
  // (the batch merge order, as no event is shed) timing every call.
  if (!spans.enabled()) opt.rolling = &rolling;
  stream::ReplayStats stats;
  {
    const ScopedSpan s(spans, "stream.replay");
    stats = stream::replay_streaming(*ds, monitor, opt);
  }
  const double replay_s = seconds_since(t0);
  TimedRolling timed(rolling, spans);
  util::Status st;
  if (spans.enabled()) {
    {
      const ScopedSpan s(spans, "rolling.drive");
      for_each_merged_event(
          *ds, [&](const stream::StreamEvent& ev) { timed.on_event(ev); });
    }
    st = timed.finish(ds->period().end);
  } else {
    st = rolling.finish(ds->period().end);
  }
  r.wall_s = seconds_since(t0);

  r.ops += stats.produced();
  r.ops_failed += stats.produced() - stats.delivered();
  r.gate(stats.shed.shed_total == 0 && stats.mux.late_dropped == 0,
         a.workload + ".zero_shed_or_late");
  r.gate(st.ok(), a.workload + ".rolling_write");
  r.gate(reference.has_value() && !rolling.lines().empty() &&
             figures_of(rolling.lines().back()) ==
                 "\"figures\":" + *reference + "}",
         a.workload + ".final_figures_equal_batch");
  if (!spans.enabled()) return r;
  r.metrics["core.load_s"] = spans.total_s("core.load");
  r.metrics["stream.replay_s"] = replay_s - spans.total_s("core.load");
  stream_metrics(r, stats.delivered(), stats.shed.shed_total, stats.mux);
  timed.report(r);

  // The wire codec on the same events: bw-feed's encoding, then one
  // FrameDecoder over the whole buffer.
  std::uint64_t events = 0;
  std::string wire;
  std::uint64_t c0 = now_ns();
  {
    const ScopedSpan s(spans, "transport.encode");
    wire = encode_wire(*ds, events);
  }
  r.metrics["transport.encode_s"] = seconds_since(c0);
  c0 = now_ns();
  tp::FrameDecoder dec;
  std::uint64_t frames = 0;
  {
    const ScopedSpan s(spans, "transport.decode");
    dec.feed(wire);
    while (dec.next()) ++frames;
  }
  r.metrics["transport.decode_s"] = seconds_since(c0);
  r.metrics["transport.frames"] = static_cast<double>(frames);
  r.metrics["transport.bytes"] = static_cast<double>(wire.size());
  r.metrics["transport.crc_failures"] =
      static_cast<double>(dec.stats().crc_failures);
  return r;
}

PassResult pass_live(const Args& a, SpanLog& spans) {
  PassResult r;
  const auto reference = read_file(reference_path(a));
  const auto events_txt = read_file(a.dir + "/wire_events.txt");
  const std::uint64_t wire_events =
      events_txt ? std::strtoull(events_txt->c_str(), nullptr, 10) : 0;
  // Monitor start-up: period and MAC attribution for the rolling kernels,
  // opened without materializing flows (bw-monitor --rolling-context).
  auto context = core::Dataset::try_open_chunked(corpus_path(a));
  if (!context.ok() || !reference || wire_events == 0) {
    r.gate(false, "live-unix.setup_files");
    return r;
  }
  const core::Dataset& ds = context.value();

  const std::string sock = a.dir + "/live.sock";
  std::remove(sock.c_str());
  auto ep = tp::Endpoint::parse("unix:" + sock);
  auto listener = ep.ok() ? tp::ListenTransport::bind(ep.value())
                          : util::Result<std::unique_ptr<tp::ListenTransport>>(
                                ep.status());
  if (!listener.ok()) {
    std::cerr << "perfbench: " << listener.status().to_string() << "\n";
    r.gate(false, "live-unix.bind");
    return r;
  }

  inc::RollingReporter rolling(
      rolling_config(ds, 0, a.dir + "/rolling.jsonl"));
  TimedRolling timed(rolling, spans);
  core::RtbhMonitor monitor({}, [](const core::Alert&) {});
  tp::LiveConfig live;
  live.connect_specs = {"unix:" + sock};
  live.session.connect_timeout = 10 * util::kSecond;
  live.session.block_deadline = 10 * util::kMinute;  // never shed
  live.watchdog = 40 * util::kSecond;
  if (spans.enabled()) {
    live.tap = [&timed](const stream::StreamEvent& ev) { timed.on_event(ev); };
  } else {
    live.tap = [&rolling](const stream::StreamEvent& ev) {
      rolling.on_event(ev);
    };
  }

  // The writer streams the pre-encoded frames as fast as the socket
  // accepts them: a closed loop through backpressure, one connection.
  std::atomic<bool> writer_ok{false};
  std::uint64_t writer_blocked_ns = 0;
  const std::uint64_t t0 = now_ns();
  std::thread writer([&] {
    auto conn = listener.value()->open(10 * util::kSecond);
    if (!conn.ok()) return;
    std::ifstream in(wire_path(a), std::ios::binary);
    std::string buf(256 * 1024, '\0');
    bool ok = static_cast<bool>(in);
    while (ok && in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      const auto n = static_cast<std::size_t>(in.gcount());
      if (n == 0) break;
      const std::uint64_t w0 = now_ns();
      ok = conn.value().write_all(std::string_view(buf.data(), n)).ok();
      writer_blocked_ns += now_ns() - w0;
    }
    writer_ok.store(ok, std::memory_order_release);
  });
  const int run_span = spans.open("live.run");
  util::Result<tp::LiveStats> ran = tp::run_live(monitor, live);
  spans.close(run_span);
  writer.join();
  const util::TimeMs finish_at =
      ran.ok() ? ran.value().finish_time : ds.period().end;
  const util::Status st =
      spans.enabled() ? timed.finish(finish_at) : rolling.finish(finish_at);
  r.wall_s = seconds_since(t0);

  r.gate(ran.ok(), "live-unix.run_live");
  r.gate(writer_ok.load(std::memory_order_acquire), "live-unix.writer");
  r.gate(st.ok(), "live-unix.rolling_write");
  if (!ran.ok()) return r;
  const tp::LiveStats& ls = ran.value();
  std::uint64_t shed = 0;
  std::uint64_t crc = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  for (const tp::SessionStats& s : ls.sessions) {
    shed += s.shed.shed_total;
    crc += s.decode.crc_failures;
    frames += s.decode.frames;
    bytes += s.decode.bytes_fed;
  }
  // A shed, late-dropped or CRC-lost event is an encoded event that was
  // never delivered.
  r.ops += wire_events;
  r.ops_failed +=
      wire_events > ls.delivered() ? wire_events - ls.delivered() : 0;
  r.gate(shed == 0 && ls.mux.late_dropped == 0 && crc == 0,
         "live-unix.zero_shed_late_or_crc");
  r.gate(!rolling.lines().empty() && rolling.lines().back() == *reference,
         "live-unix.final_snapshot_equals_lockstep");
  if (!spans.enabled()) return r;

  stream_metrics(r, ls.delivered(), shed, ls.mux);
  timed.report(r);
  r.metrics["transport.frames"] = static_cast<double>(frames);
  r.metrics["transport.bytes"] = static_cast<double>(bytes);
  r.metrics["transport.crc_failures"] = static_cast<double>(crc);
  r.metrics["live.writer_blocked_s"] =
      static_cast<double>(writer_blocked_ns) * 1e-9;
  r.metrics["stream.replay_s"] = spans.total_s("live.run");

  // Decode cost alone: one FrameDecoder over the whole buffer.
  const auto wire = read_file(wire_path(a));
  if (wire) {
    const std::uint64_t d0 = now_ns();
    std::uint64_t decoded = 0;
    {
      const ScopedSpan s(spans, "transport.decode");
      tp::FrameDecoder dec;
      dec.feed(*wire);
      while (dec.next()) ++decoded;
    }
    r.metrics["transport.decode_s"] = seconds_since(d0);
    r.gate(decoded == frames, "live-unix.decode_pass_frames");
  }
  return r;
}

int run_pass(const Args& a) {
  SpanLog spans(a.trace);
  PassResult r;
  if (a.workload == "analyze-ram") {
    r = pass_analyze(a, false, spans);
  } else if (a.workload == "analyze-ooc") {
    r = pass_analyze(a, true, spans);
  } else if (a.workload == "replay-rolling" ||
             a.workload == "replay-final") {
    r = pass_replay(a, spans);
  } else if (a.workload == "live-unix") {
    r = pass_live(a, spans);
  } else {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  JsonLine out;
  out.num("wall_s", r.wall_s);
  out.num("peak_rss_mb", peak_rss_mb());
  out.num("threads",
          static_cast<double>(util::ThreadPool::global().concurrency()));
  out.num("ops", static_cast<double>(r.ops));
  out.num("ops_failed", static_cast<double>(r.ops_failed));
  out.raw("gates_failed", json_strings(r.gates_failed));
  if (a.trace) {
    out.raw("metrics", json_metrics(r.metrics));
    out.raw("spans", json_spans(spans));
  }
  std::cout << out.done() << "\n";
  return 0;
}

int run_info() {
  JsonLine out;
  out.num("hardware_concurrency",
          static_cast<double>(std::thread::hardware_concurrency()));
  out.str("compiler", "g++ " __VERSION__);
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.raw("optimized", kOptimized ? "true" : "false");
  std::cout << out.done() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!kOptimized) {
    std::cerr << "perfbench: refusing to run a build without optimisation "
                 "(build type " PERFBENCH_BUILD_TYPE ")\n";
    return 2;
  }
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench info | setup ... | pass ...\n";
    return 2;
  }
  try {
    if (args->mode == "info") return run_info();
    if (args->mode == "setup") return run_setup(*args);
    if (args->mode == "pass") return run_pass(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 4;
  }
  std::cerr << "perfbench: unknown mode '" << args->mode << "'\n";
  return 2;
}
