// serve-repeat and serve-fresh: load from this one process through the
// loopback transport into a MatchService, as `lsd_serve --listen` runs it.

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/pred_cache.h"
#include "common/strings.h"
#include "common/trace.h"
#include "inputs.h"
#include "model.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "schema/extraction.h"
#include "service/match_service.h"
#include "stats.h"
#include "text/tokenizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace net = lsd::net;
using lsd::MatchService;
using lsd::Status;
using lsd::StatusOr;
using lsd::TraceSpan;

constexpr size_t kWorkers = 2;
constexpr size_t kRepeatConnections = 3;
constexpr size_t kFreshConnections = 4;
constexpr int kSetupRepeats = 3;
constexpr double kWarmupS = 3.0;
/// serve-fresh reloads at 2 s, 6 s, 10 s, ... of the window.
constexpr double kReloadOffsetS = 2.0;
constexpr double kReloadPeriodS = 4.0;
/// serve-repeat has no reloads in its window; it times this many with no
/// traffic, half before the window and half after it.
constexpr int kIdleReloads = 4;
/// Latency percentiles are taken per slice of consecutive requests and
/// the slices' median reported, so that a burst of host interference in
/// part of the window does not decide them: p99 per 1000 requests (ten
/// beyond it), p50 per 100, which gives serve-fresh's 34 s window ten
/// slices, so a burst must cover half the window to move its p50.
constexpr size_t kMinTailSamples = 1000;
constexpr size_t kMinMedianSamples = 100;
constexpr size_t kGateSample = 16;
constexpr size_t kReplaySample = 48;
constexpr double kMinAccuracyPct = 60.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool Answered(const net::WireResponse& response) {
  return response.outcome == net::WireOutcome::kOk ||
         response.outcome == net::WireOutcome::kDegraded;
}

/// One request as the load generator saw it; times in seconds from the
/// start of its traffic phase.
struct Record {
  size_t seq = 0;
  size_t input = 0;  // index into the phase's request list
  std::string id;
  double due_s = 0.0, sent_s = 0.0, done_s = 0.0;
  bool transport_error = false;
  /// The response. Its mapping and fingerprint are kept only for the
  /// first answer per input (`has_text`): those are what gets scored and
  /// checked, and memory must not grow with the request count.
  net::WireResponse response;
  bool has_text = false;

  bool answered() const { return !transport_error && Answered(response); }
  OpenLoopTiming timing() const {
    return {due_s, sent_s, done_s, answered()};
  }
};

struct Traffic {
  uint16_t port = 0;
  size_t connections = 0;
  const std::vector<SourceText>* requests = nullptr;
  /// Open loop: request k goes out at due_s[k] with input first_input + k.
  /// Empty: closed loop for `seconds`, inputs cycling the request list.
  std::vector<double> due_s;
  size_t first_input = 0;
  double seconds = 0.0;
  std::string id_prefix;
};

struct Phase {
  std::vector<Record> records;
  double elapsed_s = 0.0;  // until the last response arrived
};

/// Runs one traffic phase. `beside`, when set, runs on the calling thread
/// while the connections send (the reload loop), given the phase start.
Phase RunTraffic(const Traffic& traffic,
                 const std::function<void(Clock::time_point)>& beside) {
  const bool open_loop = !traffic.due_s.empty();
  std::atomic<size_t> next{0};
  std::vector<std::atomic<bool>> answered_once(traffic.requests->size());
  std::vector<std::vector<Record>> per_connection(traffic.connections);
  Phase phase;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < traffic.connections; ++c) {
    threads.emplace_back([&, c] {
      net::NetClientOptions client_options;
      client_options.port = traffic.port;
      client_options.backoff_seed = c + 1;
      net::NetClient client(client_options);
      for (;;) {
        size_t k = next.fetch_add(1);
        Record record;
        record.seq = k;
        if (open_loop) {
          if (k >= traffic.due_s.size()) break;
          record.due_s = traffic.due_s[k];
          record.input = traffic.first_input + k;
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(record.due_s)));
        } else {
          if (SecondsSince(start) >= traffic.seconds) break;
          record.input = k % traffic.requests->size();
        }
        const SourceText& source = (*traffic.requests)[record.input];
        net::WireRequest request;
        request.id = traffic.id_prefix + std::to_string(k);
        request.dtd_text = source.dtd;
        request.xml_text = source.xml;
        record.id = request.id;
        record.sent_s = SecondsSince(start);
        if (!open_loop) record.due_s = record.sent_s;
        {
          TraceSpan span("net.call", request.id);
          StatusOr<net::WireResponse> response = client.Call(request);
          record.done_s = SecondsSince(start);
          if (response.ok()) {
            record.response = std::move(*response);
          } else {
            record.transport_error = true;
          }
        }
        if (record.answered() && !answered_once[record.input].exchange(true)) {
          record.has_text = true;
        } else {
          // Assigning an empty string would keep the buffers.
          std::string().swap(record.response.mapping);
          std::string().swap(record.response.fingerprint);
        }
        per_connection[c].push_back(std::move(record));
      }
    });
  }
  if (beside) beside(start);
  for (std::thread& thread : threads) thread.join();
  for (auto& records : per_connection) {
    for (Record& record : records) {
      phase.elapsed_s = std::max(phase.elapsed_s, record.done_s);
      phase.records.push_back(std::move(record));
    }
  }
  std::sort(phase.records.begin(), phase.records.end(),
            [](const Record& a, const Record& b) { return a.seq < b.seq; });
  return phase;
}

/// The server stack. Members are destroyed in reverse order, so the
/// transport stops before the service it points into.
struct Stack {
  std::unique_ptr<MatchService> service;
  std::unique_ptr<net::NetServer> server;
};

void Teardown(Stack* stack) {
  stack->server.reset();
  stack->service.reset();
}

StatusOr<net::WireResponse> CallOnce(uint16_t port, const SourceText& source,
                                     const std::string& id) {
  net::NetClientOptions client_options;
  client_options.port = port;
  net::NetClient client(client_options);
  net::WireRequest request;
  request.id = id;
  request.dtd_text = source.dtd;
  request.xml_text = source.xml;
  LSD_ASSIGN_OR_RETURN(net::WireResponse response, client.Call(request));
  if (!Answered(response)) {
    return Status::Internal(id + " was not answered: " +
                            response.ToStatus().ToString());
  }
  return response;
}

/// Set-up as a user pays it: build the replicas (parse + train), start
/// the server, and get the first request answered.
Status StartStack(const MatchService::ReplicaFactory& factory,
                  const lsd::MatchServiceOptions& options,
                  const SourceText& first, Stack* stack, double* setup_s) {
  Clock::time_point start = Clock::now();
  LSD_ASSIGN_OR_RETURN(stack->service, MatchService::Create(factory, options));
  LSD_ASSIGN_OR_RETURN(
      stack->server,
      net::NetServer::Create(stack->service.get(), net::NetServerOptions()));
  LSD_RETURN_IF_ERROR(
      CallOnce(stack->server->port(), first, "setup").status());
  *setup_s = SecondsSince(start);
  return Status::OK();
}

/// Reload with an identically trained factory; the golden gate must
/// accept it byte for byte.
StatusOr<double> TimedReload(MatchService* service,
                             const MatchService::ReplicaFactory& factory,
                             RunResult* result) {
  MatchService::ReloadOptions reload;
  reload.factory = factory;
  reload.require_identical = true;
  Clock::time_point start = Clock::now();
  TraceSpan span("bench.reload");
  LSD_ASSIGN_OR_RETURN(MatchService::ReloadReport report,
                       service->Reload(reload));
  double ms = MsSince(start);
  if (!report.swapped) {
    result->Fail("reload of an identical model was rejected: " +
                 report.rejection);
  }
  return ms;
}

std::vector<double> Latencies(const Phase& phase) {
  std::vector<double> latencies;
  for (const Record& record : phase.records) {
    latencies.push_back(LatencyFromDueMs(record.timing()));
  }
  return latencies;
}

size_t CountAnswered(const Phase& phase) {
  size_t answered = 0;
  for (const Record& record : phase.records) answered += record.answered();
  return answered;
}

/// Up to `count` answered records with distinct inputs, seeded.
std::vector<const Record*> Sample(const Phase& phase, size_t count,
                                  uint64_t seed) {
  std::vector<const Record*> candidates;
  for (const Record& record : phase.records) {
    if (record.has_text) candidates.push_back(&record);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(candidates.begin(), candidates.end(), rng);
  if (candidates.size() > count) candidates.resize(count);
  return candidates;
}

/// Correctness gate: sampled responses must equal, byte for byte, what an
/// identically trained in-process system computes for the same text.
void CheckAgainstReference(lsd::LsdSystem& reference,
                           const std::vector<SourceText>& requests,
                           const std::vector<const Record*>& sample,
                           RunResult* result) {
  for (const Record* record : sample) {
    const SourceText& text = requests[record->input];
    StatusOr<lsd::DataSource> source = ParseRequest(text);
    if (!source.ok()) {
      result->Fail(text.id + ": " + source.status().ToString());
      continue;
    }
    StatusOr<lsd::MatchResult> match = reference.MatchSource(*source);
    if (!match.ok()) {
      result->Fail(text.id + ": reference match failed: " +
                   match.status().ToString());
      continue;
    }
    if (match->mapping.ToString() != record->response.mapping ||
        Fingerprint(*match) != record->response.fingerprint) {
      result->Fail(record->id + " (" + text.id +
                   "): served mapping/fingerprint differs from the "
                   "in-process reference");
    }
    Status covered = CheckCoversEveryTag(*source, match->mapping);
    if (!covered.ok()) result->Fail(covered.ToString());
  }
}

/// Mean accuracy over the distinct answered inputs: every serve-fresh
/// request, and each serve-repeat pool source once, so the figure does not
/// depend on how many cycles ran.
StatusOr<double> MeanAccuracy(const Phase& phase,
                              const std::vector<SourceText>& requests) {
  double sum = 0.0;
  size_t count = 0;
  for (const Record& record : phase.records) {
    if (!record.has_text) continue;
    LSD_ASSIGN_OR_RETURN(double accuracy,
                         AccuracyPct(record.response.mapping,
                                     requests[record.input].gold));
    sum += accuracy;
    ++count;
  }
  if (count == 0) return Status::Internal("no answered request to score");
  return sum / static_cast<double>(count);
}

/// Per-request layer timings from the serial in-process replay.
struct ReplayTiming {
  double parse_ms = 0, extract_ms = 0, tokenize_ms = 0, predict_ms = 0,
         combine_ms = 0, search_ms = 0, direct_ms = 0;
  size_t expanded = 0;
  bool truncated = false;
};

/// Replays one request through parse -> extract -> tokenize ->
/// PredictSource -> MatchWithPredictions (handler off, then on), and
/// separately as the service runs it (parse + MatchSource).
/// `cold_cache` gives every cache-reading call an empty prediction cache,
/// as serve-fresh's requests found it.
StatusOr<ReplayTiming> Replay(lsd::LsdSystem& system, const SourceText& text,
                              const std::string& id, bool cold_cache) {
  ReplayTiming timing;
  auto fresh_cache = [&] {
    if (cold_cache) {
      system.SetPredictionCache(std::make_shared<lsd::PredCache>(
          lsd::MatchServiceOptions().pred_cache_entries));
    }
  };
  Clock::time_point start = Clock::now();
  StatusOr<lsd::DataSource> parsed = [&] {
    TraceSpan span("replay.parse", id);
    return ParseRequest(text);
  }();
  timing.parse_ms = MsSince(start);
  LSD_RETURN_IF_ERROR(parsed.status());
  const lsd::DataSource& source = *parsed;

  lsd::ExtractionOptions extraction;
  extraction.max_listings = system.config().max_listings_match;
  start = Clock::now();
  StatusOr<std::vector<lsd::Column>> columns = [&] {
    TraceSpan span("replay.extract", id);
    return lsd::ExtractColumns(source, extraction);
  }();
  timing.extract_ms = MsSince(start);
  LSD_RETURN_IF_ERROR(columns.status());

  size_t tokens = 0;
  start = Clock::now();
  {
    TraceSpan span("replay.tokenize", id);
    for (const lsd::Column& column : *columns) {
      for (const lsd::Instance& instance : column.instances) {
        tokens += lsd::Tokenize(instance.content).size();
      }
    }
  }
  timing.tokenize_ms = MsSince(start);
  if (tokens == 0) return Status::Internal(id + ": no tokens");

  fresh_cache();
  start = Clock::now();
  StatusOr<lsd::SourcePredictions> predictions = [&] {
    TraceSpan span("replay.predict", id);
    return system.PredictSource(source);
  }();
  timing.predict_ms = MsSince(start);
  LSD_RETURN_IF_ERROR(predictions.status());

  lsd::MatchOptions off;
  off.use_constraint_handler = false;
  start = Clock::now();
  StatusOr<lsd::MatchResult> combined = [&] {
    TraceSpan span("replay.combine", id);
    return system.MatchWithPredictions(*predictions, source, off);
  }();
  timing.combine_ms = MsSince(start);
  LSD_RETURN_IF_ERROR(combined.status());
  start = Clock::now();
  StatusOr<lsd::MatchResult> searched = [&] {
    TraceSpan span("replay.match", id);
    return system.MatchWithPredictions(*predictions, source);
  }();
  timing.search_ms = std::max(0.0, MsSince(start) - timing.combine_ms);
  LSD_RETURN_IF_ERROR(searched.status());
  timing.expanded = searched->search_expanded;
  timing.truncated = searched->search_truncated;

  fresh_cache();
  start = Clock::now();
  {
    TraceSpan span("replay.direct", id);
    StatusOr<lsd::DataSource> again = ParseRequest(text);
    LSD_RETURN_IF_ERROR(again.status());
    LSD_RETURN_IF_ERROR(system.MatchSource(*again).status());
  }
  timing.direct_ms = MsSince(start);
  return timing;
}

double PerRequest(double total, size_t requests) {
  return requests == 0 ? 0.0 : total / static_cast<double>(requests);
}

}  // namespace

Status RunServe(const RunOptions& options, RunResult* result) {
  const bool fresh = options.workload == "serve-fresh";
  const bool capacity = options.workload == "capacity";
  const bool traced = options.trace && !capacity;
  const double seconds = static_cast<double>(options.seconds);
  const double rate = kServeFreshRateRps;
  if (fresh) {
    result->env.emplace_back("serve_fresh_rate_rps",
                             lsd::StrFormat("%.1f", rate));
  }

  // Inputs first; nothing below this block generates data.
  size_t fresh_count = 0;
  if (fresh) fresh_count = static_cast<size_t>(rate * seconds) + 1;
  if (capacity) fresh_count = static_cast<size_t>(100 * seconds) + 100;
  const size_t warmup_count =
      fresh ? static_cast<size_t>(rate * kWarmupS) + 1 : 1;
  LSD_ASSIGN_OR_RETURN(ServeInputs inputs,
                       MakeServeInputs(options.seed, warmup_count, fresh_count));
  const std::vector<SourceText>& requests =
      fresh || capacity ? inputs.fresh : inputs.pool;

  MatchService::ReplicaFactory factory = [&inputs] {
    return BuildSystem(inputs.model, lsd::LsdConfig());
  };
  lsd::MatchServiceOptions service_options;
  service_options.workers = kWorkers;
  if (capacity) service_options.pred_cache_entries = 0;
  for (const SourceText& golden : inputs.golden) {
    lsd::ServiceRequest request;
    request.id = golden.id;
    request.dtd_text = golden.dtd;
    request.xml_text = golden.xml;
    service_options.golden_requests.push_back(std::move(request));
  }

  // Set-up, several times; the median is the figure.
  Stack stack;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    Teardown(&stack);
    double setup_s = 0.0;
    LSD_RETURN_IF_ERROR(StartStack(factory, service_options, inputs.warmup[0],
                                   &stack, &setup_s));
    setups.push_back(setup_s);
  }
  const uint16_t port = stack.server->port();

  std::vector<double> reloads;
  Status reload_status = Status::OK();
  auto reload_beside = [&](Clock::time_point start, double window_s) {
    for (double at = kReloadOffsetS; at < window_s - 1.0;
         at += kReloadPeriodS) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(at)));
      StatusOr<double> ms = TimedReload(stack.service.get(), factory, result);
      if (!ms.ok()) {
        reload_status = ms.status();
        return;
      }
      reloads.push_back(*ms);
    }
  };

  Traffic traffic;
  traffic.port = port;
  traffic.requests = &requests;
  traffic.connections = fresh || capacity ? kFreshConnections
                                          : kRepeatConnections;
  // A traced run splits its window: an untraced half, then a traced half
  // with the same traffic, whose difference is the tracing overhead.
  const double window_s = traced ? seconds / 2.0 : seconds;
  auto make_phase = [&](int index, size_t first_input) {
    Traffic phase = traffic;
    phase.id_prefix = lsd::StrFormat("p%d-", index);
    if (fresh) {
      phase.due_s = PoissonSchedule(rate, window_s,
                                    DeriveSeed(options.seed, 100 + index));
      phase.first_input = first_input;
    } else {
      phase.seconds = window_s;
    }
    return phase;
  };
  auto beside = [&](Clock::time_point start) {
    if (fresh) reload_beside(start, window_s);
  };

  // Warm-up, untimed: the workload's own traffic pattern for a few
  // seconds (the first second or two after set-up runs several times
  // slower), on inputs the window never sees; serve-repeat's also fills
  // the cache with its pool.
  Traffic warm = traffic;
  warm.id_prefix = "w";
  if (fresh) {
    warm.requests = &inputs.warmup;
    warm.due_s =
        PoissonSchedule(rate, kWarmupS, DeriveSeed(options.seed, 99));
    warm.due_s.resize(std::min(warm.due_s.size(), inputs.warmup.size()));
  } else {
    warm.seconds = kWarmupS;
  }
  RunTraffic(warm, nullptr);
  // serve-repeat reloads only with no traffic: half before the window and
  // half after it, so a drift in host speed does not hit them all at once.
  auto idle_reloads = [&]() -> Status {
    for (int i = 0; !fresh && !capacity && i < kIdleReloads / 2; ++i) {
      LSD_ASSIGN_OR_RETURN(double ms, TimedReload(stack.service.get(),
                                                  factory, result));
      reloads.push_back(ms);
    }
    return Status::OK();
  };
  LSD_RETURN_IF_ERROR(idle_reloads());

  const StealProbe steal;
  lsd::MetricsSnapshot before = lsd::MetricsRegistry::Global().Snapshot();
  MatchService::Stats stats_before = stack.service->stats();
  Traffic first_traffic = make_phase(0, 0);
  if (first_traffic.due_s.size() > requests.size()) {
    return Status::Internal("not enough fresh requests generated");
  }
  double cpu_s = ProcessCpuSeconds();
  Phase phase = RunTraffic(first_traffic, beside);
  cpu_s = ProcessCpuSeconds() - cpu_s;
  lsd::MetricsSnapshot after = lsd::MetricsRegistry::Global().Snapshot();
  MatchService::Stats stats_after = stack.service->stats();
  Phase untraced_half;
  if (traced) {
    untraced_half = std::move(phase);
    Traffic second = make_phase(1, first_traffic.due_s.size());
    if (first_traffic.due_s.size() + second.due_s.size() > requests.size()) {
      return Status::Internal("not enough fresh requests generated");
    }
    lsd::TraceRecorder::Global().Start();
    before = lsd::MetricsRegistry::Global().Snapshot();
    stats_before = stack.service->stats();
    cpu_s = ProcessCpuSeconds();
    phase = RunTraffic(second, beside);
    cpu_s = ProcessCpuSeconds() - cpu_s;
    after = lsd::MetricsRegistry::Global().Snapshot();
    stats_after = stack.service->stats();
  }
  result->Detail("host.steal_pct", steal.SharePct(), "pct");
  LSD_RETURN_IF_ERROR(reload_status);
  LSD_RETURN_IF_ERROR(idle_reloads());
  if (reloads.empty() && !capacity) {
    // A window too short to reach the first scheduled reload.
    LSD_ASSIGN_OR_RETURN(double ms,
                         TimedReload(stack.service.get(), factory, result));
    reloads.push_back(ms);
  }
  Teardown(&stack);

  // End-to-end figures of the (traced: second) window.
  const size_t answered = CountAnswered(phase);
  result->attempted = phase.records.size();
  result->failed = phase.records.size() - answered;
  std::vector<double> latencies = Latencies(phase);
  const double throughput =
      phase.elapsed_s > 0.0 ? answered / phase.elapsed_s : 0.0;
  const uint64_t hits = stats_after.pred_cache_hits - stats_before.pred_cache_hits;
  const uint64_t lookups = hits + stats_after.pred_cache_misses -
                           stats_before.pred_cache_misses;
  const double hit_ratio =
      lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  result->Set("setup_s", Median(setups));
  result->Set("throughput_rps", throughput);
  result->Detail("latency_p50_ms",
                 SlicedPercentile(latencies, 0.50, kMinMedianSamples), "ms");
  result->Detail("latency_p99_ms",
                 SlicedPercentile(latencies, 0.99, kMinTailSamples), "ms");
  result->Set("reload_ms", Median(reloads));
  result->Set("cpu_ms_per_req", PerRequest(cpu_s * 1e3, answered));
  result->Detail("answered", static_cast<double>(answered), "count");
  result->Detail("failed_frac",
                 PerRequest(static_cast<double>(result->failed),
                            phase.records.size()),
                 "ratio");
  result->Detail("p99_slices",
                 static_cast<double>(
                     std::max<size_t>(1, latencies.size() / kMinTailSamples)),
                 "count");
  result->Detail("reloads", static_cast<double>(reloads.size()), "count");
  result->Detail("share.pred_cache_hit", hit_ratio, "ratio");
  std::vector<double> lateness;
  for (const Record& record : phase.records) {
    lateness.push_back(LatenessMs(record.timing()));
  }
  // A validity check on the open loop, not a figure to optimise.
  const double late_ms_p99 = fresh ? Percentile(lateness, 0.99) : 0.0;
  if (fresh) result->Detail("loadgen.late_ms_p99", late_ms_p99, "ms");
  if (capacity) {
    result->Detail("capacity_rps", throughput, "1/s");
    result->Set("peak_rss_mb", PeakRssMb());
    return Status::OK();
  }
  if (!traced && latencies.size() < kMinTailSamples) {
    result->Fail(lsd::StrFormat(
        "only %zu requests in the window: p99 needs at least 10 samples "
        "beyond it (%zu requests)",
        latencies.size(), kMinTailSamples));
  }
  LSD_ASSIGN_OR_RETURN(double accuracy, MeanAccuracy(phase, requests));
  result->Set("accuracy_pct", accuracy);
  if (accuracy < kMinAccuracyPct) {
    result->Fail(lsd::StrFormat("accuracy %.1f%% is below the %.0f%% floor",
                                accuracy, kMinAccuracyPct));
  }
  if (!fresh) {
    std::vector<bool> seen(requests.size(), false);
    for (const Record& record : phase.records) {
      if (record.has_text) seen[record.input] = true;
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!seen[i]) result->Fail(requests[i].id + " was never answered");
    }
  }

  // Correctness gate, outside every timed window.
  const lsd::MetricsSnapshot train_before =
      lsd::MetricsRegistry::Global().Snapshot();
  double train_ms = 0.0;
  LSD_ASSIGN_OR_RETURN(std::unique_ptr<lsd::LsdSystem> reference,
                       BuildSystem(inputs.model, lsd::LsdConfig(), &train_ms));
  const lsd::MetricsSnapshot train_after =
      lsd::MetricsRegistry::Global().Snapshot();
  CheckAgainstReference(*reference, requests,
                        Sample(phase, kGateSample, DeriveSeed(options.seed, 7)),
                        result);
  result->Set("peak_rss_mb", PeakRssMb());
  if (!traced) return Status::OK();

  // Traced run: per-layer attribution. The serial replay runs on the
  // reference model with a prediction cache like the service's; serve-
  // repeat warms it with the pool exactly as the service's was warmed.
  reference->SetPredictionCache(std::make_shared<lsd::PredCache>(
      service_options.pred_cache_entries));
  if (!fresh) {
    for (const SourceText& text : requests) {
      LSD_ASSIGN_OR_RETURN(lsd::DataSource source, ParseRequest(text));
      LSD_RETURN_IF_ERROR(reference->MatchSource(source).status());
    }
  }
  std::vector<double> transport, codec_us, service_ms, wait_ms,
      parse, extract, tokenize, predict, combine, search, unattributed;
  size_t expanded_total = 0, truncated = 0, heavy = 0, searches = 0;
  for (const Record* record :
       Sample(phase, kReplaySample, DeriveSeed(options.seed, 8))) {
    LSD_ASSIGN_OR_RETURN(
        ReplayTiming timing,
        Replay(*reference, requests[record->input], record->id, fresh));
    const double rtt_ms = (record->done_s - record->sent_s) * 1e3;
    const double svc_ms = record->response.latency_micros / 1e3;
    transport.push_back(rtt_ms - svc_ms);
    service_ms.push_back(svc_ms);
    wait_ms.push_back(svc_ms - timing.direct_ms);
    parse.push_back(timing.parse_ms);
    extract.push_back(timing.extract_ms);
    tokenize.push_back(timing.tokenize_ms);
    predict.push_back(timing.predict_ms);
    combine.push_back(timing.combine_ms);
    search.push_back(timing.search_ms);
    // What the service spent beyond the replayed stages (the transport
    // is attributed above).
    unattributed.push_back(svc_ms - timing.parse_ms - timing.predict_ms -
                           timing.combine_ms - timing.search_ms);
    expanded_total += timing.expanded;
    truncated += timing.truncated;
    heavy += timing.expanded >= 10000;
    ++searches;

    net::WireRequest request;
    request.id = record->id;
    request.dtd_text = requests[record->input].dtd;
    request.xml_text = requests[record->input].xml;
    const std::string payload = net::EncodeResponsePayload(record->response);
    Clock::time_point start = Clock::now();
    const std::string frame = net::EncodeRequestFrame(request);
    StatusOr<net::WireResponse> decoded = net::DecodeResponsePayload(payload);
    codec_us.push_back(MsSince(start) * 1e3);
    if (!decoded.ok() || frame.empty()) {
      result->Fail(record->id + ": wire codec round trip failed");
    }
  }
  lsd::TraceRecorder::Global().Stop();

  result->Set("net.transport_ms_p50", Percentile(transport, 0.5));
  result->Set("net.codec_us", Median(codec_us));
  result->Set("net.bytes_per_req",
              PerRequest(static_cast<double>(
                             CounterDelta(before, after, "net.bytes_read") +
                             CounterDelta(before, after, "net.bytes_written")),
                         phase.records.size()));
  result->Set("service.latency_ms_p50", Percentile(service_ms, 0.5));
  result->Set("service.wait_ms_p50", Percentile(wait_ms, 0.5));
  result->Set("service.shed",
              static_cast<double>(stats_after.shed - stats_before.shed));
  result->Set("service.retried",
              static_cast<double>(stats_after.retried - stats_before.retried));
  result->Set("service.degraded", static_cast<double>(stats_after.degraded -
                                                      stats_before.degraded));
  result->Set("service.reload_per_train",
              train_ms > 0.0 ? Median(reloads) / train_ms : 0.0);
  result->Set("service.queue_depth_peak",
              static_cast<double>(after.GaugeOf("service.queue_depth_peak")));
  result->Set("pred_cache.hit_ratio", hit_ratio);
  result->Set("pred_cache.hits", static_cast<double>(hits));
  result->Set("pred_cache.lookups", static_cast<double>(lookups));
  result->Set("pool.queue_depth_peak",
              static_cast<double>(after.GaugeOf("pool.queue_depth_peak")));
  result->Set("xml.parse_ms_p50", Percentile(parse, 0.5));
  result->Set("schema.extract_ms_p50", Percentile(extract, 0.5));
  result->Set("text.tokenize_ms_p50", Percentile(tokenize, 0.5));
  result->Set("core.predict_ms_p50", Percentile(predict, 0.5));
  for (const std::string& learner : reference->LearnerNames()) {
    result->Set("learners.predict_ms." + learner,
                PerRequest(HistogramDeltaMs(before, after,
                                            "predict.micros." + learner),
                           answered));
    result->Set("learners.train_ms." + learner,
                HistogramDeltaMs(train_before, train_after,
                                 "train.micros." + learner));
  }
  result->Set("ml.combine_convert_ms_p50", Percentile(combine, 0.5));
  result->Set("constraints.search_ms_p50", Percentile(search, 0.5));
  result->Set("constraints.search_ms_max", Percentile(search, 1.0));
  result->Set("constraints.expanded_total",
              static_cast<double>(expanded_total));
  result->Set("constraints.truncated", static_cast<double>(truncated));
  result->Set("constraints.truncated_frac",
              PerRequest(static_cast<double>(truncated), searches));
  result->Set("constraints.heavy_frac",
              PerRequest(static_cast<double>(heavy), searches));
  result->Set("astar.heap_peak",
              static_cast<double>(after.GaugeOf("astar.heap_peak")));
  result->Set("core.train_ms", train_ms);
  result->Set("cv.folds_trained",
              static_cast<double>(CounterDelta(train_before, train_after,
                                               "cv.folds_trained")));
  result->Set("unattributed_ms_p50", Percentile(unattributed, 0.5));
  const double untraced_p50 = Percentile(Latencies(untraced_half), 0.5);
  result->Set("trace_overhead_pct",
              untraced_p50 > 0.0
                  ? 100.0 * (Percentile(latencies, 0.5) - untraced_p50) /
                        untraced_p50
                  : 0.0);
  result->Set("loadgen.late_ms_p99", late_ms_p99);
  result->Set("failed_frac",
              PerRequest(static_cast<double>(result->failed),
                         phase.records.size()));
  return Status::OK();
}

}  // namespace perfbench
