// batch-search: the `lsd_match` use case, in process.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "constraints/constraint_parser.h"
#include "inputs.h"
#include "model.h"
#include "schema/extraction.h"
#include "stats.h"
#include "text/tokenizer.h"
#include "workloads.h"
#include "xml/dtd_parser.h"

namespace perfbench {
namespace {

using lsd::LsdSystem;
using lsd::MetricsSnapshot;
using lsd::Status;
using lsd::StatusOr;
using lsd::TraceSpan;

constexpr int kSetupRepeats = 3;
/// One timed model load after every this many targets (9 per pass).
constexpr size_t kReloadEvery = 4;
constexpr int kTracedReloads = 3;
/// The traced run's tracing-overhead comparison covers the first data
/// draw's targets (one of each target schema), not the whole list, to keep
/// the run short.
constexpr size_t kOverheadTargets = 12;
constexpr double kMinAccuracyPct = 60.0;
constexpr size_t kHeavyExpansions = 10000;

/// `lsd_match --threads 2` with its default learner roster.
lsd::LsdConfig BatchConfig() {
  lsd::LsdConfig config;
  config.num_threads = 2;
  return config;
}

/// One matched target.
struct Visit {
  size_t target = 0;
  double ms = 0.0;  // PredictSource + MatchWithPredictions
  double predict_ms = 0.0;
  double match_ms = 0.0;
  double cpu_ms = 0.0;  // CPU time of every thread over the same span
  bool ok = false;
  size_t expanded = 0;
  bool truncated = false;
  std::string mapping;
};

Visit MatchTarget(LsdSystem& system, const lsd::DataSource& source,
                  size_t target, RunResult* result) {
  Visit visit;
  visit.target = target;
  const double cpu_start = ProcessCpuSeconds();
  Clock::time_point start = Clock::now();
  StatusOr<lsd::MatchResult> match = [&]() -> StatusOr<lsd::MatchResult> {
    StatusOr<lsd::SourcePredictions> predictions = [&] {
      TraceSpan span("batch.predict", source.name);
      return system.PredictSource(source);
    }();
    visit.predict_ms = MsSince(start);
    if (!predictions.ok()) return predictions.status();
    Clock::time_point match_start = Clock::now();
    TraceSpan span("batch.match", source.name);
    StatusOr<lsd::MatchResult> matched =
        system.MatchWithPredictions(*predictions, source);
    visit.match_ms = MsSince(match_start);
    return matched;
  }();
  visit.ms = MsSince(start);
  visit.cpu_ms = (ProcessCpuSeconds() - cpu_start) * 1e3;
  if (!match.ok()) {
    result->Fail(source.name + ": " + match.status().ToString());
    return visit;
  }
  visit.ok = true;
  visit.expanded = match->search_expanded;
  visit.truncated = match->search_truncated;
  visit.mapping = match->mapping.ToString();
  Status covered = CheckCoversEveryTag(source, match->mapping);
  if (!covered.ok()) result->Fail(covered.ToString());
  return visit;
}

/// LsdSystem::LoadModel of the saved model, with the mediated schema and
/// constraints read from text: how the batch tool picks up a new model
/// version (`lsd_match --load-model`).
StatusOr<std::unique_ptr<LsdSystem>> LoadSystem(const ModelText& model,
                                                const std::string& path) {
  LSD_ASSIGN_OR_RETURN(lsd::Dtd mediated, lsd::ParseDtd(model.mediated_dtd));
  auto system = std::make_unique<LsdSystem>(mediated, BatchConfig());
  LSD_RETURN_IF_ERROR(system->LoadModel(path));
  LSD_ASSIGN_OR_RETURN(auto constraints,
                       lsd::ParseConstraints(model.constraints));
  for (auto& constraint : constraints) {
    system->AddConstraint(std::move(constraint));
  }
  return system;
}

/// Converter output with the search off: cheap, and enough to tell two
/// models apart.
StatusOr<std::string> UnsearchedFingerprint(LsdSystem& system,
                                            const lsd::DataSource& source) {
  LSD_ASSIGN_OR_RETURN(lsd::SourcePredictions predictions,
                       system.PredictSource(source));
  lsd::MatchOptions off;
  off.use_constraint_handler = false;
  LSD_ASSIGN_OR_RETURN(lsd::MatchResult match,
                       system.MatchWithPredictions(predictions, source, off));
  return Fingerprint(match);
}

}  // namespace

Status RunBatch(const RunOptions& options, RunResult* result) {
  LSD_ASSIGN_OR_RETURN(BatchInputs inputs, MakeBatchInputs(options.seed));
  std::vector<lsd::DataSource> targets;
  for (const SourceText& text : inputs.targets) {
    LSD_ASSIGN_OR_RETURN(lsd::DataSource source, ParseSourceStrict(text));
    targets.push_back(std::move(source));
  }
  const size_t n = targets.size();

  // Set-up: parse the training files and train, several times.
  std::vector<double> setups;
  std::unique_ptr<LsdSystem> system;
  double train_ms = 0.0;
  MetricsSnapshot train_before, train_after;
  for (int r = 0; r < kSetupRepeats; ++r) {
    system.reset();
    train_before = lsd::MetricsRegistry::Global().Snapshot();
    Clock::time_point start = Clock::now();
    LSD_ASSIGN_OR_RETURN(system,
                         BuildSystem(inputs.model, BatchConfig(), &train_ms));
    setups.push_back(MsSince(start) / 1e3);
    train_after = lsd::MetricsRegistry::Global().Snapshot();
  }

  // Reload: save once, then time loading it back, spread over the run
  // (the host's speed drifts over seconds, so back-to-back loads would all
  // see the same moment). The loaded model must predict exactly like the
  // trained one; that check doubles as warm-up.
  const std::string model_path = lsd::StrFormat(
      "%s/batch-model-%ld.lsd", options.out_dir.c_str(), (long)getpid());
  LSD_RETURN_IF_ERROR(system->SaveModel(model_path));
  std::vector<double> reloads;
  auto timed_load = [&]() -> Status {
    Clock::time_point start = Clock::now();
    LSD_ASSIGN_OR_RETURN(std::unique_ptr<LsdSystem> loaded,
                         LoadSystem(inputs.model, model_path));
    reloads.push_back(MsSince(start));
    return Status::OK();
  };
  {
    LSD_ASSIGN_OR_RETURN(std::unique_ptr<LsdSystem> loaded,
                         LoadSystem(inputs.model, model_path));
    LSD_ASSIGN_OR_RETURN(std::string trained_fp,
                         UnsearchedFingerprint(*system, targets[0]));
    LSD_ASSIGN_OR_RETURN(std::string loaded_fp,
                         UnsearchedFingerprint(*loaded, targets[0]));
    if (trained_fp != loaded_fp) {
      result->Fail(
          "the loaded model predicts differently from the trained one");
    }
  }

  std::vector<Visit> visits;
  const StealProbe steal;
  if (!options.trace) {
    // The timed window: the target list in order, round and round, until
    // `seconds` of matching have passed, and at least one whole pass. A
    // timed load follows every kReloadEvery-th target; it is not part of
    // the matching time. Every figure takes each target's median time, so
    // every target weighs the same however far the last pass got.
    double busy_ms = 0.0;
    for (size_t t = 0; visits.size() < n ||
                       busy_ms / 1e3 < static_cast<double>(options.seconds);
         t = (t + 1) % n) {
      visits.push_back(MatchTarget(*system, targets[t], t, result));
      busy_ms += visits.back().ms;
      if (visits.size() % kReloadEvery == 0) {
        LSD_RETURN_IF_ERROR(timed_load());
      }
    }
    // Targets/s is a pass over the list at each target's median time.
    // Fewer than 1000 targets fit in a run, so the nearest-rank p99 over
    // the targets is the slowest one: the search-budget tail.
    std::vector<std::vector<double>> per_target(n);
    size_t matched = 0;
    for (const Visit& visit : visits) {
      per_target[visit.target].push_back(visit.ok ? visit.ms : kMissed);
      matched += visit.ok;
    }
    std::vector<std::vector<double>> cpu_per_target(n);
    for (const Visit& visit : visits) {
      cpu_per_target[visit.target].push_back(visit.cpu_ms);
    }
    std::vector<double> latencies;
    double pass_ms = 0.0, pass_cpu_ms = 0.0;
    for (size_t t = 0; t < n; ++t) {
      latencies.push_back(Median(per_target[t]));
      pass_ms += latencies.back();
      pass_cpu_ms += Median(cpu_per_target[t]);
    }
    const double sources_per_s = n / (pass_ms / 1e3);
    result->attempted = visits.size();
    result->failed = visits.size() - matched;
    result->Set("throughput_rps", sources_per_s);
    result->Detail("latency_p50_ms", Percentile(latencies, 0.50), "ms");
    result->Detail("latency_p99_ms", Percentile(latencies, 0.99), "ms");
    result->Set("reload_ms", Median(reloads));
    result->Set("cpu_ms_per_req", pass_cpu_ms / n);
    result->Detail("sources_per_s", sources_per_s, "1/s");
    result->Detail("visits", static_cast<double>(visits.size()), "count");
    result->Detail("failed_frac",
                   static_cast<double>(result->failed) / visits.size(),
                   "ratio");
  } else {
    // Traced run: the first kOverheadTargets targets without spans, then
    // every target with them (the difference on the shared targets is the
    // tracing overhead), plus the attribution
    // passes: parse, extract, tokenize, and the match with the search
    // switched off.
    for (int r = 0; r < kTracedReloads; ++r) {
      LSD_RETURN_IF_ERROR(timed_load());
    }
    std::vector<Visit> untraced;
    for (size_t t = 0; t < std::min(n, kOverheadTargets); ++t) {
      untraced.push_back(MatchTarget(*system, targets[t], t, result));
    }
    lsd::TraceRecorder::Global().Start();
    const MetricsSnapshot before = lsd::MetricsRegistry::Global().Snapshot();
    for (size_t t = 0; t < n; ++t) {
      visits.push_back(MatchTarget(*system, targets[t], t, result));
    }
    const MetricsSnapshot after = lsd::MetricsRegistry::Global().Snapshot();
    std::vector<double> parse, extract, tokenize, predict, combine, search,
        unattributed;
    double traced_sum = 0.0, untraced_sum = 0.0;
    for (size_t t = 0; t < n; ++t) {
      const SourceText& text = inputs.targets[t];
      const std::string& id = text.id;
      if (t < untraced.size()) {
        traced_sum += visits[t].ms;
        untraced_sum += untraced[t].ms;
      }
      Clock::time_point start = Clock::now();
      StatusOr<lsd::DataSource> parsed = [&] {
        TraceSpan span("batch.parse", id);
        return ParseSourceStrict(text);
      }();
      parse.push_back(MsSince(start));
      LSD_RETURN_IF_ERROR(parsed.status());
      lsd::ExtractionOptions extraction;
      extraction.max_listings = system->config().max_listings_match;
      start = Clock::now();
      StatusOr<std::vector<lsd::Column>> columns = [&] {
        TraceSpan span("batch.extract", id);
        return lsd::ExtractColumns(targets[t], extraction);
      }();
      extract.push_back(MsSince(start));
      LSD_RETURN_IF_ERROR(columns.status());
      start = Clock::now();
      {
        TraceSpan span("batch.tokenize", id);
        for (const lsd::Column& column : *columns) {
          for (const lsd::Instance& instance : column.instances) {
            lsd::Tokenize(instance.content);
          }
        }
      }
      tokenize.push_back(MsSince(start));
      StatusOr<lsd::SourcePredictions> predictions =
          system->PredictSource(targets[t]);
      LSD_RETURN_IF_ERROR(predictions.status());
      lsd::MatchOptions off;
      off.use_constraint_handler = false;
      start = Clock::now();
      StatusOr<lsd::MatchResult> combined = [&] {
        TraceSpan span("batch.combine", id);
        return system->MatchWithPredictions(*predictions, targets[t], off);
      }();
      combine.push_back(MsSince(start));
      LSD_RETURN_IF_ERROR(combined.status());
      predict.push_back(visits[t].predict_ms);
      search.push_back(std::max(0.0, visits[t].match_ms - combine.back()));
      unattributed.push_back(visits[t].ms - visits[t].predict_ms -
                             visits[t].match_ms);
    }
    lsd::TraceRecorder::Global().Stop();
    size_t matched = 0;
    for (const Visit& visit : visits) matched += visit.ok;
    result->attempted = visits.size();
    result->failed = visits.size() - matched;

    result->Set("service.reload_per_train", Median(reloads) / train_ms);
    result->Set("pool.queue_depth_peak",
                static_cast<double>(after.GaugeOf("pool.queue_depth_peak")));
    result->Set("xml.parse_ms_p50", Percentile(parse, 0.5));
    result->Set("schema.extract_ms_p50", Percentile(extract, 0.5));
    result->Set("text.tokenize_ms_p50", Percentile(tokenize, 0.5));
    result->Set("core.predict_ms_p50", Percentile(predict, 0.5));
    for (const std::string& learner : system->LearnerNames()) {
      result->Set("learners.predict_ms." + learner,
                  HistogramDeltaMs(before, after, "predict.micros." + learner) /
                      n);
      result->Set("learners.train_ms." + learner,
                  HistogramDeltaMs(train_before, train_after,
                                   "train.micros." + learner));
    }
    result->Set("ml.combine_convert_ms_p50", Percentile(combine, 0.5));
    result->Set("constraints.search_ms_p50", Percentile(search, 0.5));
    result->Set("constraints.search_ms_max", Percentile(search, 1.0));
    result->Set("astar.heap_peak",
                static_cast<double>(after.GaugeOf("astar.heap_peak")));
    result->Set("core.train_ms", train_ms);
    result->Set("cv.folds_trained",
                static_cast<double>(CounterDelta(train_before, train_after,
                                                 "cv.folds_trained")));
    result->Set("unattributed_ms_p50", Percentile(unattributed, 0.5));
    result->Set("trace_overhead_pct",
                100.0 * (traced_sum - untraced_sum) / untraced_sum);
    result->Set("failed_frac",
                static_cast<double>(result->failed) / visits.size());
  }

  result->Detail("host.steal_pct", steal.SharePct(), "pct");
  std::remove(model_path.c_str());
  std::remove((model_path + ".lastgood").c_str());
  result->Set("setup_s", Median(setups));

  // Correctness and the workload's property shares, over distinct targets.
  std::vector<const Visit*> first(n, nullptr);
  for (const Visit& visit : visits) {
    if (!visit.ok) continue;
    if (first[visit.target] == nullptr) {
      first[visit.target] = &visit;
    } else if (first[visit.target]->mapping != visit.mapping) {
      result->Fail(inputs.targets[visit.target].id +
                   ": two matches of the same target disagree");
    }
  }
  double accuracy_sum = 0.0;
  size_t heavy = 0, truncated = 0, expanded = 0;
  for (size_t t = 0; t < n; ++t) {
    if (first[t] == nullptr) {
      result->Fail(inputs.targets[t].id + " was never matched");
      continue;
    }
    LSD_ASSIGN_OR_RETURN(double accuracy,
                         AccuracyPct(first[t]->mapping, inputs.targets[t].gold));
    accuracy_sum += accuracy;
    heavy += first[t]->expanded >= kHeavyExpansions;
    truncated += first[t]->truncated;
    expanded += first[t]->expanded;
  }
  const double accuracy = accuracy_sum / n;
  if (accuracy < kMinAccuracyPct) {
    result->Fail(lsd::StrFormat("accuracy %.1f%% is below the %.0f%% floor",
                                accuracy, kMinAccuracyPct));
  }
  const double heavy_frac = static_cast<double>(heavy) / n;
  const double truncated_frac = static_cast<double>(truncated) / n;
  result->Detail("share.targets_ge_1e4_expansions", heavy_frac, "ratio");
  result->Detail("share.targets_truncated", truncated_frac, "ratio");
  if (options.trace) {
    result->Set("constraints.expanded_total", static_cast<double>(expanded));
    result->Set("constraints.truncated", static_cast<double>(truncated));
    result->Set("constraints.truncated_frac", truncated_frac);
    result->Set("constraints.heavy_frac", heavy_frac);
  } else {
    result->Set("accuracy_pct", accuracy);
  }
  result->Set("peak_rss_mb", PeakRssMb());
  return Status::OK();
}

}  // namespace perfbench
