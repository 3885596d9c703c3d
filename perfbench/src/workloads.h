#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads.
//
// LSD's matching phase is a pipeline: parse the source (xml), extract its
// columns (schema), tokenize and run the base learners (text, learners),
// stack them with the meta-learner and convert (ml), then search under
// domain constraints (constraints). The repository serves that pipeline
// through MatchService (service, with the shared prediction cache and
// thread pool from common) behind the TCP transport (net). Each workload
// below puts most of its time in a different part of that stack, so a
// change to one layer has one workload where it should move the numbers
// and one where the prediction is "no change".
//
// serve-repeat — loopback NetServer in front of a 2-worker MatchService
//   with the default prediction cache and no constraints (`lsd_serve
//   --listen`), model trained on real-estate-1 sources 0-2 at 60 listings.
//   Closed loop: 3 connections, each sending its next request when the
//   previous one returns, cycling a fixed pool of 12 held-out sources at
//   60 listings, small enough that all their predictions stay cached.
//   Exercises: net, service queue (3 clients on 2 workers keep one request
//   waiting), xml parse, the cache (every cacheable prediction hits in the
//   window: hit ratio 1.00) and the uncacheable xml-learner. Bypasses:
//   constraint search (no constraints), most learner work. Where transport
//   overhead, the client-scaling anomaly, a cacheable XML learner or a
//   shared model would show.
//
// serve-fresh — the same server and model. Open loop: seeded Poisson
//   arrivals at a fixed rate (kServeFreshRateRps, about half of the
//   2-worker cache-off capacity measured when it was frozen) over at most
//   4 connections; latency counts from each request's due time. Every
//   request is a distinct source (60 listings) from its own seed-derived
//   schema, so no request repeats; the cache still answers about 40% of
//   instance predictions, because the cache is keyed on instance content
//   and leaf values (cities, prices, phone formats) recur across sources.
//   Every few seconds a Reload() with an identically trained factory,
//   validated against 2 golden requests, runs beside the traffic.
//   Exercises: learners, parse, service under reload. Bypasses: constraint
//   search. Its throughput_rps is a saturation check: while the service
//   keeps up it equals the offered rate and moves only if capacity falls
//   to about that rate. What moves is latency from the due time (printed,
//   not gated: see main.cc) and cpu_ms_per_req. The workload where the
//   cache is idle is batch-search.
//
// batch-search — in-process LsdSystem, the `lsd_match` use case:
//   real-estate-2 at 100 listings, domain constraints on, num_threads = 2,
//   the default learner roster, no cache, no service, no network.
//   Trains once on sources 0-2, then matches a fixed list of 36 targets
//   (three data draws of held-out sources 3-4 and of every source of two
//   more schema structures) through PredictSource + MatchWithPredictions,
//   in whole passes over the list.
//   Exercises: A* search (several targets above 10^4 expansions, some
//   truncating at the 200,000 budget), training and predict at 100
//   listings. Bypasses: net, service, cache.

#include <cstdint>
#include <string>

#include "common/status.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  size_t seconds = 20;
  bool trace = false;
  /// Directory for the result file, the trace, and temporary files.
  std::string out_dir;
};

/// serve-fresh's arrival rate, frozen as a constant so every commit is
/// offered the same load: about half of the 2-worker cache-off capacity
/// measured with `--workload capacity` when the benchmark was defined
/// (52-58 req/s at 60 listings per request on a 4-core x86-64 host,
/// Release build). The schedule's count is fixed at rate x window, so the
/// 34 s window holds 1020 requests, enough for a p99 with ten samples
/// beyond it.
inline constexpr double kServeFreshRateRps = 30.0;

/// serve-repeat, serve-fresh, and the untimed `capacity` probe. A non-OK
/// status means the run could not be carried out at all; correctness-gate
/// failures land in `result`, measurements in `result->values`.
lsd::Status RunServe(const RunOptions& options, RunResult* result);

/// batch-search.
lsd::Status RunBatch(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
