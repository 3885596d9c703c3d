#include "inputs.h"

#include <string>
#include <utility>

#include "common/strings.h"
#include "datagen/domain_spec.h"
#include "datagen/domains.h"
#include "xml/xml_writer.h"

namespace perfbench {
namespace {

using lsd::Domain;
using lsd::DomainSpec;
using lsd::StatusOr;

// Every workload matches against one model, trained on sources 0-2 of the
// repository's usual generator seed (7), so set-up and reload figures do
// not move with the workload seed; the seed draws the traffic.
//
// Request and target schemas come from fixed structure seeds, and the
// workload seed re-samples their listing data (RealizeDomain's data seed).
// Structure is what decides how hard the A* search is: with these three
// structures every workload seed keeps several real-estate-2 targets above
// 10^4 expansions and some at the 200,000 budget, while with seed-derived
// structure most seeds had none and targets/s spread 2.5x across seeds.
// 11 and 23 are the cross-seed targets known to reach the search budget.
constexpr uint64_t kTrainStructureSeed = 7;
constexpr uint64_t kTargetStructureSeeds[] = {7, 11, 23};
/// Data draws per target structure: 3 x 12 = 36 targets, enough that the
/// share of budget-bound searches, and so targets/s, varies little between
/// workload seeds.
constexpr uint64_t kTargetDraws = 3;
// serve-repeat's pool takes every source of these structures: 12 sources
// with the held-out pair, few enough that at 60 listings all their
// predictions fit in the default prediction cache (with 32 sources the
// cache thrashed to a 0.59 hit ratio).
constexpr uint64_t kPoolStructureSeeds[] = {11, 23};

SourceText ToText(const lsd::GeneratedSource& generated, std::string id) {
  SourceText text;
  text.id = std::move(id);
  text.dtd = generated.source.schema.ToString();
  lsd::XmlNode wrapper("listings");
  for (const lsd::XmlDocument& listing : generated.source.listings) {
    wrapper.children.push_back(listing.root);
  }
  text.xml = lsd::WriteXml(wrapper);
  text.gold = generated.gold.ToString();
  return text;
}

ModelText ModelFromDomain(const Domain& domain, bool with_constraints) {
  ModelText model;
  model.mediated_dtd = domain.mediated.ToString();
  for (size_t s = 0; s < 3; ++s) {
    model.training.push_back(
        ToText(domain.sources[s], lsd::StrFormat("train-%zu", s)));
  }
  if (with_constraints) {
    for (const auto& constraint : lsd::MakeDomainConstraints(domain)) {
      std::string line = constraint->ToConfigLine();
      if (!line.empty()) model.constraints += line + "\n";
    }
  }
  return model;
}

/// The model's domain: data seed 0 derives the data from the structure
/// seed, which makes this MakeEvaluationDomain(name, 5, listings, 7).
Domain TrainingDomain(const DomainSpec& spec, size_t listings) {
  return lsd::RealizeDomain(spec, 5, listings, kTrainStructureSeed, 0);
}

/// Appends sources [first, 5) of `domain` as text.
void AppendSources(const Domain& domain, size_t first, const char* prefix,
                   uint64_t tag, std::vector<SourceText>* out) {
  for (size_t s = first; s < domain.sources.size(); ++s) {
    out->push_back(ToText(
        domain.sources[s],
        lsd::StrFormat("%s-%llu-src%zu", prefix, (unsigned long long)tag, s)));
  }
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

StatusOr<ServeInputs> MakeServeInputs(uint64_t seed, size_t warmup_count,
                                      size_t fresh_count) {
  LSD_ASSIGN_OR_RETURN(DomainSpec spec, lsd::GetDomainSpec("real-estate-1"));
  ServeInputs inputs;
  inputs.model = ModelFromDomain(TrainingDomain(spec, kServeTrainListings),
                                 /*with_constraints=*/false);

  // serve-repeat's pool: the training structure's held-out sources 3-4
  // plus every source of the pool structures, at request size.
  Domain held_out = lsd::RealizeDomain(spec, 5, kServeRequestListings,
                                       kTrainStructureSeed, DeriveSeed(seed, 1));
  AppendSources(held_out, 3, "pool", kTrainStructureSeed, &inputs.pool);
  uint64_t stream = 2;
  for (uint64_t structure : kPoolStructureSeeds) {
    Domain extra = lsd::RealizeDomain(spec, 5, kServeRequestListings,
                                      structure, DeriveSeed(seed, stream++));
    AppendSources(extra, 0, "pool", structure, &inputs.pool);
  }

  Domain golden = lsd::RealizeDomain(spec, 5, kServeRequestListings,
                                     kTrainStructureSeed, DeriveSeed(seed, 99));
  AppendSources(golden, 3, "golden", kTrainStructureSeed, &inputs.golden);

  // Fresh traffic: every domain gets its own seed-derived structure, so no
  // two requests share a schema-and-data pair within a run.
  for (uint64_t k = 0; inputs.warmup.size() < warmup_count; ++k) {
    uint64_t structure = DeriveSeed(seed, (1u << 20) + k);
    Domain domain =
        lsd::RealizeDomain(spec, 5, kServeRequestListings, structure, 0);
    AppendSources(domain, 0, "warm", k, &inputs.warmup);
  }
  for (uint64_t k = 0; inputs.fresh.size() < fresh_count; ++k) {
    uint64_t structure = DeriveSeed(seed, (1u << 21) + k);
    Domain domain =
        lsd::RealizeDomain(spec, 5, kServeRequestListings, structure, 0);
    AppendSources(domain, 0, "fresh", k, &inputs.fresh);
  }
  inputs.warmup.resize(warmup_count);
  inputs.fresh.resize(fresh_count);
  return inputs;
}

StatusOr<BatchInputs> MakeBatchInputs(uint64_t seed) {
  LSD_ASSIGN_OR_RETURN(DomainSpec spec, lsd::GetDomainSpec("real-estate-2"));
  BatchInputs inputs;
  inputs.model = ModelFromDomain(TrainingDomain(spec, kBatchListings),
                                 /*with_constraints=*/true);
  // Held-out sources only: the training structure contributes 3-4.
  uint64_t stream = 2;
  for (uint64_t draw = 0; draw < kTargetDraws; ++draw) {
    for (uint64_t structure : kTargetStructureSeeds) {
      Domain domain = lsd::RealizeDomain(spec, 5, kBatchListings, structure,
                                         DeriveSeed(seed, stream++));
      AppendSources(domain, structure == kTrainStructureSeed ? 3 : 0,
                    lsd::StrFormat("target%llu", (unsigned long long)draw)
                        .c_str(),
                    structure, &inputs.targets);
    }
  }
  return inputs;
}

}  // namespace perfbench
