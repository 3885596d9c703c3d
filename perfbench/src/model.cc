#include "model.h"

#include <utility>
#include <vector>

#include "common/strings.h"
#include "constraints/constraint_parser.h"
#include "eval/metrics.h"
#include "xml/dtd_parser.h"
#include "xml/xml_parser.h"

namespace perfbench {

using lsd::DataSource;
using lsd::LsdSystem;
using lsd::Status;
using lsd::StatusOr;

StatusOr<std::unique_ptr<LsdSystem>> BuildSystem(const ModelText& model,
                                                 const lsd::LsdConfig& config,
                                                 double* train_ms) {
  LSD_ASSIGN_OR_RETURN(lsd::Dtd mediated, lsd::ParseDtd(model.mediated_dtd));
  auto system = std::make_unique<LsdSystem>(mediated, config);
  // Training sources only need to outlive Train().
  std::vector<DataSource> sources(model.training.size());
  for (size_t i = 0; i < model.training.size(); ++i) {
    const SourceText& text = model.training[i];
    LSD_ASSIGN_OR_RETURN(sources[i], ParseSourceStrict(text));
    LSD_ASSIGN_OR_RETURN(lsd::Mapping gold, lsd::ParseMapping(text.gold));
    LSD_RETURN_IF_ERROR(system->AddTrainingSource(sources[i], gold));
  }
  if (!model.constraints.empty()) {
    LSD_ASSIGN_OR_RETURN(auto constraints,
                         lsd::ParseConstraints(model.constraints));
    for (auto& constraint : constraints) {
      system->AddConstraint(std::move(constraint));
    }
  }
  Clock::time_point start = Clock::now();
  LSD_RETURN_IF_ERROR(system->Train());
  if (train_ms != nullptr) *train_ms = MsSince(start);
  return system;
}

StatusOr<DataSource> ParseSourceStrict(const SourceText& text) {
  DataSource source;
  source.name = text.id;
  LSD_ASSIGN_OR_RETURN(source.schema, lsd::ParseDtd(text.dtd));
  LSD_ASSIGN_OR_RETURN(lsd::XmlDocument wrapper, lsd::ParseXml(text.xml));
  for (lsd::XmlNode& listing : wrapper.root.children) {
    source.listings.emplace_back(std::move(listing));
  }
  return source;
}

StatusOr<DataSource> ParseRequest(const SourceText& request) {
  DataSource source;
  source.name = request.id;
  LSD_ASSIGN_OR_RETURN(lsd::DtdParseReport dtd,
                       lsd::ParseDtdLenient(request.dtd));
  source.schema = std::move(dtd.dtd);
  LSD_ASSIGN_OR_RETURN(lsd::XmlParseReport xml,
                       lsd::ParseXmlLenient(request.xml));
  for (lsd::XmlNode& listing : xml.document.root.children) {
    source.listings.emplace_back(std::move(listing));
  }
  if (source.listings.empty()) {
    return Status::InvalidArgument(request.id + ": no listings");
  }
  return source;
}

std::string Fingerprint(const lsd::MatchResult& result) {
  std::string out = result.mapping.ToString();
  out += "--\n";
  for (size_t t = 0; t < result.tags.size(); ++t) {
    out += result.tags[t];
    for (double score : result.tag_predictions[t].scores) {
      out += lsd::StrFormat(" %.17g", score);
    }
    out += "\n";
  }
  return out;
}

StatusOr<double> AccuracyPct(const std::string& mapping_text,
                             const std::string& gold_text) {
  LSD_ASSIGN_OR_RETURN(lsd::Mapping mapping, lsd::ParseMapping(mapping_text));
  LSD_ASSIGN_OR_RETURN(lsd::Mapping gold, lsd::ParseMapping(gold_text));
  return 100.0 * lsd::MatchingAccuracy(mapping, gold);
}

uint64_t CounterDelta(const lsd::MetricsSnapshot& before,
                      const lsd::MetricsSnapshot& after,
                      const std::string& name) {
  return after.CounterOf(name) - before.CounterOf(name);
}

double HistogramDeltaMs(const lsd::MetricsSnapshot& before,
                        const lsd::MetricsSnapshot& after,
                        const std::string& name) {
  return static_cast<double>(after.HistogramSumOf(name) -
                             before.HistogramSumOf(name)) /
         1e3;
}

Status CheckCoversEveryTag(const DataSource& source,
                           const lsd::Mapping& mapping) {
  for (const std::string& tag : source.schema.AllTags()) {
    if (mapping.Find(tag) == nullptr) {
      return Status::Internal(source.name + ": mapping has no entry for tag " +
                              tag);
    }
  }
  return Status::OK();
}

}  // namespace perfbench
