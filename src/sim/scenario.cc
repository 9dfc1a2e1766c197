#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "sim/fault_injector.h"
#include "sim/sweep_runner.h"
#include "svc/allocator_registry.h"
#include "svc/manager.h"
#include "util/json.h"
#include "util/json_reader.h"

namespace svc::sim {
namespace {

using util::ErrorCode;
using util::JsonValue;
using util::JsonWriter;
using util::Status;

Status Err(const std::string& path, const std::string& what) {
  return Status(ErrorCode::kInvalidArgument, path + ": " + what);
}

// --- Token tables (scenario JSON spellings of the library enums) ---

bool ParseAbstractionToken(const std::string& token,
                           workload::Abstraction* out) {
  if (token == "svc") *out = workload::Abstraction::kSvc;
  else if (token == "mean_vc") *out = workload::Abstraction::kMeanVc;
  else if (token == "percentile_vc") *out = workload::Abstraction::kPercentileVc;
  else return false;
  return true;
}

bool ParseEnforcementToken(const std::string& token, Enforcement* out) {
  if (token == "hard_cap") *out = Enforcement::kHardCap;
  else if (token == "token_bucket") *out = Enforcement::kTokenBucket;
  else return false;
  return true;
}

bool ParseDistributionToken(const std::string& token,
                            workload::RateDistribution* out) {
  if (token == "normal") *out = workload::RateDistribution::kNormal;
  else if (token == "lognormal") *out = workload::RateDistribution::kLogNormal;
  else return false;
  return true;
}

const char* DistributionToken(workload::RateDistribution distribution) {
  return distribution == workload::RateDistribution::kLogNormal ? "lognormal"
                                                                : "normal";
}

bool ValidArrivalMode(const std::string& mode) {
  return mode == "batch" || mode == "poisson" || mode == "static" ||
         mode == "flash_crowd" || mode == "diurnal";
}

bool ValidSweepParameter(const std::string& parameter) {
  return parameter.empty() || parameter == "load" || parameter == "oversub" ||
         parameter == "rho" || parameter == "epsilon" ||
         parameter == "trunk" || parameter == "quantile" ||
         parameter == "mtbf";
}

bool ValidScriptedKind(const std::string& kind) {
  return kind == "machine" || kind == "link";
}

bool ValidCorrelatedKind(const std::string& kind) {
  return kind == "rack_power" || kind == "tor_loss" ||
         kind == "planned_drain";
}

// --- Checked JsonValue readers ---

bool ReadDouble(const JsonValue& v, double* out) {
  if (!v.is_number()) return false;
  *out = v.AsDouble();
  return true;
}

bool ReadInt(const JsonValue& v, int* out) {
  if (!v.is_number()) return false;
  const double d = v.AsDouble();
  if (d != std::floor(d) || std::abs(d) > 2147483647.0) return false;
  *out = static_cast<int>(d);
  return true;
}

bool ReadInt64(const JsonValue& v, int64_t* out) {
  if (!v.is_number()) return false;
  const double d = v.AsDouble();
  if (d != std::floor(d)) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

bool ReadUint64(const JsonValue& v, uint64_t* out) {
  if (!v.is_number()) return false;
  const double d = v.AsDouble();
  if (d != std::floor(d) || d < 0) return false;
  *out = static_cast<uint64_t>(d);
  return true;
}

bool ReadBool(const JsonValue& v, bool* out) {
  if (!v.is_bool()) return false;
  *out = v.AsBool();
  return true;
}

bool ReadString(const JsonValue& v, std::string* out) {
  if (!v.is_string()) return false;
  *out = v.AsString();
  return true;
}

bool ReadDoubleList(const JsonValue& v, std::vector<double>* out) {
  if (!v.is_array()) return false;
  out->clear();
  for (const JsonValue& item : v.items()) {
    if (!item.is_number()) return false;
    out->push_back(item.AsDouble());
  }
  return true;
}

// --- Section parsers (strict: unknown keys are errors) ---

Status ParseTopologySection(const JsonValue& v, const std::string& path,
                            topology::ThreeTierConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "racks") {
      if (!ReadInt(val, &out->racks)) return Err(path + ".racks", "expected integer");
    } else if (key == "machines_per_rack") {
      if (!ReadInt(val, &out->machines_per_rack)) return Err(path + ".machines_per_rack", "expected integer");
    } else if (key == "slots_per_machine") {
      if (!ReadInt(val, &out->slots_per_machine)) return Err(path + ".slots_per_machine", "expected integer");
    } else if (key == "racks_per_agg") {
      if (!ReadInt(val, &out->racks_per_agg)) return Err(path + ".racks_per_agg", "expected integer");
    } else if (key == "machine_link_mbps") {
      if (!ReadDouble(val, &out->machine_link_mbps)) return Err(path + ".machine_link_mbps", "expected number");
    } else if (key == "oversubscription") {
      if (!ReadDouble(val, &out->oversubscription)) return Err(path + ".oversubscription", "expected number");
    } else if (key == "tor_trunk") {
      if (!ReadInt(val, &out->tor_trunk)) return Err(path + ".tor_trunk", "expected integer");
    } else if (key == "agg_trunk") {
      if (!ReadInt(val, &out->agg_trunk)) return Err(path + ".agg_trunk", "expected integer");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseWorkloadSection(const JsonValue& v, const std::string& path,
                            workload::WorkloadConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "num_jobs") {
      if (!ReadInt(val, &out->num_jobs)) return Err(path + ".num_jobs", "expected integer");
    } else if (key == "mean_job_size") {
      if (!ReadDouble(val, &out->mean_job_size)) return Err(path + ".mean_job_size", "expected number");
    } else if (key == "min_job_size") {
      if (!ReadInt(val, &out->min_job_size)) return Err(path + ".min_job_size", "expected integer");
    } else if (key == "max_job_size") {
      if (!ReadInt(val, &out->max_job_size)) return Err(path + ".max_job_size", "expected integer");
    } else if (key == "compute_time_lo") {
      if (!ReadDouble(val, &out->compute_time_lo)) return Err(path + ".compute_time_lo", "expected number");
    } else if (key == "compute_time_hi") {
      if (!ReadDouble(val, &out->compute_time_hi)) return Err(path + ".compute_time_hi", "expected number");
    } else if (key == "rate_means") {
      if (!ReadDoubleList(val, &out->rate_means)) return Err(path + ".rate_means", "expected array of numbers");
    } else if (key == "deviation_lo") {
      if (!ReadDouble(val, &out->deviation_lo)) return Err(path + ".deviation_lo", "expected number");
    } else if (key == "deviation_hi") {
      if (!ReadDouble(val, &out->deviation_hi)) return Err(path + ".deviation_hi", "expected number");
    } else if (key == "fixed_deviation") {
      if (!ReadDouble(val, &out->fixed_deviation)) return Err(path + ".fixed_deviation", "expected number");
    } else if (key == "flow_time_lo") {
      if (!ReadDouble(val, &out->flow_time_lo)) return Err(path + ".flow_time_lo", "expected number");
    } else if (key == "flow_time_hi") {
      if (!ReadDouble(val, &out->flow_time_hi)) return Err(path + ".flow_time_hi", "expected number");
    } else if (key == "heterogeneous") {
      if (!ReadBool(val, &out->heterogeneous)) return Err(path + ".heterogeneous", "expected bool");
    } else if (key == "rate_distribution") {
      std::string token;
      if (!ReadString(val, &token) ||
          !ParseDistributionToken(token, &out->rate_distribution)) {
        return Err(path + ".rate_distribution", "expected \"normal\" or \"lognormal\"");
      }
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseArrivalsSection(const JsonValue& v, const std::string& path,
                            ArrivalConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "mode") {
      if (!ReadString(val, &out->mode)) return Err(path + ".mode", "expected string");
    } else if (key == "load") {
      if (!ReadDouble(val, &out->load)) return Err(path + ".load", "expected number");
    } else if (key == "burst_factor") {
      if (!ReadDouble(val, &out->burst_factor)) return Err(path + ".burst_factor", "expected number");
    } else if (key == "burst_start") {
      if (!ReadDouble(val, &out->burst_start)) return Err(path + ".burst_start", "expected number");
    } else if (key == "burst_length") {
      if (!ReadDouble(val, &out->burst_length)) return Err(path + ".burst_length", "expected number");
    } else if (key == "period_seconds") {
      if (!ReadDouble(val, &out->period_seconds)) return Err(path + ".period_seconds", "expected number");
    } else if (key == "amplitude") {
      if (!ReadDouble(val, &out->amplitude)) return Err(path + ".amplitude", "expected number");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseFixedJobsSection(const JsonValue& v, const std::string& path,
                             FixedJobConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "count") {
      if (!ReadInt(val, &out->count)) return Err(path + ".count", "expected integer");
    } else if (key == "size") {
      if (!ReadInt(val, &out->size)) return Err(path + ".size", "expected integer");
    } else if (key == "compute_time") {
      if (!ReadDouble(val, &out->compute_time)) return Err(path + ".compute_time", "expected number");
    } else if (key == "rate_mean") {
      if (!ReadDouble(val, &out->rate_mean)) return Err(path + ".rate_mean", "expected number");
    } else if (key == "rho") {
      if (!ReadDouble(val, &out->rho)) return Err(path + ".rho", "expected number");
    } else if (key == "flow_seconds") {
      if (!ReadDouble(val, &out->flow_seconds)) return Err(path + ".flow_seconds", "expected number");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseAdmissionSection(const JsonValue& v, const std::string& path,
                             AdmissionConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "abstraction") {
      if (!ReadString(val, &out->abstraction)) return Err(path + ".abstraction", "expected string");
    } else if (key == "allocator") {
      if (!ReadString(val, &out->allocator)) return Err(path + ".allocator", "expected string");
    } else if (key == "epsilon") {
      if (!ReadDouble(val, &out->epsilon)) return Err(path + ".epsilon", "expected number");
    } else if (key == "vc_quantile") {
      if (!ReadDouble(val, &out->vc_quantile)) return Err(path + ".vc_quantile", "expected number");
    } else if (key == "survivability") {
      if (!ReadBool(val, &out->survivability)) return Err(path + ".survivability", "expected bool");
    } else if (key == "workers") {
      if (!ReadInt(val, &out->workers)) return Err(path + ".workers", "expected integer");
    } else if (key == "shards") {
      if (!ReadInt(val, &out->shards)) return Err(path + ".shards", "expected integer");
    } else if (key == "window") {
      if (!ReadInt(val, &out->window)) return Err(path + ".window", "expected integer");
    } else if (key == "lookahead") {
      if (!ReadInt(val, &out->lookahead)) return Err(path + ".lookahead", "expected integer");
    } else if (key == "placement") {
      if (!ReadString(val, &out->placement)) return Err(path + ".placement", "expected string");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseEnforcementSection(const JsonValue& v, const std::string& path,
                               EnforcementConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "mode") {
      if (!ReadString(val, &out->mode)) return Err(path + ".mode", "expected string");
    } else if (key == "burst_seconds") {
      if (!ReadDouble(val, &out->burst_seconds)) return Err(path + ".burst_seconds", "expected number");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseScriptedEvent(const JsonValue& v, const std::string& path,
                          ScriptedEventConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "time") {
      if (!ReadDouble(val, &out->time)) return Err(path + ".time", "expected number");
    } else if (key == "vertex") {
      if (!ReadInt64(val, &out->vertex)) return Err(path + ".vertex", "expected integer");
    } else if (key == "kind") {
      if (!ReadString(val, &out->kind)) return Err(path + ".kind", "expected string");
    } else if (key == "fail") {
      if (!ReadBool(val, &out->fail)) return Err(path + ".fail", "expected bool");
    } else if (key == "drain") {
      if (!ReadBool(val, &out->drain)) return Err(path + ".drain", "expected bool");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseCorrelatedEvent(const JsonValue& v, const std::string& path,
                            CorrelatedEventConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "kind") {
      if (!ReadString(val, &out->kind)) return Err(path + ".kind", "expected string");
    } else if (key == "index") {
      if (!ReadInt(val, &out->index)) return Err(path + ".index", "expected integer");
    } else if (key == "time_frac") {
      if (!ReadDouble(val, &out->time_frac)) return Err(path + ".time_frac", "expected number");
    } else if (key == "outage_seconds") {
      if (!ReadDouble(val, &out->outage_seconds)) return Err(path + ".outage_seconds", "expected number");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseFaultsSection(const JsonValue& v, const std::string& path,
                          ScenarioFaultConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "machine_mtbf_seconds") {
      if (!ReadDouble(val, &out->machine_mtbf_seconds)) return Err(path + ".machine_mtbf_seconds", "expected number");
    } else if (key == "link_mtbf_seconds") {
      if (!ReadDouble(val, &out->link_mtbf_seconds)) return Err(path + ".link_mtbf_seconds", "expected number");
    } else if (key == "link_mtbf_factor") {
      if (!ReadDouble(val, &out->link_mtbf_factor)) return Err(path + ".link_mtbf_factor", "expected number");
    } else if (key == "mttr_seconds") {
      if (!ReadDouble(val, &out->mttr_seconds)) return Err(path + ".mttr_seconds", "expected number");
    } else if (key == "horizon_seconds") {
      if (!ReadDouble(val, &out->horizon_seconds)) return Err(path + ".horizon_seconds", "expected number");
    } else if (key == "seed") {
      if (!ReadUint64(val, &out->seed)) return Err(path + ".seed", "expected non-negative integer");
    } else if (key == "policy") {
      if (!ReadString(val, &out->policy)) return Err(path + ".policy", "expected string");
    } else if (key == "scripted") {
      if (!val.is_array()) return Err(path + ".scripted", "expected array");
      out->scripted.clear();
      for (size_t i = 0; i < val.items().size(); ++i) {
        ScriptedEventConfig event;
        Status status = ParseScriptedEvent(
            val.items()[i], path + ".scripted[" + std::to_string(i) + "]",
            &event);
        if (!status.ok()) return status;
        out->scripted.push_back(event);
      }
    } else if (key == "correlated") {
      if (!val.is_array()) return Err(path + ".correlated", "expected array");
      out->correlated.clear();
      for (size_t i = 0; i < val.items().size(); ++i) {
        CorrelatedEventConfig event;
        Status status = ParseCorrelatedEvent(
            val.items()[i], path + ".correlated[" + std::to_string(i) + "]",
            &event);
        if (!status.ok()) return status;
        out->correlated.push_back(event);
      }
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseSweepSection(const JsonValue& v, const std::string& path,
                         SweepConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "parameter") {
      if (!ReadString(val, &out->parameter)) return Err(path + ".parameter", "expected string");
    } else if (key == "values") {
      if (!ReadDoubleList(val, &out->values)) return Err(path + ".values", "expected array of numbers");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

Status ParseVariant(const JsonValue& v, const std::string& path,
                    VariantConfig* out) {
  if (!v.is_object()) return Err(path, "expected object");
  for (const auto& [key, val] : v.members()) {
    if (key == "label") {
      if (!ReadString(val, &out->label)) return Err(path + ".label", "expected string");
    } else if (key == "abstraction") {
      if (!ReadString(val, &out->abstraction)) return Err(path + ".abstraction", "expected string");
    } else if (key == "allocator") {
      if (!ReadString(val, &out->allocator)) return Err(path + ".allocator", "expected string");
    } else if (key == "epsilon") {
      if (!ReadDouble(val, &out->epsilon)) return Err(path + ".epsilon", "expected number");
    } else if (key == "vc_quantile") {
      if (!ReadDouble(val, &out->vc_quantile)) return Err(path + ".vc_quantile", "expected number");
    } else if (key == "enforcement") {
      if (!ReadString(val, &out->enforcement)) return Err(path + ".enforcement", "expected string");
    } else if (key == "rate_distribution") {
      if (!ReadString(val, &out->rate_distribution)) return Err(path + ".rate_distribution", "expected string");
    } else if (key == "policy") {
      if (!ReadString(val, &out->policy)) return Err(path + ".policy", "expected string");
    } else if (key == "survivable") {
      if (!ReadInt(val, &out->survivable)) return Err(path + ".survivable", "expected integer (-1 / 0 / 1)");
    } else if (key == "once") {
      if (!ReadBool(val, &out->once)) return Err(path + ".once", "expected bool");
    } else {
      return Err(path, "unknown key '" + key + "'");
    }
  }
  return Status::Ok();
}

}  // namespace

util::Result<Scenario> ParseScenario(const std::string& text) {
  util::Result<JsonValue> doc = util::ParseJson(text);
  if (!doc) return doc.status();
  const JsonValue& root = *doc;
  if (!root.is_object()) {
    return Err("scenario", "expected a JSON object at the top level");
  }
  Scenario s;
  for (const auto& [key, val] : root.members()) {
    Status status = Status::Ok();
    if (key == "name") {
      if (!ReadString(val, &s.name)) status = Err("scenario.name", "expected string");
    } else if (key == "description") {
      if (!ReadString(val, &s.description)) status = Err("scenario.description", "expected string");
    } else if (key == "seed") {
      if (!ReadUint64(val, &s.seed)) status = Err("scenario.seed", "expected non-negative integer");
    } else if (key == "max_seconds") {
      if (!ReadDouble(val, &s.max_seconds)) status = Err("scenario.max_seconds", "expected number");
    } else if (key == "topology") {
      status = ParseTopologySection(val, "scenario.topology", &s.topology);
    } else if (key == "workload") {
      status = ParseWorkloadSection(val, "scenario.workload", &s.workload);
    } else if (key == "arrivals") {
      status = ParseArrivalsSection(val, "scenario.arrivals", &s.arrivals);
    } else if (key == "fixed_jobs") {
      status = ParseFixedJobsSection(val, "scenario.fixed_jobs", &s.fixed_jobs);
    } else if (key == "admission") {
      status = ParseAdmissionSection(val, "scenario.admission", &s.admission);
    } else if (key == "enforcement") {
      status = ParseEnforcementSection(val, "scenario.enforcement", &s.enforcement);
    } else if (key == "faults") {
      status = ParseFaultsSection(val, "scenario.faults", &s.faults);
    } else if (key == "sweep") {
      status = ParseSweepSection(val, "scenario.sweep", &s.sweep);
    } else if (key == "variants") {
      if (!val.is_array()) {
        status = Err("scenario.variants", "expected array");
      } else {
        for (size_t i = 0; i < val.items().size(); ++i) {
          VariantConfig variant;
          status = ParseVariant(
              val.items()[i], "scenario.variants[" + std::to_string(i) + "]",
              &variant);
          if (!status.ok()) break;
          s.variants.push_back(std::move(variant));
        }
      }
    } else {
      status = Err("scenario", "unknown key '" + key + "'");
    }
    if (!status.ok()) return status;
  }
  Status status = ValidateScenario(s);
  if (!status.ok()) return status;
  return s;
}

std::string SerializeScenario(const Scenario& s) {
  JsonWriter w;
  w.BeginObject();
  w.Member("name", s.name);
  w.Member("description", s.description);
  w.Member("seed", s.seed);
  w.Member("max_seconds", s.max_seconds);

  w.Key("topology");
  w.BeginObject();
  w.Member("racks", s.topology.racks);
  w.Member("machines_per_rack", s.topology.machines_per_rack);
  w.Member("slots_per_machine", s.topology.slots_per_machine);
  w.Member("racks_per_agg", s.topology.racks_per_agg);
  w.Member("machine_link_mbps", s.topology.machine_link_mbps);
  w.Member("oversubscription", s.topology.oversubscription);
  w.Member("tor_trunk", s.topology.tor_trunk);
  w.Member("agg_trunk", s.topology.agg_trunk);
  w.EndObject();

  w.Key("workload");
  w.BeginObject();
  w.Member("num_jobs", s.workload.num_jobs);
  w.Member("mean_job_size", s.workload.mean_job_size);
  w.Member("min_job_size", s.workload.min_job_size);
  w.Member("max_job_size", s.workload.max_job_size);
  w.Member("compute_time_lo", s.workload.compute_time_lo);
  w.Member("compute_time_hi", s.workload.compute_time_hi);
  w.Key("rate_means");
  w.BeginArray();
  for (double rate : s.workload.rate_means) w.Value(rate);
  w.EndArray();
  w.Member("deviation_lo", s.workload.deviation_lo);
  w.Member("deviation_hi", s.workload.deviation_hi);
  w.Member("fixed_deviation", s.workload.fixed_deviation);
  w.Member("flow_time_lo", s.workload.flow_time_lo);
  w.Member("flow_time_hi", s.workload.flow_time_hi);
  w.Member("heterogeneous", s.workload.heterogeneous);
  w.Member("rate_distribution",
           DistributionToken(s.workload.rate_distribution));
  w.EndObject();

  w.Key("arrivals");
  w.BeginObject();
  w.Member("mode", s.arrivals.mode);
  w.Member("load", s.arrivals.load);
  w.Member("burst_factor", s.arrivals.burst_factor);
  w.Member("burst_start", s.arrivals.burst_start);
  w.Member("burst_length", s.arrivals.burst_length);
  w.Member("period_seconds", s.arrivals.period_seconds);
  w.Member("amplitude", s.arrivals.amplitude);
  w.EndObject();

  w.Key("fixed_jobs");
  w.BeginObject();
  w.Member("count", s.fixed_jobs.count);
  w.Member("size", s.fixed_jobs.size);
  w.Member("compute_time", s.fixed_jobs.compute_time);
  w.Member("rate_mean", s.fixed_jobs.rate_mean);
  w.Member("rho", s.fixed_jobs.rho);
  w.Member("flow_seconds", s.fixed_jobs.flow_seconds);
  w.EndObject();

  w.Key("admission");
  w.BeginObject();
  w.Member("abstraction", s.admission.abstraction);
  w.Member("allocator", s.admission.allocator);
  w.Member("epsilon", s.admission.epsilon);
  w.Member("vc_quantile", s.admission.vc_quantile);
  w.Member("survivability", s.admission.survivability);
  w.Member("workers", s.admission.workers);
  w.Member("shards", s.admission.shards);
  w.Member("window", s.admission.window);
  w.Member("lookahead", s.admission.lookahead);
  w.Member("placement", s.admission.placement);
  w.EndObject();

  w.Key("enforcement");
  w.BeginObject();
  w.Member("mode", s.enforcement.mode);
  w.Member("burst_seconds", s.enforcement.burst_seconds);
  w.EndObject();

  w.Key("faults");
  w.BeginObject();
  w.Member("machine_mtbf_seconds", s.faults.machine_mtbf_seconds);
  w.Member("link_mtbf_seconds", s.faults.link_mtbf_seconds);
  w.Member("link_mtbf_factor", s.faults.link_mtbf_factor);
  w.Member("mttr_seconds", s.faults.mttr_seconds);
  w.Member("horizon_seconds", s.faults.horizon_seconds);
  w.Member("seed", s.faults.seed);
  w.Member("policy", s.faults.policy);
  w.Key("scripted");
  w.BeginArray();
  for (const ScriptedEventConfig& event : s.faults.scripted) {
    w.BeginObject();
    w.Member("time", event.time);
    w.Member("vertex", event.vertex);
    w.Member("kind", event.kind);
    w.Member("fail", event.fail);
    w.Member("drain", event.drain);
    w.EndObject();
  }
  w.EndArray();
  w.Key("correlated");
  w.BeginArray();
  for (const CorrelatedEventConfig& event : s.faults.correlated) {
    w.BeginObject();
    w.Member("kind", event.kind);
    w.Member("index", event.index);
    w.Member("time_frac", event.time_frac);
    w.Member("outage_seconds", event.outage_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("sweep");
  w.BeginObject();
  w.Member("parameter", s.sweep.parameter);
  w.Key("values");
  w.BeginArray();
  for (double value : s.sweep.values) w.Value(value);
  w.EndArray();
  w.EndObject();

  w.Key("variants");
  w.BeginArray();
  for (const VariantConfig& variant : s.variants) {
    w.BeginObject();
    w.Member("label", variant.label);
    w.Member("abstraction", variant.abstraction);
    w.Member("allocator", variant.allocator);
    w.Member("epsilon", variant.epsilon);
    w.Member("vc_quantile", variant.vc_quantile);
    w.Member("enforcement", variant.enforcement);
    w.Member("rate_distribution", variant.rate_distribution);
    w.Member("policy", variant.policy);
    w.Member("survivable", variant.survivable);
    w.Member("once", variant.once);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.str() + "\n";
}

std::string ScenarioConfigHash(const Scenario& scenario) {
  const std::string text = SerializeScenario(scenario);
  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a 64 prime
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

namespace {

// Resolved per-variant admission knobs (inheritance applied).
struct ResolvedVariant {
  workload::Abstraction abstraction = workload::Abstraction::kSvc;
  std::string allocator;
  Enforcement enforcement = Enforcement::kHardCap;
  core::RecoveryPolicy policy = core::RecoveryPolicy::kReallocate;
  bool survivable = false;
};

// The allocator name a variant resolves to: explicit wins, otherwise the
// abstraction's default (the paper's Algorithm 1 for SVC, Oktopus for the
// deterministic VCs) — the AllocatorFor() rule the benches used.
std::string DefaultAllocatorName(workload::Abstraction abstraction) {
  return abstraction == workload::Abstraction::kSvc ? "svc-dp" : "oktopus";
}

Status ResolveVariant(const Scenario& s, const VariantConfig& v,
                      ResolvedVariant* out) {
  const std::string abstraction_token =
      v.abstraction.empty() ? s.admission.abstraction : v.abstraction;
  if (!ParseAbstractionToken(abstraction_token, &out->abstraction)) {
    return Err("variant '" + v.label + "'",
               "unknown abstraction '" + abstraction_token + "'");
  }
  out->allocator = !v.allocator.empty() ? v.allocator
                   : !s.admission.allocator.empty()
                       ? s.admission.allocator
                       : DefaultAllocatorName(out->abstraction);
  const std::string enforcement_token =
      v.enforcement.empty() ? s.enforcement.mode : v.enforcement;
  if (!ParseEnforcementToken(enforcement_token, &out->enforcement)) {
    return Err("variant '" + v.label + "'",
               "unknown enforcement '" + enforcement_token + "'");
  }
  const std::string policy_token = v.policy.empty() ? s.faults.policy : v.policy;
  if (!core::ParseRecoveryPolicy(policy_token, &out->policy)) {
    return Err("variant '" + v.label + "'",
               "unknown recovery policy '" + policy_token + "'");
  }
  out->survivable =
      v.survivable >= 0 ? v.survivable != 0 : s.admission.survivability;
  return Status::Ok();
}

// The variant list the grid actually runs: the scenario's, or one default
// column inheriting everything when none are declared.
std::vector<VariantConfig> EffectiveVariants(const Scenario& s) {
  if (!s.variants.empty()) return s.variants;
  VariantConfig variant;
  variant.label = "default";
  return {variant};
}

// The n-th ToR (level-1 vertex), clamped into range; kNoVertex on an
// empty fabric.
topology::VertexId TorAt(const topology::Topology& topo, int index) {
  const auto& tors = topo.vertices_at_level(1);
  if (tors.empty()) return topology::kNoVertex;
  const size_t i = std::min<size_t>(std::max(index, 0), tors.size() - 1);
  return tors[i];
}

topology::VertexId MachineAt(const topology::Topology& topo, int index) {
  const auto& machines = topo.machines();
  if (machines.empty()) return topology::kNoVertex;
  const size_t i = std::min<size_t>(std::max(index, 0), machines.size() - 1);
  return machines[i];
}

// Deterministic probe pass for scripted `vertex: -1` events: the first
// machine hosting a VM of the first admissible job.  Admissions are
// deterministic, so the engine reproduces these placements.
topology::VertexId AutoTarget(const topology::Topology& topo,
                              const std::vector<workload::JobSpec>& jobs,
                              workload::Abstraction abstraction,
                              double vc_quantile, double epsilon,
                              bool survivability,
                              const core::Allocator& allocator) {
  core::NetworkManager probe(topo, epsilon);
  core::AdmissionOptions options;
  options.survivability = survivability;
  probe.set_admission_options(options);
  for (const workload::JobSpec& job : jobs) {
    auto placed = probe.Admit(
        workload::MakeRequest(job, abstraction, vc_quantile), allocator);
    if (placed) return placed->vm_machine[0];
  }
  return topology::kNoVertex;
}

struct CellSpec {
  VariantConfig variant;
  int axis_index = -1;
  double axis_value = 0;
};

// Axis-major over the non-`once` variants (declaration order inside an
// axis point), then the `once` variants — matching the legacy benches'
// submission order, which keeps decision-provenance streams identical.
std::vector<CellSpec> EnumerateCells(const Scenario& s) {
  const std::vector<VariantConfig> variants = EffectiveVariants(s);
  std::vector<CellSpec> cells;
  if (!s.sweep.parameter.empty()) {
    for (size_t i = 0; i < s.sweep.values.size(); ++i) {
      for (const VariantConfig& variant : variants) {
        if (variant.once) continue;
        cells.push_back({variant, static_cast<int>(i), s.sweep.values[i]});
      }
    }
  }
  for (const VariantConfig& variant : variants) {
    if (s.sweep.parameter.empty() || variant.once) {
      cells.push_back({variant, -1, 0});
    }
  }
  return cells;
}

std::vector<workload::JobSpec> BuildFixedJobs(const FixedJobConfig& config) {
  std::vector<workload::JobSpec> jobs;
  for (int i = 0; i < config.count; ++i) {
    workload::JobSpec job;
    job.id = i + 1;
    job.size = config.size;
    job.compute_time = config.compute_time;
    job.rate_mean = config.rate_mean;
    job.rate_stddev = config.rho * config.rate_mean;
    job.flow_mbits = config.rate_mean * config.flow_seconds;
    job.arrival_time = 0;
    jobs.push_back(job);
  }
  return jobs;
}

// The fully resolved fault plane of one cell.
FaultConfig BuildCellFaults(const Scenario& s, const CellSpec& spec,
                            const ResolvedVariant& resolved,
                            const topology::Topology& topo,
                            double vc_quantile, double epsilon,
                            const std::vector<workload::JobSpec>& jobs,
                            const core::Allocator& allocator) {
  const ScenarioFaultConfig& sf = s.faults;
  FaultConfig f;
  f.machine_mtbf_seconds = sf.machine_mtbf_seconds;
  if (s.sweep.parameter == "mtbf" && spec.axis_index >= 0) {
    f.machine_mtbf_seconds = spec.axis_value;
  }
  f.link_mtbf_seconds = sf.link_mtbf_factor > 0
                            ? sf.link_mtbf_factor * f.machine_mtbf_seconds
                            : sf.link_mtbf_seconds;
  f.mttr_seconds = sf.mttr_seconds;
  f.horizon_seconds = sf.horizon_seconds;
  f.seed = sf.seed;
  f.policy = resolved.policy;
  // Scripted one-shots; vertex -1 resolves to the probe target (if no job
  // is admissible on an empty fabric — which validation rejects for the
  // base config — the unresolvable event is dropped).
  const bool needs_target = std::any_of(
      sf.scripted.begin(), sf.scripted.end(),
      [](const ScriptedEventConfig& e) { return e.vertex < 0; });
  topology::VertexId target = topology::kNoVertex;
  if (needs_target) {
    target = AutoTarget(topo, jobs, resolved.abstraction, vc_quantile,
                        epsilon, resolved.survivable, allocator);
  }
  for (const ScriptedEventConfig& e : sf.scripted) {
    topology::VertexId vertex =
        e.vertex < 0 ? target : static_cast<topology::VertexId>(e.vertex);
    if (vertex == topology::kNoVertex) continue;
    FaultEvent event;
    event.time = e.time;
    event.vertex = vertex;
    event.kind =
        e.kind == "link" ? core::FaultKind::kLink : core::FaultKind::kMachine;
    event.fail = e.fail;
    event.drain = e.drain;
    f.scripted.push_back(event);
  }
  for (const CorrelatedEventConfig& c : sf.correlated) {
    const double time = c.time_frac * f.horizon_seconds;
    const double outage =
        c.outage_seconds < 0 ? f.mttr_seconds : c.outage_seconds;
    if (c.kind == "rack_power") {
      const topology::VertexId rack = TorAt(topo, c.index);
      if (rack != topology::kNoVertex) {
        AppendRackPowerEvent(topo, rack, time, outage, &f.scripted);
      }
    } else if (c.kind == "tor_loss") {
      const topology::VertexId rack = TorAt(topo, c.index);
      if (rack != topology::kNoVertex) {
        AppendTorLossEvent(rack, time, outage, &f.scripted);
      }
    } else {
      const topology::VertexId machine = MachineAt(topo, c.index);
      if (machine != topology::kNoVertex) {
        AppendPlannedDrain(machine, time, outage, &f.scripted);
      }
    }
  }
  return f;
}

// Runs one grid cell: rebuilds topology, workload, and engine from the
// scenario's fixed seeds (bit-identical to the bespoke benches).
ScenarioCell RunCell(const Scenario& s, const CellSpec& spec,
                     const ResolvedVariant& resolved,
                     const core::Allocator& allocator,
                     const ScenarioRunOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::string& axis = s.sweep.parameter;
  const bool on_axis = spec.axis_index >= 0;

  topology::ThreeTierConfig tconfig = s.topology;
  if (on_axis && axis == "oversub") tconfig.oversubscription = spec.axis_value;
  if (on_axis && axis == "trunk") {
    tconfig.tor_trunk = static_cast<int>(spec.axis_value);
    tconfig.agg_trunk = static_cast<int>(spec.axis_value);
  }
  const topology::Topology topo = topology::BuildThreeTier(tconfig);

  workload::WorkloadConfig wconfig = s.workload;
  if (on_axis && axis == "rho") wconfig.fixed_deviation = spec.axis_value;
  if (!spec.variant.rate_distribution.empty()) {
    ParseDistributionToken(spec.variant.rate_distribution,
                           &wconfig.rate_distribution);
  }

  double load = s.arrivals.load;
  if (on_axis && axis == "load") load = spec.axis_value;

  double epsilon = s.admission.epsilon;
  if (on_axis && axis == "epsilon") epsilon = spec.axis_value;
  if (spec.variant.epsilon >= 0) epsilon = spec.variant.epsilon;

  double vc_quantile = s.admission.vc_quantile;
  if (on_axis && axis == "quantile") vc_quantile = spec.axis_value;
  if (spec.variant.vc_quantile >= 0) vc_quantile = spec.variant.vc_quantile;

  const bool online = s.arrivals.mode != "batch";
  std::vector<workload::JobSpec> jobs;
  if (s.fixed_jobs.count > 0) {
    jobs = BuildFixedJobs(s.fixed_jobs);
  } else {
    workload::WorkloadGenerator gen(wconfig, s.seed);
    jobs = online ? gen.GenerateOnline(load, topo.total_slots())
                  : gen.GenerateBatch();
    ArrivalConfig arrivals = s.arrivals;
    arrivals.load = load;
    ShapeArrivals(arrivals, &jobs);
  }

  SimConfig config;
  config.abstraction = resolved.abstraction;
  config.allocator = &allocator;
  config.epsilon = epsilon;
  config.vc_quantile = vc_quantile;
  config.seed = s.seed + 1;
  config.max_seconds = s.max_seconds;
  config.admission.survivability = resolved.survivable;
  config.admission_workers = s.admission.workers;
  config.admission_shards = s.admission.shards;
  config.admission_window = s.admission.window;
  config.admission_lookahead = s.admission.lookahead;
  util::ParsePlacementPolicy(s.admission.placement, &config.placement);
  config.sample_occupancy = online;
  config.enforcement = resolved.enforcement;
  config.burst_seconds = s.enforcement.burst_seconds;
  config.series = options.series;
  config.series_period = options.series_period;
  config.faults = BuildCellFaults(s, spec, resolved, topo, vc_quantile,
                                  epsilon, jobs, allocator);

  ScenarioCell cell;
  cell.label = spec.variant.label;
  cell.axis_index = spec.axis_index;
  cell.axis_value = spec.axis_value;
  cell.online = online;
  Engine engine(topo, config);
  if (online) {
    cell.online_result = engine.RunOnline(std::move(jobs));
  } else {
    cell.batch = engine.RunBatch(jobs);
  }
  cell.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return cell;
}

}  // namespace

void ShapeArrivals(const ArrivalConfig& arrivals,
                   std::vector<workload::JobSpec>* jobs) {
  if (jobs->empty()) return;
  if (arrivals.mode == "flash_crowd") {
    // Piecewise-linear time warp: arrivals inside the window
    // [burst_start, burst_start + burst_length) (fractions of the original
    // arrival span) are compressed by burst_factor; the tail shifts left
    // to keep the map continuous.  Order-, count-, and payload-preserving.
    const double span = jobs->back().arrival_time;
    if (span <= 0 || arrivals.burst_factor <= 1) return;
    const double b0 = arrivals.burst_start * span;
    const double b1 = (arrivals.burst_start + arrivals.burst_length) * span;
    const double k = arrivals.burst_factor;
    for (workload::JobSpec& job : *jobs) {
      const double t = job.arrival_time;
      if (t <= b0) continue;
      if (t < b1) {
        job.arrival_time = b0 + (t - b0) / k;
      } else {
        job.arrival_time = t - (b1 - b0) * (1 - 1 / k);
      }
    }
  } else if (arrivals.mode == "diurnal") {
    // Inverse-CDF warp onto lambda(t) = lambda * (1 + a*sin(2*pi*t/P)):
    // solve Lambda(t) = s with Lambda(t) = t + (a*P/2pi)*(1 - cos(2pi*t/P))
    // by bisection (Lambda is strictly increasing for a < 1).
    const double a = arrivals.amplitude;
    const double period = arrivals.period_seconds;
    if (a <= 0 || a >= 1 || period <= 0) return;
    const double c = a * period / (2 * M_PI);
    auto cumulative = [&](double t) {
      return t + c * (1 - std::cos(2 * M_PI * t / period));
    };
    for (workload::JobSpec& job : *jobs) {
      const double s = job.arrival_time;
      double lo = std::max(0.0, s - 2 * c);
      double hi = s;
      for (int iteration = 0; iteration < 64; ++iteration) {
        const double mid = 0.5 * (lo + hi);
        if (cumulative(mid) < s) lo = mid;
        else hi = mid;
      }
      job.arrival_time = 0.5 * (lo + hi);
    }
  }
  // batch / poisson / static: arrivals are used as generated.
}

util::Status ValidateScenario(const Scenario& s) {
  if (s.name.empty()) return Err("scenario.name", "must be non-empty");
  if (s.max_seconds <= 0) return Err("scenario.max_seconds", "must be > 0");

  const topology::ThreeTierConfig& t = s.topology;
  if (t.racks <= 0) return Err("scenario.topology.racks", "must be > 0");
  if (t.machines_per_rack <= 0) return Err("scenario.topology.machines_per_rack", "must be > 0");
  if (t.slots_per_machine <= 0) return Err("scenario.topology.slots_per_machine", "must be > 0");
  if (t.racks_per_agg <= 0) return Err("scenario.topology.racks_per_agg", "must be > 0");
  if (t.racks % t.racks_per_agg != 0) {
    return Err("scenario.topology.racks_per_agg",
               "must divide racks (" + std::to_string(t.racks) + ")");
  }
  if (t.machine_link_mbps <= 0) return Err("scenario.topology.machine_link_mbps", "must be > 0");
  if (t.oversubscription <= 0) return Err("scenario.topology.oversubscription", "must be > 0");
  if (t.tor_trunk < 1 || t.agg_trunk < 1) {
    return Err("scenario.topology", "trunk widths must be >= 1");
  }

  const workload::WorkloadConfig& wl = s.workload;
  if (wl.num_jobs < 0) return Err("scenario.workload.num_jobs", "must be >= 0");
  if (wl.mean_job_size <= 0) return Err("scenario.workload.mean_job_size", "must be > 0");
  if (wl.min_job_size < 1) return Err("scenario.workload.min_job_size", "must be >= 1");
  if (wl.max_job_size < wl.min_job_size) {
    return Err("scenario.workload.max_job_size", "must be >= min_job_size");
  }
  if (wl.rate_means.empty()) return Err("scenario.workload.rate_means", "must be non-empty");
  for (double rate : wl.rate_means) {
    if (rate <= 0) return Err("scenario.workload.rate_means", "entries must be > 0");
  }
  if (wl.compute_time_lo <= 0 || wl.compute_time_hi < wl.compute_time_lo) {
    return Err("scenario.workload", "compute_time_lo/hi must satisfy 0 < lo <= hi");
  }
  if (wl.flow_time_lo <= 0 || wl.flow_time_hi < wl.flow_time_lo) {
    return Err("scenario.workload", "flow_time_lo/hi must satisfy 0 < lo <= hi");
  }

  if (!ValidArrivalMode(s.arrivals.mode)) {
    return Err("scenario.arrivals.mode",
               "must be batch | poisson | static | flash_crowd | diurnal");
  }
  if (s.arrivals.mode != "batch" && s.arrivals.load <= 0) {
    return Err("scenario.arrivals.load", "must be > 0 for online modes");
  }
  if (s.arrivals.mode == "flash_crowd") {
    if (s.arrivals.burst_factor < 1) {
      return Err("scenario.arrivals.burst_factor", "must be >= 1");
    }
    if (s.arrivals.burst_start < 0 || s.arrivals.burst_length < 0 ||
        s.arrivals.burst_start + s.arrivals.burst_length > 1) {
      return Err("scenario.arrivals",
                 "burst window must fit in [0, 1] fractions of the span");
    }
  }
  if (s.arrivals.mode == "diurnal") {
    if (s.arrivals.amplitude < 0 || s.arrivals.amplitude >= 1) {
      return Err("scenario.arrivals.amplitude", "must be in [0, 1)");
    }
    if (s.arrivals.period_seconds <= 0) {
      return Err("scenario.arrivals.period_seconds", "must be > 0");
    }
  }
  if (s.arrivals.mode == "static" && s.fixed_jobs.count <= 0) {
    return Err("scenario.arrivals.mode",
               "static arrivals require fixed_jobs.count > 0");
  }

  const FixedJobConfig& fj = s.fixed_jobs;
  if (fj.count < 0) return Err("scenario.fixed_jobs.count", "must be >= 0");
  if (fj.count > 0) {
    if (fj.size < 2) return Err("scenario.fixed_jobs.size", "must be >= 2");
    if (fj.compute_time <= 0) return Err("scenario.fixed_jobs.compute_time", "must be > 0");
    if (fj.rate_mean <= 0) return Err("scenario.fixed_jobs.rate_mean", "must be > 0");
    if (fj.rho < 0) return Err("scenario.fixed_jobs.rho", "must be >= 0");
    if (fj.flow_seconds <= 0) return Err("scenario.fixed_jobs.flow_seconds", "must be > 0");
  }

  const AdmissionConfig& adm = s.admission;
  workload::Abstraction abstraction;
  if (!ParseAbstractionToken(adm.abstraction, &abstraction)) {
    return Err("scenario.admission.abstraction",
               "must be svc | mean_vc | percentile_vc");
  }
  if (!adm.allocator.empty() &&
      core::MakeAllocatorByName(adm.allocator) == nullptr) {
    return Err("scenario.admission.allocator",
               "unknown allocator '" + adm.allocator + "' (known: " +
                   core::KnownAllocatorNamesText() + ")");
  }
  if (adm.epsilon <= 0 || adm.epsilon >= 1) {
    return Err("scenario.admission.epsilon", "must be in (0, 1)");
  }
  if (adm.vc_quantile <= 0 || adm.vc_quantile >= 1) {
    return Err("scenario.admission.vc_quantile", "must be in (0, 1)");
  }
  if (adm.workers < 0) return Err("scenario.admission.workers", "must be >= 0");
  if (adm.shards < 0) return Err("scenario.admission.shards", "must be >= 0");
  if (adm.window < 1) return Err("scenario.admission.window", "must be >= 1");
  if (adm.lookahead < 1) return Err("scenario.admission.lookahead", "must be >= 1");
  util::PlacementPolicy placement;
  if (!util::ParsePlacementPolicy(adm.placement, &placement)) {
    return Err("scenario.admission.placement",
               "must be none | compact | scatter | shard_node");
  }

  Enforcement enforcement;
  if (!ParseEnforcementToken(s.enforcement.mode, &enforcement)) {
    return Err("scenario.enforcement.mode", "must be hard_cap | token_bucket");
  }
  if (s.enforcement.burst_seconds <= 0) {
    return Err("scenario.enforcement.burst_seconds", "must be > 0");
  }

  const ScenarioFaultConfig& f = s.faults;
  if (f.machine_mtbf_seconds < 0 || f.link_mtbf_seconds < 0 ||
      f.link_mtbf_factor < 0 || f.mttr_seconds < 0 || f.horizon_seconds < 0) {
    return Err("scenario.faults", "rates and horizons must be >= 0");
  }
  core::RecoveryPolicy policy;
  if (!core::ParseRecoveryPolicy(f.policy, &policy)) {
    return Err("scenario.faults.policy",
               "must be reallocate | patch | evict | switchover");
  }
  for (size_t i = 0; i < f.scripted.size(); ++i) {
    if (!ValidScriptedKind(f.scripted[i].kind)) {
      return Err("scenario.faults.scripted[" + std::to_string(i) + "].kind",
                 "must be machine | link");
    }
    if (f.scripted[i].time < 0) {
      return Err("scenario.faults.scripted[" + std::to_string(i) + "].time",
                 "must be >= 0");
    }
  }
  for (size_t i = 0; i < f.correlated.size(); ++i) {
    const CorrelatedEventConfig& c = f.correlated[i];
    if (!ValidCorrelatedKind(c.kind)) {
      return Err("scenario.faults.correlated[" + std::to_string(i) + "].kind",
                 "must be rack_power | tor_loss | planned_drain");
    }
    if (c.index < 0) {
      return Err("scenario.faults.correlated[" + std::to_string(i) + "].index",
                 "must be >= 0");
    }
    if (c.time_frac < 0 || c.time_frac > 1) {
      return Err("scenario.faults.correlated[" + std::to_string(i) +
                     "].time_frac",
                 "must be in [0, 1]");
    }
  }

  if (!ValidSweepParameter(s.sweep.parameter)) {
    return Err("scenario.sweep.parameter",
               "must be one of: load oversub rho epsilon trunk quantile mtbf "
               "(or empty)");
  }
  if (!s.sweep.parameter.empty() && s.sweep.values.empty()) {
    return Err("scenario.sweep.values",
               "must be non-empty when a parameter is set");
  }
  for (double value : s.sweep.values) {
    if (s.sweep.parameter == "trunk" &&
        (value < 1 || value != std::floor(value))) {
      return Err("scenario.sweep.values", "trunk widths must be integers >= 1");
    }
    if ((s.sweep.parameter == "epsilon" || s.sweep.parameter == "quantile") &&
        (value <= 0 || value >= 1)) {
      return Err("scenario.sweep.values",
                 s.sweep.parameter + " values must be in (0, 1)");
    }
    if ((s.sweep.parameter == "load" || s.sweep.parameter == "oversub" ||
         s.sweep.parameter == "mtbf") &&
        value <= 0) {
      return Err("scenario.sweep.values",
                 s.sweep.parameter + " values must be > 0");
    }
    if (s.sweep.parameter == "rho" && value < 0) {
      return Err("scenario.sweep.values", "rho values must be >= 0");
    }
  }

  std::set<std::string> labels;
  for (size_t i = 0; i < s.variants.size(); ++i) {
    const VariantConfig& v = s.variants[i];
    const std::string path = "scenario.variants[" + std::to_string(i) + "]";
    if (v.label.empty()) return Err(path + ".label", "must be non-empty");
    if (!labels.insert(v.label).second) {
      return Err(path + ".label", "duplicate label '" + v.label + "'");
    }
    ResolvedVariant resolved;
    Status status = ResolveVariant(s, v, &resolved);
    if (!status.ok()) return status;
    if (core::MakeAllocatorByName(resolved.allocator) == nullptr) {
      return Err(path + ".allocator",
                 "unknown allocator '" + resolved.allocator + "' (known: " +
                     core::KnownAllocatorNamesText() + ")");
    }
    if (v.epsilon >= 0 && (v.epsilon <= 0 || v.epsilon >= 1)) {
      return Err(path + ".epsilon", "must be in (0, 1) or -1 to inherit");
    }
    if (v.vc_quantile >= 0 && (v.vc_quantile <= 0 || v.vc_quantile >= 1)) {
      return Err(path + ".vc_quantile", "must be in (0, 1) or -1 to inherit");
    }
    if (v.survivable < -1 || v.survivable > 1) {
      return Err(path + ".survivable", "must be -1 (inherit), 0, or 1");
    }
    if (!v.rate_distribution.empty()) {
      workload::RateDistribution distribution;
      if (!ParseDistributionToken(v.rate_distribution, &distribution)) {
        return Err(path + ".rate_distribution",
                   "must be normal | lognormal (or empty)");
      }
    }
  }

  // The fault plane validated against the scenario's own fabric, with
  // auto-target (-1) events standing in for the first machine — the probe
  // replaces them with a real VM host per cell.
  if (f.machine_mtbf_seconds > 0 || f.link_mtbf_seconds > 0 ||
      f.link_mtbf_factor > 0 || !f.scripted.empty() || !f.correlated.empty()) {
    const topology::Topology topo = topology::BuildThreeTier(s.topology);
    FaultConfig resolved;
    resolved.machine_mtbf_seconds = f.machine_mtbf_seconds;
    resolved.link_mtbf_seconds =
        f.link_mtbf_factor > 0 ? f.link_mtbf_factor * f.machine_mtbf_seconds
                               : f.link_mtbf_seconds;
    resolved.mttr_seconds = f.mttr_seconds;
    resolved.horizon_seconds = f.horizon_seconds;
    resolved.seed = f.seed;
    resolved.policy = policy;
    for (const ScriptedEventConfig& e : f.scripted) {
      FaultEvent event;
      event.time = e.time;
      event.vertex = e.vertex < 0 ? MachineAt(topo, 0)
                                  : static_cast<topology::VertexId>(e.vertex);
      event.kind = e.kind == "link" ? core::FaultKind::kLink
                                    : core::FaultKind::kMachine;
      event.fail = e.fail;
      event.drain = e.drain;
      resolved.scripted.push_back(event);
    }
    for (const CorrelatedEventConfig& c : f.correlated) {
      const double time = c.time_frac * f.horizon_seconds;
      const double outage =
          c.outage_seconds < 0 ? f.mttr_seconds : c.outage_seconds;
      if (c.kind == "rack_power") {
        AppendRackPowerEvent(topo, TorAt(topo, c.index), time, outage,
                             &resolved.scripted);
      } else if (c.kind == "tor_loss") {
        AppendTorLossEvent(TorAt(topo, c.index), time, outage,
                           &resolved.scripted);
      } else {
        AppendPlannedDrain(MachineAt(topo, c.index), time, outage,
                           &resolved.scripted);
      }
    }
    Status status = ValidateFaultConfig(topo, resolved);
    if (!status.ok()) {
      return Err("scenario.faults", status.message());
    }
  }
  return Status::Ok();
}

std::string ScenarioAllocatorName(const Scenario& scenario) {
  if (!scenario.admission.allocator.empty()) {
    return scenario.admission.allocator;
  }
  workload::Abstraction abstraction = workload::Abstraction::kSvc;
  ParseAbstractionToken(scenario.admission.abstraction, &abstraction);
  return DefaultAllocatorName(abstraction);
}

const ScenarioCell* FindCell(const ScenarioRunResult& result,
                             const std::string& label, int axis_index) {
  for (const ScenarioCell& cell : result.cells) {
    if (cell.label == label && cell.axis_index == axis_index) return &cell;
  }
  return nullptr;
}

util::Result<ScenarioRunResult> RunScenario(const Scenario& scenario,
                                            const ScenarioRunOptions& options) {
  Status status = ValidateScenario(scenario);
  if (!status.ok()) return status;

  const std::vector<CellSpec> specs = EnumerateCells(scenario);

  // Allocators resolved once up front (const, thread-safe to share), plus
  // the per-cell inheritance so a bad variant fails before any cell runs.
  std::map<std::string, std::unique_ptr<core::Allocator>> allocators;
  std::vector<ResolvedVariant> resolved(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    status = ResolveVariant(scenario, specs[i].variant, &resolved[i]);
    if (!status.ok()) return status;
    auto& slot = allocators[resolved[i].allocator];
    if (slot == nullptr) {
      slot = core::MakeAllocatorByName(resolved[i].allocator);
      if (slot == nullptr) {
        return Err("scenario", "unknown allocator '" + resolved[i].allocator +
                                   "'");
      }
    }
  }

  SVC_METRIC_INC("scenario/runs");
  SVC_METRIC_ADD("scenario/cells", static_cast<int64_t>(specs.size()));

  std::vector<std::function<ScenarioCell()>> tasks;
  tasks.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const core::Allocator* allocator =
        allocators.at(resolved[i].allocator).get();
    const CellSpec* spec = &specs[i];
    const ResolvedVariant* variant = &resolved[i];
    tasks.push_back([&scenario, spec, variant, allocator, &options] {
      return RunCell(scenario, *spec, *variant, *allocator, options);
    });
  }
  SweepRunner runner(options.threads);
  ScenarioRunResult result;
  result.cells = runner.Run(std::move(tasks));
  return result;
}

}  // namespace svc::sim
