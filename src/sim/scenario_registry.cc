// Built-in scenarios: every figure and ablation the benches used to
// hand-assemble, as registry entries scenario_run (and fault_recovery, and
// the daemon) load by name.  The parameter values here are the legacy
// bench defaults verbatim — a registered scenario run with --threads 1
// reproduces the legacy bench's decision stream bit for bit.
#include <mutex>

#include "sim/scenario.h"

namespace svc::sim {
namespace {

// The defaults every figure starts from: the paper's 50-rack
// three-tier fabric (ThreeTierConfig defaults) and the calibrated tenant
// mix (300 jobs, mean size 49, rate menu 50..250 Mbps: the paper's
// 100..500 halved, see EXPERIMENTS.md deviation 2).
Scenario Base(const std::string& name, const std::string& description) {
  Scenario s;
  s.name = name;
  s.description = description;
  s.workload.num_jobs = 300;
  s.workload.mean_job_size = 49;
  s.workload.max_job_size = 400;
  s.workload.rate_means = {50, 100, 150, 200, 250};
  return s;
}

VariantConfig Variant(const std::string& label,
                      const std::string& abstraction = "",
                      const std::string& allocator = "") {
  VariantConfig v;
  v.label = label;
  v.abstraction = abstraction;
  v.allocator = allocator;
  return v;
}

// The four-abstraction comparison column set of fig5/6/7.
std::vector<VariantConfig> AbstractionPanel() {
  std::vector<VariantConfig> variants;
  variants.push_back(Variant("mean-VC", "mean_vc"));
  variants.push_back(Variant("percentile-VC", "percentile_vc"));
  VariantConfig svc05 = Variant("SVC(e=0.05)", "svc");
  svc05.epsilon = 0.05;
  variants.push_back(svc05);
  VariantConfig svc02 = Variant("SVC(e=0.02)", "svc");
  svc02.epsilon = 0.02;
  variants.push_back(svc02);
  return variants;
}

std::vector<Scenario> BuildRegistry() {
  std::vector<Scenario> registry;

  {
    Scenario s = Base("fig5",
                      "Completion time vs oversubscription, batch arrivals "
                      "(paper Fig. 5)");
    s.arrivals.mode = "batch";
    s.sweep.parameter = "oversub";
    s.sweep.values = {1, 2, 3, 4};
    s.variants = AbstractionPanel();
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("fig6",
                      "Mean job running time vs demand deviation rho, batch "
                      "arrivals (paper Fig. 6)");
    s.arrivals.mode = "batch";
    s.sweep.parameter = "rho";
    s.sweep.values = {0.1, 0.3, 0.5, 0.7, 0.9};
    s.variants = AbstractionPanel();
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("fig7",
                      "Rejection rate vs offered load, online arrivals "
                      "(paper Fig. 7)");
    s.arrivals.mode = "poisson";
    s.sweep.parameter = "load";
    s.sweep.values = {0.2, 0.4, 0.6, 0.8};
    s.variants = AbstractionPanel();
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("fig8",
                      "Concurrent-tenant time series, SVC vs percentile-VC "
                      "(paper Fig. 8)");
    s.arrivals.mode = "poisson";
    s.sweep.parameter = "load";
    s.sweep.values = {0.6};
    s.variants.push_back(Variant("SVC", "svc"));
    s.variants.push_back(Variant("percentile-VC", "percentile_vc"));
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("fig9",
                      "Max-occupancy CDF, Algorithm 1 vs TIVC-adapted "
                      "placement (paper Fig. 9)");
    s.arrivals.mode = "poisson";
    s.sweep.parameter = "load";
    s.sweep.values = {0.2, 0.6};
    s.variants.push_back(Variant("svc-dp", "svc", "svc-dp"));
    s.variants.push_back(Variant("tivc-adapted", "svc", "tivc-adapted"));
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("fig10",
                      "Rejection rate vs load, Algorithm 1 vs TIVC-adapted "
                      "placement (paper Fig. 10)");
    s.arrivals.mode = "poisson";
    s.sweep.parameter = "load";
    s.sweep.values = {0.2, 0.4, 0.6, 0.8};
    s.variants.push_back(Variant("svc-dp", "svc", "svc-dp"));
    s.variants.push_back(Variant("tivc-adapted", "svc", "tivc-adapted"));
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("guarantee_validation",
                      "Measured outage rate vs the epsilon SLA across "
                      "abstractions");
    s.arrivals.mode = "poisson";
    s.arrivals.load = 0.7;
    s.sweep.parameter = "epsilon";
    s.sweep.values = {0.01, 0.02, 0.05, 0.1, 0.2};
    s.variants.push_back(Variant("SVC", "svc"));
    VariantConfig mean = Variant("mean-VC", "mean_vc");
    mean.once = true;
    s.variants.push_back(mean);
    VariantConfig pct = Variant("percentile-VC", "percentile_vc");
    pct.once = true;
    s.variants.push_back(pct);
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("hetero_comparison",
                      "Heterogeneous-demand placement: substring heuristic "
                      "vs first-fit");
    s.topology.racks = 25;
    s.topology.machines_per_rack = 10;
    s.topology.racks_per_agg = 5;
    s.workload.heterogeneous = true;
    s.workload.mean_job_size = 10;
    s.workload.max_job_size = 30;
    s.workload.num_jobs = 200;
    s.arrivals.mode = "poisson";
    s.sweep.parameter = "load";
    s.sweep.values = {0.2, 0.6};
    s.variants.push_back(
        Variant("hetero-heuristic", "svc", "hetero-heuristic"));
    s.variants.push_back(Variant("first-fit", "svc", "first-fit"));
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("ablation_locality",
                      "Locality-rule ablation: Algorithm 1 vs global min-max "
                      "vs TIVC-adapted");
    s.arrivals.mode = "poisson";
    s.sweep.parameter = "load";
    s.sweep.values = {0.4, 0.8};
    s.variants.push_back(Variant("svc-dp", "svc", "svc-dp"));
    s.variants.push_back(Variant("global-minmax", "svc", "global-minmax"));
    s.variants.push_back(Variant("tivc-adapted", "svc", "tivc-adapted"));
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("ablation_enforcement",
                      "Hard-cap vs token-bucket enforcement at rho = 0.8, "
                      "batch arrivals");
    s.arrivals.mode = "batch";
    s.workload.fixed_deviation = 0.8;
    s.enforcement.burst_seconds = 10;
    VariantConfig v = Variant("mean-VC/hard_cap", "mean_vc");
    v.enforcement = "hard_cap";
    s.variants.push_back(v);
    v = Variant("mean-VC/token_bucket", "mean_vc");
    v.enforcement = "token_bucket";
    s.variants.push_back(v);
    v = Variant("percentile-VC/hard_cap", "percentile_vc");
    v.enforcement = "hard_cap";
    s.variants.push_back(v);
    v = Variant("percentile-VC/token_bucket", "percentile_vc");
    v.enforcement = "token_bucket";
    s.variants.push_back(v);
    v = Variant("SVC/hard_cap", "svc");
    v.enforcement = "hard_cap";
    s.variants.push_back(v);
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("ablation_distribution",
                      "Normal vs lognormal demand marginals across epsilon");
    s.arrivals.mode = "poisson";
    s.arrivals.load = 0.7;
    s.sweep.parameter = "epsilon";
    s.sweep.values = {0.02, 0.05, 0.1};
    VariantConfig normal = Variant("normal", "svc");
    normal.rate_distribution = "normal";
    s.variants.push_back(normal);
    VariantConfig lognormal = Variant("lognormal", "svc");
    lognormal.rate_distribution = "lognormal";
    s.variants.push_back(lognormal);
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("ablation_ecmp",
                      "Trunked (ECMP-style) fabric links: rejection vs trunk "
                      "width");
    s.arrivals.mode = "poisson";
    s.arrivals.load = 0.7;
    s.sweep.parameter = "trunk";
    s.sweep.values = {1, 2, 4, 8};
    s.variants.push_back(Variant("SVC", "svc"));
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("ablation_percentile",
                      "Reserved-percentile sweep for the deterministic q-VC "
                      "against mean-VC and SVC");
    s.arrivals.mode = "poisson";
    s.arrivals.load = 0.7;
    s.sweep.parameter = "quantile";
    s.sweep.values = {0.7, 0.8, 0.9, 0.95, 0.99};
    s.variants.push_back(Variant("q-VC", "percentile_vc"));
    VariantConfig mean = Variant("mean-VC", "mean_vc");
    mean.vc_quantile = 0.5;
    mean.once = true;
    s.variants.push_back(mean);
    VariantConfig svc = Variant("SVC", "svc");
    svc.vc_quantile = 0.95;
    svc.once = true;
    s.variants.push_back(svc);
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("fault_recovery",
                      "Recovery-policy comparison under random machine and "
                      "link churn vs MTBF");
    s.arrivals.mode = "poisson";
    s.arrivals.load = 0.7;
    s.max_seconds = 80000;  // 4x the fault horizon
    s.faults.link_mtbf_factor = 3.0;
    s.faults.mttr_seconds = 60;
    s.faults.horizon_seconds = 20000;
    s.faults.seed = 44;
    s.sweep.parameter = "mtbf";
    s.sweep.values = {300, 900, 2700};
    VariantConfig v = Variant("reallocate");
    v.policy = "reallocate";
    s.variants.push_back(v);
    v = Variant("patch");
    v.policy = "patch";
    s.variants.push_back(v);
    v = Variant("evict");
    v.policy = "evict";
    s.variants.push_back(v);
    v = Variant("survivable_reallocate");
    v.policy = "reallocate";
    v.survivable = 1;
    s.variants.push_back(v);
    v = Variant("switchover");
    v.policy = "switchover";
    v.survivable = 1;
    s.variants.push_back(v);
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("fault_correlated",
                      "Recovery policies under churn plus correlated rack "
                      "power loss, ToR loss, and a planned drain");
    s.arrivals.mode = "poisson";
    s.arrivals.load = 0.7;
    s.max_seconds = 80000;
    s.faults.link_mtbf_factor = 3.0;
    s.faults.mttr_seconds = 60;
    s.faults.horizon_seconds = 20000;
    s.faults.seed = 44;
    CorrelatedEventConfig event;
    event.kind = "rack_power";
    event.index = 0;
    event.time_frac = 0.25;
    s.faults.correlated.push_back(event);
    event.kind = "tor_loss";
    event.index = 1;
    event.time_frac = 0.5;
    s.faults.correlated.push_back(event);
    event.kind = "planned_drain";
    event.index = 0;
    event.time_frac = 0.75;
    s.faults.correlated.push_back(event);
    s.sweep.parameter = "mtbf";
    s.sweep.values = {300, 900, 2700};
    VariantConfig v = Variant("reallocate");
    v.policy = "reallocate";
    s.variants.push_back(v);
    v = Variant("patch");
    v.policy = "patch";
    s.variants.push_back(v);
    v = Variant("evict");
    v.policy = "evict";
    s.variants.push_back(v);
    v = Variant("survivable_reallocate");
    v.policy = "reallocate";
    v.survivable = 1;
    s.variants.push_back(v);
    v = Variant("switchover");
    v.policy = "switchover";
    v.survivable = 1;
    s.variants.push_back(v);
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("fault_drill",
                      "Deterministic switchover drill: fail the machine "
                      "hosting an admitted VM, expect zero steady outage");
    s.arrivals.mode = "static";
    s.max_seconds = 4000;
    s.fixed_jobs.count = 8;
    s.fixed_jobs.size = 4;
    s.fixed_jobs.compute_time = 3000;
    s.fixed_jobs.rate_mean = 100;
    s.fixed_jobs.rho = 0;
    s.fixed_jobs.flow_seconds = 2000;
    s.admission.survivability = true;
    s.faults.policy = "switchover";
    ScriptedEventConfig fail;
    fail.time = 500;
    fail.vertex = -1;  // the machine hosting a VM of the first admitted job
    fail.kind = "machine";
    fail.fail = true;
    s.faults.scripted.push_back(fail);
    ScriptedEventConfig recover = fail;
    recover.time = 560;
    recover.fail = false;
    s.faults.scripted.push_back(recover);
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("work_conserving",
                      "Statistical sharing headroom: hard-cap vs token-bucket "
                      "enforcement under SVC at load 0.7");
    s.arrivals.mode = "poisson";
    s.arrivals.load = 0.7;
    VariantConfig v = Variant("hard_cap", "svc");
    v.enforcement = "hard_cap";
    s.variants.push_back(v);
    v = Variant("token_bucket", "svc");
    v.enforcement = "token_bucket";
    s.variants.push_back(v);
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("flash_crowd",
                      "Admission under a flash crowd: a 4x-denser arrival "
                      "burst over the middle of the trace");
    s.arrivals.mode = "flash_crowd";
    s.arrivals.load = 0.6;
    s.variants.push_back(Variant("SVC", "svc"));
    s.variants.push_back(Variant("percentile-VC", "percentile_vc"));
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("diurnal",
                      "Admission under a sinusoidal diurnal arrival rate "
                      "(amplitude 0.8, period 20000 s)");
    s.arrivals.mode = "diurnal";
    s.arrivals.load = 0.6;
    s.variants.push_back(Variant("SVC", "svc"));
    s.variants.push_back(Variant("percentile-VC", "percentile_vc"));
    registry.push_back(std::move(s));
  }
  {
    Scenario s = Base("daemon_default",
                      "Small fabric svcd serves when started without "
                      "--scenario: 4 racks x 5 machines, SVC admission");
    s.topology.racks = 4;
    s.topology.machines_per_rack = 5;
    s.topology.racks_per_agg = 2;
    s.workload.num_jobs = 64;
    s.workload.mean_job_size = 8;
    s.workload.max_job_size = 16;
    s.workload.rate_means = {50, 100};
    s.arrivals.mode = "poisson";
    s.arrivals.load = 0.5;
    registry.push_back(std::move(s));
  }
  return registry;
}

const std::vector<Scenario>& Registry() {
  static const std::vector<Scenario>* kRegistry =
      new std::vector<Scenario>(BuildRegistry());
  return *kRegistry;
}

}  // namespace

const Scenario* FindScenario(const std::string& name) {
  for (const Scenario& scenario : Registry()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

const std::vector<std::string>& RegisteredScenarioNames() {
  static const std::vector<std::string>* kNames = [] {
    auto* names = new std::vector<std::string>();
    for (const Scenario& scenario : Registry()) {
      names->push_back(scenario.name);
    }
    return names;
  }();
  return *kNames;
}

}  // namespace svc::sim
