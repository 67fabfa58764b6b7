#include "workload.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "core/evaluation.h"

namespace gwbench {

namespace gen = p4iot::gen;
namespace p4 = p4iot::p4;
namespace pkt = p4iot::pkt;
namespace core = p4iot::core;

namespace {

// BLE: ~50 devices over 600 s give ~26k frames on ~5k distinct flow keys, so
// keys repeat and the engine's flow cache serves ~93% of frames. Wi-Fi: ~48
// devices over 600 s give ~200k frames whose learned fields (ports, IP ids,
// checksums) change per packet, so >99% of keys are distinct and every frame
// pays parse plus match. ble_swap runs ble_hot's traffic open loop at 250k
// frames/s, about a quarter of the engine's closed-loop BLE rate on a
// contended 4-vCPU host, so the engine keeps up and swaps show as latency.
constexpr WorkloadSpec kWorkloads[] = {
    {"ble_hot", gen::DatasetId::kBle, 600.0, 50, 0.0, false},
    {"wifi_cold", gen::DatasetId::kWifiIp, 600.0, 48, 0.0, false},
    {"ble_swap", gen::DatasetId::kBle, 600.0, 50, 250000.0, true},
};

// The repository's canonical training configuration (the experiments' 120 s,
// 10-device captures, 70/30 split with split seed 1, k = 4 fields).
gen::DatasetOptions training_options(std::uint64_t seed) {
  gen::DatasetOptions options;
  options.seed = seed;
  options.duration_s = 120.0;
  options.benign_devices = 10;
  options.attack_rate_pps = 40.0;
  return options;
}

core::PipelineConfig pipeline_config() {
  auto config = core::PipelineConfig::with_fields(4);
  config.stage1.probe.epochs = 12;
  config.stage1.autoencoder.epochs = 10;
  return config;
}

std::pair<pkt::Trace, pkt::Trace> split(const pkt::Trace& trace) {
  p4iot::common::Rng rng(1);
  return trace.split(0.7, rng);
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

std::vector<p4::Verdict> oracle_verdicts(const p4::P4Program& program,
                                         const std::vector<p4::TableEntry>& rules,
                                         const std::vector<pkt::Packet>& replay) {
  p4::P4Switch reference(program, std::max<std::size_t>(1024, rules.size()));
  if (reference.match_backend() != p4::MatchBackend::kLinear)
    throw std::logic_error("oracle switch is not the linear scan");
  if (reference.install_rules(rules) != p4::TableWriteStatus::kOk)
    throw std::runtime_error("oracle switch rejected the rule set");
  std::vector<p4::Verdict> out;
  out.reserve(replay.size());
  for (const auto& frame : replay) out.push_back(reference.process(frame));
  return out;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::uint64_t heldout_seed(std::uint64_t bench_seed) {
  const std::uint64_t seed = 1'000'000 + bench_seed;
  if (seed == kTrainSeed || seed == kRetrainSeed)
    throw std::invalid_argument("held-out seed collides with a training seed");
  return seed;
}

Setup set_up(const WorkloadSpec& spec, std::uint64_t bench_seed,
             std::size_t workers, Tracer& tracer) {
  Setup s;
  s.spec = &spec;
  s.heldout_seed = heldout_seed(bench_seed);
  ScopedSpan whole(tracer, "setup");
  const std::uint64_t t0 = now_ns();

  pkt::Trace train_capture, retrain_capture, heldout;
  {
    ScopedSpan span(tracer, "trafficgen.make_dataset");
    train_capture = gen::make_dataset(spec.radio, training_options(kTrainSeed));
    retrain_capture = gen::make_dataset(spec.radio, training_options(kRetrainSeed));
    auto options = training_options(s.heldout_seed);
    options.duration_s = spec.heldout_duration_s;
    options.benign_devices = spec.heldout_devices;
    heldout = gen::make_dataset(spec.radio, options);
    s.replay = std::move(heldout.packets());
    p4iot::common::Rng order(s.heldout_seed);
    for (std::size_t i = s.replay.size(); i > 1; --i)
      std::swap(s.replay[i - 1], s.replay[order.next_below(i)]);
    span.items = train_capture.size() + retrain_capture.size() + s.replay.size();
  }
  if (s.replay.empty()) throw std::runtime_error("empty held-out capture");
  const std::uint64_t t_gen = now_ns();

  auto [train, test] = split(train_capture);
  s.pipeline = core::TwoStagePipeline(pipeline_config());
  {
    ScopedSpan span(tracer, "core.fit");
    s.pipeline.fit(train);
    span.items = s.pipeline.rules().entries.size();
  }
  const std::uint64_t t_fit = now_ns();

  {
    ScopedSpan span(tracer, "core.synthesize_rules");
    const auto retrain = split(retrain_capture).first;
    auto b = core::synthesize_rules(retrain, s.pipeline.selection().fields,
                                    s.pipeline.config().window_bytes,
                                    s.pipeline.config().stage2);
    if (b.program.parser.fields != s.pipeline.rules().program.parser.fields)
      throw std::runtime_error("rule set B does not share A's parser");
    s.rules_b = std::move(b.entries);
    span.items = s.rules_b.size();
  }

  {
    ScopedSpan span(tracer, "p4.engine.start");
    p4::EngineConfig config;
    config.workers = workers;
    config.backpressure = p4::BackpressurePolicy::kBlock;
    s.engine = s.pipeline.make_engine(config);
    if (s.engine->worker_count() != workers)
      throw std::runtime_error("engine started the wrong number of workers");
  }
  {
    ScopedSpan span(tracer, "p4.switch.install");
    s.sw = std::make_unique<p4::P4Switch>(s.pipeline.make_switch());
    s.sw->enable_flow_cache();
  }
  const std::uint64_t t_end = now_ns();

  const auto& fit = s.pipeline.timings();
  s.times = {seconds_between(t0, t_gen), seconds_between(t_gen, t_fit),
             fit.stage1_seconds, fit.stage2_seconds, seconds_between(t0, t_end)};

  const auto& program = s.pipeline.rules().program;
  if (s.rules_a().empty() || s.rules_b.empty())
    throw std::runtime_error("a learned rule set is empty");
  {
    ScopedSpan span(tracer, "oracle");
    s.oracle_a = oracle_verdicts(program, s.rules_a(), s.replay);
    s.oracle_b = oracle_verdicts(program, s.rules_b, s.replay);
  }
  s.detect_f1 = core::evaluate_pipeline(s.pipeline, test).f1();
  return s;
}

}  // namespace gwbench
