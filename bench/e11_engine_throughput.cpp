/// E11 — Detection engine throughput ablation: entities/second through a
/// DetectionEngine as a function of (a) number of registered definitions,
/// (b) correlation window length, (c) per-slot buffer cap, and (d) join
/// arity (slot count). This bounds what a single observer (mote / sink /
/// CCU) can sustain and motivates the engine's buffer-cap and window
/// pruning design.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "sim/random.hpp"

namespace {

using namespace stem;
using core::ConsumptionMode;
using core::EventDefinition;
using core::EventTypeId;
using core::ObserverId;
using core::SensorId;
using core::SlotFilter;
using time_model::seconds;
using time_model::TimePoint;

// Builds "<prefix><i>" without the temporary-heavy operator+ chain (which
// also trips a GCC 12 -Wrestrict false positive when inlined under -O2).
std::string numbered(const char* prefix, std::size_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

std::vector<core::Entity> make_entities(std::size_t n, const char* sensor = "SR",
                                        std::size_t sensor_pool = 0) {
  sim::Rng rng(5);
  std::vector<core::Entity> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::PhysicalObservation obs;
    obs.mote = ObserverId(numbered("MT", i % 8));
    obs.sensor = sensor_pool > 0 ? SensorId(numbered(sensor, i % sensor_pool))
                                 : SensorId(sensor);
    obs.seq = i;
    obs.time = TimePoint(static_cast<time_model::Tick>(i) * 100'000);  // 10 Hz
    obs.location = geom::Location(geom::Point{rng.uniform(0, 100), rng.uniform(0, 100)});
    obs.attributes.set("value", rng.uniform(0, 100));
    out.push_back(core::Entity(std::move(obs)));
  }
  return out;
}

EventDefinition threshold_def(const std::string& id, double threshold,
                              const std::string& sensor = "SR") {
  return EventDefinition{EventTypeId(id),
                         {{"x", SlotFilter::observation(SensorId(sensor))}},
                         core::c_attr(core::ValueAggregate::kAverage, "value", {0},
                                      core::RelationalOp::kGt, threshold),
                         seconds(60),
                         {},
                         ConsumptionMode::kConsume};
}

EventDefinition join_def(std::size_t arity, time_model::Duration window) {
  std::vector<core::SlotSpec> slots;
  for (std::size_t i = 0; i < arity; ++i) {
    slots.push_back({numbered("s", i), SlotFilter::observation(SensorId("SR"))});
  }
  std::vector<core::ConditionExpr> conds;
  for (std::size_t i = 0; i + 1 < arity; ++i) {
    conds.push_back(core::c_time(static_cast<core::SlotIndex>(i),
                                 time_model::TemporalOp::kBefore,
                                 static_cast<core::SlotIndex>(i + 1)));
    conds.push_back(core::c_distance(static_cast<core::SlotIndex>(i),
                                     static_cast<core::SlotIndex>(i + 1),
                                     core::RelationalOp::kLt, 30.0));
  }
  return EventDefinition{EventTypeId("JOIN"), std::move(slots), core::c_and(std::move(conds)),
                         window,             {},               ConsumptionMode::kConsume};
}

void BM_DefinitionCount(benchmark::State& state) {
  const auto defs = static_cast<std::size_t>(state.range(0));
  const auto entities = make_entities(4096);
  core::DetectionEngine engine(ObserverId("X"), core::Layer::kSensor, {0, 0});
  for (std::size_t i = 0; i < defs; ++i) {
    engine.add_definition(threshold_def(numbered("D", i),
                                        90.0 + static_cast<double>(i)));  // rarely fires
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Entity& e = entities[i & 4095];
    benchmark::DoNotOptimize(engine.observe(e, e.occurrence_time().end()));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Resident-set size in KiB from /proc/self/status, or 0 when the file is
/// unavailable (non-Linux hosts record rss_mb = 0 rather than failing).
long read_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Registration-path scaling: time (and resident memory) to register a
/// near-duplicate definition family, up to a million single-slot
/// threshold rules on one sensor with constants cycling a small set —
/// the shape the shared-plan compiler and the routing index's pending
/// segment lists are built for. One iteration per arg keeps the RSS
/// delta meaningful (later iterations would reuse allocator pools).
void BM_RegistrationScale(benchmark::State& state) {
  const auto defs = static_cast<std::size_t>(state.range(0));
  double rss_mb = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = std::make_unique<core::DetectionEngine>(ObserverId("X"), core::Layer::kSensor,
                                                          geom::Point{0, 0});
    const long before = read_rss_kb();
    state.ResumeTiming();
    for (std::size_t i = 0; i < defs; ++i) {
      engine->add_definition(
          threshold_def(numbered("D", i), 50.0 + static_cast<double>(i % 512)));
    }
    benchmark::DoNotOptimize(engine->definition_count());
    state.PauseTiming();
    rss_mb = std::max(rss_mb, static_cast<double>(read_rss_kb() - before) / 1024.0);
    engine.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(defs));
  state.counters["rss_mb"] = rss_mb;
}

void BM_JoinArity(benchmark::State& state) {
  const auto arity = static_cast<std::size_t>(state.range(0));
  const auto entities = make_entities(4096);
  core::EngineOptions opts;
  opts.max_buffer = 16;
  core::DetectionEngine engine(ObserverId("X"), core::Layer::kSensor, {0, 0}, opts);
  engine.add_definition(join_def(arity, seconds(2)));
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Entity& e = entities[i & 4095];
    benchmark::DoNotOptimize(engine.observe(e, e.occurrence_time().end()));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["bindings/op"] = benchmark::Counter(
      static_cast<double>(engine.stats().bindings_tried) /
          static_cast<double>(engine.stats().entities_in),
      benchmark::Counter::kAvgThreads);
}

void BM_BufferCap(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  const auto entities = make_entities(4096);
  core::EngineOptions opts;
  opts.max_buffer = cap;
  core::DetectionEngine engine(ObserverId("X"), core::Layer::kSensor, {0, 0}, opts);
  engine.add_definition(join_def(2, seconds(3600)));  // window never prunes
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Entity& e = entities[i & 4095];
    benchmark::DoNotOptimize(engine.observe(e, e.occurrence_time().end()));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_WindowLength(benchmark::State& state) {
  const auto window_s = state.range(0);
  const auto entities = make_entities(4096);
  core::EngineOptions opts;
  opts.max_buffer = 256;
  core::DetectionEngine engine(ObserverId("X"), core::Layer::kSensor, {0, 0}, opts);
  engine.add_definition(join_def(2, seconds(window_s)));
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Entity& e = entities[i & 4095];
    benchmark::DoNotOptimize(engine.observe(e, e.occurrence_time().end()));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Routing fan-out: N definitions each listening on a *distinct* sensor;
/// every arrival is relevant to exactly one. The routing index makes this
/// O(1) in N where the pre-index engine probed all N filters per arrival.
void BM_RoutingFanout(benchmark::State& state) {
  const auto defs = static_cast<std::size_t>(state.range(0));
  const auto entities = make_entities(4096, "SR", defs);
  core::DetectionEngine engine(ObserverId("X"), core::Layer::kSensor, {0, 0});
  for (std::size_t i = 0; i < defs; ++i) {
    engine.add_definition(threshold_def(numbered("D", i), 50.0, numbered("SR", i)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Entity& e = entities[i & 4095];
    benchmark::DoNotOptimize(engine.observe(e, e.occurrence_time().end()));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Spatial candidate selection: a retain-mode 2-slot distance join over a
/// large window/buffer, where the slot buffers cross the spatial-index
/// activation threshold and candidates come from GridIndex queries. The
/// bindings/op counter shows the selectivity the index exploits.
void BM_SpatialJoin(benchmark::State& state) {
  const auto cap = static_cast<std::size_t>(state.range(0));
  const auto entities = make_entities(4096);
  core::EngineOptions opts;
  opts.max_buffer = cap;
  core::DetectionEngine engine(ObserverId("X"), core::Layer::kSensor, {0, 0}, opts);
  EventDefinition def{EventTypeId("NEARPAIR"),
                      {{"a", SlotFilter::observation(SensorId("SR"))},
                       {"b", SlotFilter::observation(SensorId("SR"))}},
                      core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                   core::c_distance(0, 1, core::RelationalOp::kLt, 5.0)}),
                      seconds(3600),  // window never prunes; cap governs
                      {},
                      ConsumptionMode::kUnrestricted};
  engine.add_definition(def);
  std::size_t i = 0;
  for (auto _ : state) {
    const core::Entity& e = entities[i & 4095];
    benchmark::DoNotOptimize(engine.observe(e, e.occurrence_time().end()));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["bindings/op"] = benchmark::Counter(
      static_cast<double>(engine.stats().bindings_tried) /
          static_cast<double>(engine.stats().entities_in),
      benchmark::Counter::kAvgThreads);
}

/// The 64-definition threshold workload: 8 sensors x 8 thresholds spread
/// over the value range, so arrivals regularly fire. Entities rotate
/// through the 8 sensors.
std::vector<EventDefinition> scaling_defs() {
  std::vector<EventDefinition> defs;
  for (std::size_t i = 0; i < 64; ++i) {
    defs.push_back(threshold_def(numbered("D", i), 30.0 + 8.0 * static_cast<double>(i / 8),
                                 numbered("SR", i % 8)));
  }
  return defs;
}

/// Per-arrival entity-copy elision (the ROADMAP lever): the same buffered
/// 64-definition join workload driven through the reference-path observe
/// (deep-copies each arrival into shared ownership when some slot buffers
/// it) vs the prestored-path observe (aliases caller-owned shared storage
/// — what the sharded runtime's workers do with the ingest batch). Arg:
/// 0 = reference copy path, 1 = shared prestored path. Single-definition
/// no-regression is gated separately by BM_DefinitionCount/1.
void BM_SharedArrival(benchmark::State& state) {
  const bool shared = state.range(0) != 0;
  const auto entities = make_entities(4096, "SR", 64);
  std::vector<std::shared_ptr<const core::Entity>> stored;
  if (shared) {
    stored.reserve(entities.size());
    for (const auto& e : entities) stored.push_back(std::make_shared<const core::Entity>(e));
  }
  core::EngineOptions opts;
  opts.max_buffer = 4;
  core::DetectionEngine engine(ObserverId("X"), core::Layer::kSensor, {0, 0}, opts);
  // 64 buffered two-slot joins, one per sensor, that rarely match: each
  // arrival routes to one definition and the per-arrival cost is
  // buffering, where the copy lives (a tight cap keeps enumeration
  // marginal).
  for (std::size_t i = 0; i < 64; ++i) {
    EventDefinition def{EventTypeId(numbered("J", i)),
                        {{"a", SlotFilter::observation(SensorId(numbered("SR", i)))},
                         {"b", SlotFilter::observation(SensorId(numbered("SR", i)))}},
                        core::c_and({core::c_time(0, time_model::TemporalOp::kBefore, 1),
                                     core::c_distance(0, 1, core::RelationalOp::kLt, 0.5)}),
                        seconds(3600),
                        {},
                        ConsumptionMode::kConsume};
    engine.add_definition(std::move(def));
  }
  std::vector<core::Emission> out;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = i & 4095;
    out.clear();
    if (shared) {
      engine.observe(stored[at], entities[at].occurrence_time().end(), out);
    } else {
      engine.observe(entities[at], entities[at].occurrence_time().end(), out);
    }
    benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Batched ingest amortization on a single engine: observe_batch over the
/// 64-definition workload at batch sizes 1 / 16 / 256. items == entities.
void BM_BatchSize(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto entities = make_entities(4096, "SR", 8);
  std::vector<time_model::TimePoint> nows;
  nows.reserve(entities.size());
  for (const auto& e : entities) nows.push_back(e.occurrence_time().end());
  core::DetectionEngine engine(ObserverId("X"), core::Layer::kSensor, {0, 0});
  for (EventDefinition& def : scaling_defs()) engine.add_definition(std::move(def));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = (i * batch) & 4095;
    benchmark::DoNotOptimize(engine.observe_batch(std::span(entities).subspan(at, batch),
                                                  std::span(nows).subspan(at, batch)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * batch));
}

}  // namespace

BENCHMARK(BM_DefinitionCount)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);
// One iteration per arg: the RSS delta is only meaningful on a cold
// allocator, and a million registrations are seconds-scale anyway.
BENCHMARK(BM_RegistrationScale)
    ->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_JoinArity)->Arg(1)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK(BM_BufferCap)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_WindowLength)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_RoutingFanout)->Arg(1)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_SpatialJoin)->Arg(64)->Arg(256)->Arg(1024);
// Arg(0) = per-arrival deep copy, Arg(1) = prestored shared storage.
BENCHMARK(BM_SharedArrival)->Arg(0)->Arg(1);
BENCHMARK(BM_BatchSize)->Arg(1)->Arg(16)->Arg(256);

BENCHMARK_MAIN();
