#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/serialize.hpp"
#include "sim/random.hpp"

/// Structured fuzz of the wire codec: every decoder must return nullopt or
/// a value on *any* input — truncated frames, single-bit corruption,
/// seeded random mutation, raw garbage — and never crash, throw, or read
/// out of bounds. The ASan/UBSan CI legs turn any violation into a hard
/// failure.

namespace stem::core {
namespace {

using geom::Location;
using geom::Point;
using geom::Polygon;
using time_model::OccurrenceTime;
using time_model::TimeInterval;
using time_model::TimePoint;

EventInstance sample_instance() {
  EventInstance inst;
  inst.key = EventInstanceKey{ObserverId("SINK1"), EventTypeId("CP_FIRE"), 42};
  inst.layer = Layer::kCyberPhysical;
  inst.gen_time = TimePoint(12'000'000);
  inst.gen_location = {50.5, -3.25};
  inst.est_time = OccurrenceTime(TimeInterval(TimePoint(11'000'000), TimePoint(11'500'000)));
  inst.est_location = Location(Polygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}}));
  inst.attributes.set("value", 93.5);
  inst.attributes.set("zone", std::string("north"));
  inst.attributes.set("armed", true);
  inst.attributes.set("n", std::int64_t{4});
  inst.confidence = 0.8125;
  inst.provenance.push_back(EventInstanceKey{ObserverId("MT1"), EventTypeId("HOT"), 9});
  inst.provenance.push_back(EventInstanceKey{ObserverId("MT2"), EventTypeId("HOT"), 11});
  return inst;
}

PhysicalObservation sample_observation() {
  PhysicalObservation o;
  o.mote = ObserverId("MT7");
  o.sensor = SensorId("SR_temp");
  o.seq = 1234567;
  o.time = TimePoint(9'000'000);
  o.location = Location(Point{12.25, -7.75});
  o.attributes.set("value", -40.5);
  o.attributes.set("unit", std::string("C"));
  return o;
}

/// All the frames the fuzzers mutate: one instance, one observation.
std::vector<std::string> seed_frames() {
  return {encode(sample_instance()), encode(sample_observation())};
}

/// Feed one mutated frame through every decoder. Any return value is
/// acceptable; the test is that control comes back at all (no crash, no
/// sanitizer report, no exception).
void poke(const std::string& frame) {
  (void)decode_instance(frame);
  (void)decode_observation(frame);
}

TEST(SerializeFuzz, EveryTruncationIsHandled) {
  for (const std::string& frame : seed_frames()) {
    for (std::size_t len = 0; len <= frame.size(); ++len) {
      poke(frame.substr(0, len));
    }
    // Truncated frames must never round-trip as valid full frames, under
    // either kind's decoder.
    for (std::size_t len = 1; len < frame.size(); ++len) {
      const std::string prefix = frame.substr(0, len);
      if (const auto inst = decode_instance(prefix)) {
        EXPECT_NE(encode(*inst), frame) << "instance prefix " << len << " aliased the full frame";
      }
      if (const auto obs = decode_observation(prefix)) {
        EXPECT_NE(encode(*obs), frame) << "observation prefix " << len
                                       << " aliased the full frame";
      }
    }
  }
}

TEST(SerializeFuzz, EverySingleBitFlipIsHandled) {
  for (const std::string& frame : seed_frames()) {
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = frame;
        mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
        poke(mutated);
      }
    }
  }
}

TEST(SerializeFuzz, SeededRandomMutationsAreHandled) {
  sim::Rng rng(0xf422ULL);
  for (const std::string& frame : seed_frames()) {
    for (int round = 0; round < 400; ++round) {
      std::string mutated = frame;
      // 1-8 byte edits: overwrite, delete, or insert.
      const int edits = 1 + static_cast<int>(rng.uniform_int(0, 7));
      for (int e = 0; e < edits && !mutated.empty(); ++e) {
        const std::size_t at =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(mutated.size()) - 1));
        switch (rng.uniform_int(0, 2)) {
          case 0:
            mutated[at] = static_cast<char>(rng.uniform_int(0, 255));
            break;
          case 1:
            mutated.erase(at, 1);
            break;
          default:
            mutated.insert(at, 1, static_cast<char>(rng.uniform_int(0, 255)));
            break;
        }
      }
      poke(mutated);
    }
  }
}

TEST(SerializeFuzz, GarbageAndPathologicalInputsAreHandled) {
  const std::string cases[] = {
      "",
      "{",
      "}",
      "null",
      "{}",
      "[]",
      std::string(1 << 16, '{'),
      std::string(1 << 16, '9'),
      "{\"instance\":",
      "{\"instance\": {}}",
      "{\"observation\": {}}",
      "{\"instance\": {\"seq\": -1}}",
      "{\"observation\": {\"seq\": 99999999999999999999999999}}",
      "{\"instance\": \"not-an-object\"}",
      std::string("{\"instance\"\x00: {}}", 17),
      "{\"observation\": {\"location\": {\"polygon\": [[0]]}}}",
  };
  for (const std::string& c : cases) poke(c);
}

TEST(SerializeFuzz, IntactFramesStillRoundTripAfterFuzzing) {
  // Sanity anchor: the fuzzers above prove absence of crashes; this leg
  // proves the decoders still accept the genuine article.
  EXPECT_TRUE(decode_instance(encode(sample_instance())).has_value());
  EXPECT_TRUE(decode_observation(encode(sample_observation())).has_value());
}

}  // namespace
}  // namespace stem::core
