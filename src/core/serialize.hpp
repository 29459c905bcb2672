#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/instance.hpp"

namespace stem::core {

/// JSON serialization of the event-model data types.
///
/// Instances circulate through the CPS network and are archived by the
/// database server "for later retrieval" (paper Sec. 3); a stable wire
/// format makes both concrete. The encoding is plain JSON with a fixed
/// schema; `decode_*` functions accept exactly what `encode_*` emit plus
/// arbitrary whitespace, and return nullopt on malformed input. Numbers
/// are decimal text, so the form is not bit-exact: an integral double
/// decodes as an integer (and -0.0 loses its sign), and NaN or infinity
/// does not decode at all. State that must round-trip exactly inside the
/// process uses runtime/checkpoint.hpp's binary codec instead.
///
/// Schema (event instance):
/// {
///   "observer": "SINK1", "event": "CP_FIRE", "seq": 3,
///   "layer": "cyber-physical",
///   "gen_time": 12000000, "gen_location": [50.0, 50.0],
///   "est_time": 11500000 | [11000000, 11500000],
///   "est_location": [x, y] | [[x, y], [x, y], ...],
///   "attributes": {"value": 93.5, "zone": "north", "armed": true, "n": 4},
///   "confidence": 0.81,
///   "provenance": [{"observer": "MT1", "event": "HOT", "seq": 9}, ...]
/// }
[[nodiscard]] std::string encode(const EventInstance& inst);
[[nodiscard]] std::string encode(const PhysicalObservation& obs);

[[nodiscard]] std::optional<EventInstance> decode_instance(std::string_view json);
[[nodiscard]] std::optional<PhysicalObservation> decode_observation(std::string_view json);

}  // namespace stem::core
