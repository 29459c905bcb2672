#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"

namespace stem::runtime {

/// Crash-recovery codec: one binary encoding for replay records and
/// checkpoint frames. It never leaves the process, so fixed-width fields
/// are copied byte for byte in host order: locations, attribute values
/// and confidences survive exactly (NaN, ±inf, -0.0 and denormals
/// included).
///
/// Every record or frame carries a *coding context* that the decoder
/// rebuilds as it reads:
///  - a string table. Each observer, sensor, event or attribute name is an
///    sref: its first use appends a table entry, a repeat is a one-byte
///    back-reference to it;
///  - the previous stamp, time and seq. A stamp, now, time point or seq is
///    the zigzag varint of its difference from the previous one of its
///    kind, taken in uint64_t wraparound arithmetic, so any 64-bit value
///    round-trips bit for bit and a dense, monotone run costs one or two
///    bytes per field.
///
/// Layout (varint is LEB128; Δx is varint zigzag(x - previous x)):
///   record      := varint n, n x (Δstamp, Δtime now, entity)
///                  (after each arrival the previous time is reset to its
///                  now, so an observation's time is coded against it)
///   frame       := u64 seq, i64 next_prune_ticks, u64 load_routed,
///                  u64 load_tried, varint nslots,
///                  nslots x (varint count, count x (Δstamp, entity))
///   entity      := u8 kind (0 observation, 1 instance) body
///   observation := sref mote, sref sensor, Δseq, Δtime, location, attributes
///   instance    := sref observer, sref event, Δseq, u8 layer, Δtime gen_time,
///                  f64 gen_x, f64 gen_y, est_time, location, attributes,
///                  f64 confidence, varint n, n x (sref observer, sref event, Δseq)
///   est_time    := u8 0, Δtime point | u8 1, Δtime begin, Δtime end
///   location    := u8 0, f64 x, f64 y | u8 1, varint n (>= 3), n x (f64 x, f64 y)
///   attributes  := varint n, n x (sref name, u8 type, value)
///                  (type 0 i64, 1 f64, 2 u8 bool, 3 str)
///   sref        := varint 0, str (appends a table entry) | varint k >= 1 (entry k - 1)
///   str         := varint length, bytes
///
/// Decoders return nullopt on any malformed input (truncation, bad tag,
/// count or length past the end, back-reference past the table, interval
/// end before begin, polygon of fewer than 3 vertices, trailing bytes):
/// they never throw and never read out of bounds.

/// Encodes one definition's dynamic engine state as a checkpoint frame.
///
/// A shard checkpoint is a list of (global definition index, frame) pairs
/// taken at an epoch barrier in the shard's stamp-ordered inbox; recovery
/// rebuilds a fresh DetectionEngine by implanting the decoded states and
/// replaying the bounded post-checkpoint log. Only *dynamic* state is
/// framed — `state.def` is ignored: the spec is immutable after
/// registration, and the decoder is handed the runtime's one shared spec
/// for the definition, so condition trees never cross the wire.
[[nodiscard]] std::string encode_definition_state(const core::DefinitionState& state);

/// Decodes a frame produced by encode_definition_state. The result's `def`
/// is `def` itself — the pointer is adopted, the spec is not copied.
/// nullopt on any malformed input, so a corrupted checkpoint fails
/// recovery loudly instead of resurrecting a shard with silently wrong
/// state.
[[nodiscard]] std::optional<core::DefinitionState> decode_definition_state(
    std::string_view frame, std::shared_ptr<const core::EventDefinition> def);

/// A decoded replay record: parallel (entity, now, stamp) arrays.
struct Arrivals {
  std::vector<core::Entity> entities;
  std::vector<time_model::TimePoint> nows;
  std::vector<std::uint64_t> stamps;
};

/// Appends a replay record of the arrivals at `indices` (into the
/// parallel `entities`/`nows`/`stamps` arrays), in one fresh context.
void pack_arrivals(std::string& out, std::span<const std::uint32_t> indices,
                   std::span<const core::Entity> entities,
                   std::span<const time_model::TimePoint> nows,
                   std::span<const std::uint64_t> stamps);

/// Decodes a whole record produced by pack_arrivals; nullopt on any
/// malformed or over-long record.
[[nodiscard]] std::optional<Arrivals> unpack_arrivals(std::string_view record);

/// The arrival count at the front of a record produced by pack_arrivals,
/// read without decoding the arrivals (0 for a malformed prefix).
[[nodiscard]] std::size_t record_arrivals(std::string_view record);

}  // namespace stem::runtime
