#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"

namespace stem::runtime {

/// Checkpoint frame codec for one definition's dynamic engine state.
///
/// A shard checkpoint is a list of (global definition index, frame) pairs
/// taken at an epoch barrier in the shard's stamp-ordered inbox; recovery
/// rebuilds a fresh DetectionEngine by implanting the decoded states and
/// replaying the bounded post-checkpoint log. Only *dynamic* state is
/// framed — the definition spec itself is immutable after registration
/// and is re-supplied from the runtime's registration copy at decode
/// time, so condition trees never cross the wire.
///
/// Frame layout (the binary codec of pack_entity below, so every field,
/// doubles included, round-trips bit for bit):
///   u64 seq, i64 next_prune_ticks, u64 load_routed, u64 load_tried,
///   varint nslots, nslots x (varint count, count x (u64 stamp, entity))
[[nodiscard]] std::string encode_definition_state(const core::DefinitionState& state);

/// Decodes a frame produced by encode_definition_state, adopting `def` as
/// the definition spec. Returns nullopt on any malformed input (truncated
/// frame, count past the end, undecodable entity, trailing bytes) — never
/// throws, never reads out of bounds, so a corrupted checkpoint fails
/// recovery loudly instead of resurrecting a shard with silently wrong
/// state.
[[nodiscard]] std::optional<core::DefinitionState> decode_definition_state(
    std::string_view frame, core::EventDefinition def);

/// Binary entity codec: the in-process form of an entity in replay
/// records and checkpoint frames. Fixed-width fields are copied
/// byte-for-byte in host order (doubles survive exactly, NaN and signed
/// zero included; the bytes never leave the process); lengths and counts
/// are LEB128 varints.
///   entity      := u8 kind (0 observation, 1 instance) body
///   observation := str mote, str sensor, u64 seq, i64 time, location, attributes
///   instance    := str observer, str event, u64 seq, u8 layer, i64 gen_time,
///                  f64 gen_x, f64 gen_y, time, location, attributes,
///                  f64 confidence, varint n, n x (str observer, str event, u64 seq)
///   time        := u8 0, i64 point | u8 1, i64 begin, i64 end
///   location    := u8 0, f64 x, f64 y | u8 1, varint n (>= 3), n x (f64 x, f64 y)
///   attributes  := varint n, n x (str name, u8 type, value)
///                  (type 0 i64, 1 f64, 2 u8 bool, 3 str)
///   str         := varint length, bytes
/// Appends `entity`'s encoding to `out`.
void pack_entity(std::string& out, const core::Entity& entity);

/// Decodes one entity from the front of `in` and drops its bytes from
/// `in`. Returns nullopt on truncated or malformed input (bad tag, count
/// or length past the end, interval end before begin, polygon of fewer
/// than 3 vertices) — never throws, never reads out of bounds; `in` is
/// then unspecified.
[[nodiscard]] std::optional<core::Entity> unpack_entity(std::string_view& in);

/// A decoded replay record: parallel (entity, now, stamp) arrays.
struct Arrivals {
  std::vector<core::Entity> entities;
  std::vector<time_model::TimePoint> nows;
  std::vector<std::uint64_t> stamps;
};

/// Appends a replay record of the arrivals at `indices` (into the
/// parallel `entities`/`nows`/`stamps` arrays): varint count, then per
/// arrival u64 stamp, i64 now, entity.
void pack_arrivals(std::string& out, std::span<const std::uint32_t> indices,
                   std::span<const core::Entity> entities,
                   std::span<const time_model::TimePoint> nows,
                   std::span<const std::uint64_t> stamps);

/// Decodes a whole record produced by pack_arrivals. nullopt on any
/// truncated, malformed or over-long record (same guarantees as
/// unpack_entity).
[[nodiscard]] std::optional<Arrivals> unpack_arrivals(std::string_view record);

}  // namespace stem::runtime
