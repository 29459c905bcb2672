#include "runtime/checkpoint.hpp"

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <variant>
#include <utility>

namespace stem::runtime {

namespace {

// --- Binary entity codec (replay records and checkpoint frames) ---

template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_str(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

void put_point(std::string& out, geom::Point p) {
  put(out, p.x);
  put(out, p.y);
}

void put_location(std::string& out, const geom::Location& loc) {
  if (loc.is_point()) {
    put<std::uint8_t>(out, 0);
    put_point(out, loc.as_point());
    return;
  }
  put<std::uint8_t>(out, 1);
  put_varint(out, loc.as_field().size());
  for (const geom::Point p : loc.as_field().vertices()) put_point(out, p);
}

// An attribute's type tag is its AttributeValue alternative index, which
// ByteReader::attributes decodes in this order.
static_assert(std::is_same_v<std::variant_alternative_t<0, core::AttributeValue>, std::int64_t> &&
              std::is_same_v<std::variant_alternative_t<1, core::AttributeValue>, double> &&
              std::is_same_v<std::variant_alternative_t<2, core::AttributeValue>, bool> &&
              std::is_same_v<std::variant_alternative_t<3, core::AttributeValue>, std::string>);

void put_attributes(std::string& out, const core::AttributeSet& attrs) {
  put_varint(out, attrs.size());
  for (const auto& [name, value] : attrs) {
    put_str(out, name);
    put(out, static_cast<std::uint8_t>(value.index()));
    std::visit(
        [&out](const auto& v) {
          using V = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<V, std::string>) {
            put_str(out, v);
          } else if constexpr (std::is_same_v<V, bool>) {
            put<std::uint8_t>(out, v ? 1 : 0);
          } else {
            put(out, v);
          }
        },
        value);
  }
}

/// Bounds-checked reader over packed bytes (a replay record or checkpoint
/// frame): every read checks the remaining length first and flags failure
/// instead of throwing.
struct ByteReader {
  std::string_view s;
  std::size_t pos = 0;
  bool failed = false;

  [[nodiscard]] std::size_t remaining() const { return s.size() - pos; }

  template <typename T>
  T get() {
    T value{};
    if (failed || remaining() < sizeof(T)) {
      failed = true;
      return value;
    }
    std::memcpy(&value, s.data() + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64 && !failed; shift += 7) {
      const auto byte = get<std::uint8_t>();
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    failed = true;
    return 0;
  }

  /// A count of elements that each take at least `min_bytes`: rejects
  /// counts the rest of the input cannot hold before anything reserves.
  std::size_t count(std::size_t min_bytes) {
    const std::uint64_t n = varint();
    if (failed || n > remaining() / min_bytes) {
      failed = true;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  /// A tag byte that must be below `limit`.
  std::uint8_t tag(std::uint8_t limit) {
    const auto t = get<std::uint8_t>();
    if (t >= limit) failed = true;
    return t;
  }

  std::string str() {
    const std::size_t n = count(1);
    if (failed) return {};
    std::string out(s.substr(pos, n));
    pos += n;
    return out;
  }

  geom::Point point() {
    const auto x = get<double>();
    const auto y = get<double>();
    return geom::Point{x, y};
  }

  time_model::TimePoint time_point() { return time_model::TimePoint(get<time_model::Tick>()); }

  geom::Location location() {
    if (tag(2) == 0) return geom::Location(point());
    const std::size_t n = count(2 * sizeof(double));
    if (n < 3) {  // a polygon needs 3 vertices (its constructor would throw)
      failed = true;
      return geom::Location(geom::Point{});
    }
    std::vector<geom::Point> vertices;
    vertices.reserve(n);
    for (std::size_t k = 0; k < n; ++k) vertices.push_back(point());
    return geom::Location(geom::Polygon(std::move(vertices)));
  }

  core::AttributeSet attributes() {
    core::AttributeSet attrs;
    const std::size_t n = count(3);  // empty name, type byte, 1-byte value
    for (std::size_t k = 0; k < n && !failed; ++k) {
      std::string name = str();
      switch (tag(4)) {
        case 0:
          attrs.set(std::move(name), get<std::int64_t>());
          break;
        case 1:
          attrs.set(std::move(name), get<double>());
          break;
        case 2:
          attrs.set(std::move(name), tag(2) != 0);
          break;
        default:
          attrs.set(std::move(name), str());
          break;
      }
    }
    return attrs;
  }

  core::PhysicalObservation observation() {
    core::PhysicalObservation o;
    o.mote = core::ObserverId(str());
    o.sensor = core::SensorId(str());
    o.seq = get<std::uint64_t>();
    o.time = time_point();
    o.location = location();
    o.attributes = attributes();
    return o;
  }

  core::EventInstanceKey key() {
    core::EventInstanceKey k;
    k.observer = core::ObserverId(str());
    k.event = core::EventTypeId(str());
    k.seq = get<std::uint64_t>();
    return k;
  }

  core::EventInstance instance() {
    core::EventInstance inst;
    inst.key = key();
    inst.layer = static_cast<core::Layer>(tag(static_cast<std::uint8_t>(core::Layer::kCyber) + 1));
    inst.gen_time = time_point();
    inst.gen_location = point();
    if (tag(2) == 0) {
      inst.est_time = time_point();
    } else {
      const time_model::TimePoint begin = time_point();
      const time_model::TimePoint end = time_point();
      if (end < begin) failed = true;
      if (!failed) inst.est_time = time_model::TimeInterval(begin, end);
    }
    inst.est_location = location();
    inst.attributes = attributes();
    inst.confidence = get<double>();
    const std::size_t n = count(2 + sizeof(std::uint64_t));  // two empty strings, a u64
    inst.provenance.reserve(n);
    for (std::size_t k = 0; k < n && !failed; ++k) inst.provenance.push_back(key());
    return inst;
  }

  std::optional<core::Entity> entity() {
    if (tag(2) == 0) {
      core::PhysicalObservation o = observation();
      if (failed) return std::nullopt;
      return core::Entity(std::move(o));
    }
    core::EventInstance inst = instance();
    if (failed) return std::nullopt;
    return core::Entity(std::move(inst));
  }
};

}  // namespace

void pack_entity(std::string& out, const core::Entity& entity) {
  if (entity.is_observation()) {
    const core::PhysicalObservation& o = entity.observation();
    put<std::uint8_t>(out, 0);
    put_str(out, o.mote.value());
    put_str(out, o.sensor.value());
    put(out, o.seq);
    put(out, o.time.ticks());
    put_location(out, o.location);
    put_attributes(out, o.attributes);
    return;
  }
  const core::EventInstance& inst = entity.instance();
  put<std::uint8_t>(out, 1);
  put_str(out, inst.key.observer.value());
  put_str(out, inst.key.event.value());
  put(out, inst.key.seq);
  put(out, static_cast<std::uint8_t>(inst.layer));
  put(out, inst.gen_time.ticks());
  put_point(out, inst.gen_location);
  if (inst.est_time.is_punctual()) {
    put<std::uint8_t>(out, 0);
    put(out, inst.est_time.begin().ticks());
  } else {
    put<std::uint8_t>(out, 1);
    put(out, inst.est_time.begin().ticks());
    put(out, inst.est_time.end().ticks());
  }
  put_location(out, inst.est_location);
  put_attributes(out, inst.attributes);
  put(out, inst.confidence);
  put_varint(out, inst.provenance.size());
  for (const core::EventInstanceKey& k : inst.provenance) {
    put_str(out, k.observer.value());
    put_str(out, k.event.value());
    put(out, k.seq);
  }
}

std::optional<core::Entity> unpack_entity(std::string_view& in) {
  ByteReader r{in};
  std::optional<core::Entity> entity = r.entity();
  if (r.failed) return std::nullopt;
  in.remove_prefix(r.pos);
  return entity;
}

void pack_arrivals(std::string& out, std::span<const std::uint32_t> indices,
                   std::span<const core::Entity> entities,
                   std::span<const time_model::TimePoint> nows,
                   std::span<const std::uint64_t> stamps) {
  put_varint(out, indices.size());
  for (const std::uint32_t i : indices) {
    put(out, stamps[i]);
    put(out, nows[i].ticks());
    pack_entity(out, entities[i]);
  }
}

std::optional<Arrivals> unpack_arrivals(std::string_view record) {
  ByteReader r{record};
  // An arrival takes at least 8 + 8 + 1 bytes.
  const std::size_t n = r.count(2 * sizeof(std::uint64_t) + 1);
  if (r.failed) return std::nullopt;
  Arrivals out;
  out.entities.reserve(n);
  out.nows.reserve(n);
  out.stamps.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.stamps.push_back(r.get<std::uint64_t>());
    out.nows.push_back(r.time_point());
    std::optional<core::Entity> entity = r.entity();
    if (r.failed) return std::nullopt;
    out.entities.push_back(std::move(*entity));
  }
  if (r.pos != record.size()) return std::nullopt;
  return out;
}

std::string encode_definition_state(const core::DefinitionState& state) {
  std::string out;
  put(out, state.seq);
  put(out, state.next_prune_at.ticks());
  put(out, state.load_routed);
  put(out, state.load_tried);
  put_varint(out, state.buffers.size());
  for (const auto& slot : state.buffers) {
    put_varint(out, slot.size());
    for (const core::DefinitionState::BufferedEntity& b : slot) {
      put(out, b.stamp);
      pack_entity(out, *b.entity);
    }
  }
  return out;
}

std::optional<core::DefinitionState> decode_definition_state(std::string_view frame,
                                                             core::EventDefinition def) {
  ByteReader r{frame};
  // Braced initializers evaluate left to right: the fields read in frame order.
  core::DefinitionState state{.def = std::move(def),
                              .seq = r.get<std::uint64_t>(),
                              .next_prune_at = r.time_point(),
                              .buffers = {},
                              .load_routed = r.get<std::uint64_t>(),
                              .load_tried = r.get<std::uint64_t>()};
  state.buffers.resize(r.count(1));  // a slot takes at least its count byte
  for (auto& slot : state.buffers) {
    // A buffered entity takes at least its u64 stamp and kind byte.
    const std::size_t n = r.count(sizeof(std::uint64_t) + 1);
    slot.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const auto stamp = r.get<std::uint64_t>();
      std::optional<core::Entity> entity = r.entity();
      if (r.failed) return std::nullopt;
      slot.push_back(core::DefinitionState::BufferedEntity{
          std::make_shared<const core::Entity>(std::move(*entity)), stamp});
    }
  }
  if (r.failed || r.pos != frame.size()) return std::nullopt;
  return state;
}

}  // namespace stem::runtime
