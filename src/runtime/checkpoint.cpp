#include "runtime/checkpoint.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <variant>
#include <utility>

namespace stem::runtime {

namespace {

// --- Binary entity codec (replay records and checkpoint frames) ---

/// ZigZag of a wrapped 64-bit difference: a small step either way is a
/// small varint, and every (previous, next) pair round-trips exactly.
std::uint64_t zigzag(std::uint64_t delta) { return (delta << 1) ^ (0 - (delta >> 63)); }
std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

template <typename T>
T load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// An attribute's type tag is its AttributeValue alternative index, which
// ByteReader::attributes decodes in this order.
static_assert(std::is_same_v<std::variant_alternative_t<0, core::AttributeValue>, std::int64_t> &&
              std::is_same_v<std::variant_alternative_t<1, core::AttributeValue>, double> &&
              std::is_same_v<std::variant_alternative_t<2, core::AttributeValue>, bool> &&
              std::is_same_v<std::variant_alternative_t<3, core::AttributeValue>, std::string>);

/// Encoder side of one record's or frame's coding context. It writes
/// through a fixed staging buffer that it appends to `out` when full (the
/// pack runs under the ingest lock, so a byte costs a store, not a string
/// append) and holds views of the strings it has tabled: the entities it
/// packs must outlive it, and finish() must run last.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}

  /// Appends the staged bytes to `out`.
  void finish() {
    out_.append(buf_.data(), used_);
    used_ = 0;
  }

  template <typename T>
  void raw(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(room(sizeof(T)), &value, sizeof(T));
    used_ += sizeof(T);
  }

  void varint(std::uint64_t v) {
    char* p = room(10);
    char* const begin = p;
    for (; v >= 0x80; v >>= 7) *p++ = static_cast<char>(v | 0x80);
    *p++ = static_cast<char>(v);
    used_ += static_cast<std::size_t>(p - begin);
  }

  void stamp(std::uint64_t s) { delta(stamp_, s); }
  void time(time_model::TimePoint t) { delta(time_, static_cast<std::uint64_t>(t.ticks())); }
  /// Resets the previous time without writing anything (the decoder
  /// mirrors it): a record codes each arrival's entity against its now.
  void rebase_time(time_model::TimePoint t) { time_ = static_cast<std::uint64_t>(t.ticks()); }

  void entity(const core::Entity& entity) {
    if (entity.is_observation()) {
      const core::PhysicalObservation& o = entity.observation();
      raw<std::uint8_t>(0);
      sref(o.mote.value());
      sref(o.sensor.value());
      delta(seq_, o.seq);
      time(o.time);
      location(o.location);
      attributes(o.attributes);
      return;
    }
    const core::EventInstance& inst = entity.instance();
    raw<std::uint8_t>(1);
    key(inst.key);
    raw(static_cast<std::uint8_t>(inst.layer));
    time(inst.gen_time);
    point(inst.gen_location);
    if (inst.est_time.is_punctual()) {
      raw<std::uint8_t>(0);
      time(inst.est_time.begin());
    } else {
      raw<std::uint8_t>(1);
      time(inst.est_time.begin());
      time(inst.est_time.end());
    }
    location(inst.est_location);
    attributes(inst.attributes);
    raw(inst.confidence);
    varint(inst.provenance.size());
    for (const core::EventInstanceKey& k : inst.provenance) key(k);
  }

 private:
  // String table index: open addressing over kSlots, at most kMaxRefs
  // entries (under half full, so probes stay short and always end on an
  // empty slot). Entries past kMaxRefs are still written (the decoder
  // tables them) but never referenced, so every back-reference is a
  // one-byte varint.
  static constexpr unsigned kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kMaxRefs = 127;

  /// A string's length and edge bytes, read with fixed-size loads. For
  /// up to 16 bytes (the short ids a stream repeats) the loads cover
  /// every byte, so equal keys mean equal strings; longer ones are
  /// confirmed byte by byte.
  struct Key {
    std::uint64_t a;
    std::uint64_t b;
    std::size_t size;

    Key() = default;  // trivial, so the entry table costs no set-up
    explicit Key(std::string_view s) : a(0), b(0), size(s.size()) {
      const char* p = s.data();
      if (size >= 8) {
        a = load<std::uint64_t>(p);
        b = load<std::uint64_t>(p + size - 8);
      } else if (size >= 4) {
        a = load<std::uint32_t>(p);
        b = load<std::uint32_t>(p + size - 4);
      } else if (size > 0) {
        a = (std::uint64_t{static_cast<unsigned char>(p[0])} << 16) |
            (std::uint64_t{static_cast<unsigned char>(p[size / 2])} << 8) |
            static_cast<unsigned char>(p[size - 1]);
      }
    }
    [[nodiscard]] std::size_t slot() const {
      return static_cast<std::size_t>(((a ^ std::rotl(b, 29) ^ size) * 0x9E3779B97F4A7C15ULL) >>
                                      (64 - kSlotBits));
    }
    friend bool operator==(const Key&, const Key&) = default;
  };

  struct Entry {
    Key key;
    const char* data;
  };

  /// A pointer to `n` (at most kBuf) writable staged bytes.
  char* room(std::size_t n) {
    if (kBuf - used_ < n) finish();
    return buf_.data() + used_;
  }

  void delta(std::uint64_t& last, std::uint64_t value) {
    varint(zigzag(value - last));
    last = value;
  }

  void sref(std::string_view s) {
    const Key id(s);
    std::size_t slot = id.slot();
    for (; index_[slot] != 0; slot = (slot + 1) & (kSlots - 1)) {
      const Entry& e = entries_[index_[slot] - 1];
      if (e.key == id && (id.size <= 16 || std::memcmp(e.data, s.data(), id.size) == 0)) {
        raw<std::uint8_t>(index_[slot]);
        return;
      }
    }
    raw<std::uint8_t>(0);
    str(s);
    if (tabled_ < kMaxRefs) {
      entries_[tabled_] = Entry{id, s.data()};
      index_[slot] = static_cast<std::uint8_t>(++tabled_);
    }
  }

  void str(std::string_view s) {
    varint(s.size());
    if (s.size() > kBuf) {
      finish();
      out_.append(s);
      return;
    }
    std::memcpy(room(s.size()), s.data(), s.size());
    used_ += s.size();
  }

  void key(const core::EventInstanceKey& k) {
    sref(k.observer.value());
    sref(k.event.value());
    delta(seq_, k.seq);
  }

  void point(geom::Point p) {
    raw(p.x);
    raw(p.y);
  }

  void location(const geom::Location& loc) {
    if (loc.is_point()) {
      raw<std::uint8_t>(0);
      point(loc.as_point());
      return;
    }
    raw<std::uint8_t>(1);
    varint(loc.as_field().size());
    for (const geom::Point p : loc.as_field().vertices()) point(p);
  }

  void attributes(const core::AttributeSet& attrs) {
    varint(attrs.size());
    for (const auto& [name, value] : attrs) {
      sref(name);
      raw(static_cast<std::uint8_t>(value.index()));
      std::visit(
          [this](const auto& v) {
            using V = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<V, std::string>) {
              str(v);
            } else if constexpr (std::is_same_v<V, bool>) {
              raw<std::uint8_t>(v ? 1 : 0);
            } else {
              raw(v);
            }
          },
          value);
    }
  }

  static constexpr std::size_t kBuf = 512;

  std::string& out_;
  std::size_t used_ = 0;
  std::array<char, kBuf> buf_;  ///< staged bytes [0, used_), written before read
  std::uint64_t stamp_ = 0;
  std::uint64_t time_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t tabled_ = 0;
  std::array<std::uint8_t, kSlots> index_{};  ///< slot -> entry + 1, 0 when empty
  std::array<Entry, kMaxRefs> entries_;       ///< written before first read
};

// Lower bounds for ByteReader::count: the smallest entity is an
// observation with back-referenced ids, one-byte seq and time deltas, a
// point location and no attributes.
constexpr std::size_t kMinEntityBytes = 1 + 1 + 1 + 1 + 1 + (1 + 2 * sizeof(double)) + 1;
constexpr std::size_t kMinArrivalBytes = 2 + kMinEntityBytes;   // Δstamp, Δnow
constexpr std::size_t kMinBufferedBytes = 1 + kMinEntityBytes;  // Δstamp

/// Decoder side of one record's or frame's coding context: a
/// bounds-checked reader over the packed bytes that flags failure instead
/// of throwing. Its string table views the input, which must outlive it.
struct ByteReader {
  std::string_view s;
  std::size_t pos = 0;
  bool failed = false;
  std::vector<std::string_view> strings{};
  std::uint64_t last_stamp = 0;
  std::uint64_t last_time = 0;
  std::uint64_t last_seq = 0;

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

  std::uint64_t delta(std::uint64_t& last) {
    last += unzigzag(varint());
    return last;
  }
  std::uint64_t stamp() { return delta(last_stamp); }
  time_model::TimePoint time() {
    return time_model::TimePoint(static_cast<time_model::Tick>(delta(last_time)));
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

  std::string_view view() {
    const std::size_t n = count(1);
    if (failed) return {};
    const std::string_view out = s.substr(pos, n);
    pos += n;
    return out;
  }

  std::string str() { return std::string(view()); }

  std::string sref() {
    const std::uint64_t k = varint();
    if (failed) return {};
    if (k == 0) {
      const std::string_view entry = view();
      if (!failed) strings.push_back(entry);
      return std::string(entry);
    }
    if (k > strings.size()) {  // past the table: out of range or forward
      failed = true;
      return {};
    }
    return std::string(strings[k - 1]);
  }

  geom::Point point() {
    const auto x = get<double>();
    const auto y = get<double>();
    return geom::Point{x, y};
  }

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
    const std::size_t n = count(3);  // back-referenced name, type byte, 1-byte value
    for (std::size_t k = 0; k < n && !failed; ++k) {
      std::string name = sref();
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
    o.mote = core::ObserverId(sref());
    o.sensor = core::SensorId(sref());
    o.seq = delta(last_seq);
    o.time = time();
    o.location = location();
    o.attributes = attributes();
    return o;
  }

  core::EventInstanceKey key() {
    core::EventInstanceKey k;
    k.observer = core::ObserverId(sref());
    k.event = core::EventTypeId(sref());
    k.seq = delta(last_seq);
    return k;
  }

  core::EventInstance instance() {
    core::EventInstance inst;
    inst.key = key();
    inst.layer = static_cast<core::Layer>(tag(static_cast<std::uint8_t>(core::Layer::kCyber) + 1));
    inst.gen_time = time();
    inst.gen_location = point();
    if (tag(2) == 0) {
      inst.est_time = time();
    } else {
      const time_model::TimePoint begin = time();
      const time_model::TimePoint end = time();
      if (end < begin) failed = true;
      if (!failed) inst.est_time = time_model::TimeInterval(begin, end);
    }
    inst.est_location = location();
    inst.attributes = attributes();
    inst.confidence = get<double>();
    const std::size_t n = count(3);  // two back-references, a one-byte delta
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

void pack_arrivals(std::string& out, std::span<const std::uint32_t> indices,
                   std::span<const core::Entity> entities,
                   std::span<const time_model::TimePoint> nows,
                   std::span<const std::uint64_t> stamps) {
  ByteWriter w(out);
  w.varint(indices.size());
  for (const std::uint32_t i : indices) {
    w.stamp(stamps[i]);
    w.time(nows[i]);
    w.entity(entities[i]);
    w.rebase_time(nows[i]);
  }
  w.finish();
}

std::optional<Arrivals> unpack_arrivals(std::string_view record) {
  ByteReader r{record};
  const std::size_t n = r.count(kMinArrivalBytes);
  if (r.failed) return std::nullopt;
  Arrivals out;
  out.entities.reserve(n);
  out.nows.reserve(n);
  out.stamps.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.stamps.push_back(r.stamp());
    const time_model::TimePoint now = r.time();
    std::optional<core::Entity> entity = r.entity();
    if (r.failed) return std::nullopt;
    out.nows.push_back(now);
    out.entities.push_back(std::move(*entity));
    r.last_time = static_cast<std::uint64_t>(now.ticks());
  }
  if (r.pos != record.size()) return std::nullopt;
  return out;
}

std::size_t record_arrivals(std::string_view record) {
  ByteReader r{record};
  return static_cast<std::size_t>(r.varint());
}

std::string encode_definition_state(const core::DefinitionState& state) {
  std::string out;
  ByteWriter w(out);
  w.raw(state.seq);
  w.raw(state.next_prune_at.ticks());
  w.raw(state.load_routed);
  w.raw(state.load_tried);
  w.varint(state.buffers.size());
  for (const auto& slot : state.buffers) {
    w.varint(slot.size());
    for (const core::DefinitionState::BufferedEntity& b : slot) {
      w.stamp(b.stamp);
      w.entity(*b.entity);
    }
  }
  w.finish();
  return out;
}

std::optional<core::DefinitionState> decode_definition_state(
    std::string_view frame, std::shared_ptr<const core::EventDefinition> def) {
  ByteReader r{frame};
  // Braced initializers evaluate left to right: the fields read in frame order.
  core::DefinitionState state{.def = std::move(def),
                              .seq = r.get<std::uint64_t>(),
                              .next_prune_at = time_model::TimePoint(r.get<time_model::Tick>()),
                              .buffers = {},
                              .load_routed = r.get<std::uint64_t>(),
                              .load_tried = r.get<std::uint64_t>()};
  state.buffers.resize(r.count(1));  // a slot takes at least its count byte
  for (auto& slot : state.buffers) {
    const std::size_t n = r.count(kMinBufferedBytes);
    slot.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t stamp = r.stamp();
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
