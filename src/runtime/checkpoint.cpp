#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

namespace stem::runtime {

namespace {

/// ZigZag of a wrapped 64-bit difference: a small step either way is a
/// small varint, and every (previous, next) pair round-trips exactly.
std::uint64_t zigzag(std::uint64_t delta) { return (delta << 1) ^ (0 - (delta >> 63)); }
std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

std::uint64_t ticks(time_model::TimePoint t) { return static_cast<std::uint64_t>(t.ticks()); }

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

// Entity header bits (checkpoint.hpp's grammar).
constexpr std::uint8_t kInstance = 1;
constexpr std::uint8_t kSameShape = 2;
constexpr std::uint8_t kPolygon = 4;
constexpr std::uint8_t kTimeElided = 8;
constexpr std::uint8_t kInterval = 16;
constexpr std::uint8_t kHeaderLimit = 32;  ///< every valid header is below it

/// Strings a context tables: every back-reference is a one-byte varint.
/// Later first uses are written out but tabled by neither side.
constexpr std::size_t kMaxRefs = 127;

}  // namespace

namespace detail {

/// Encoder side of a coding context. It owns copies of the strings it
/// has tabled and of the previous shape, so it outlives the entities it
/// packed, and keeps one undo step: begin() marks, rollback() returns to
/// the mark.
struct WriteContext {
  // String table index: open addressing over kSlots, at most kMaxRefs
  // entries (under half full, so probes stay short and always end on an
  // empty slot).
  static constexpr unsigned kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;

  /// A string's length and edge bytes, read with fixed-size loads. For
  /// up to 16 bytes (the short ids a stream repeats) the loads cover
  /// every byte, so equal keys mean equal strings; longer ones are
  /// confirmed byte by byte.
  struct Key {
    std::uint64_t a;
    std::uint64_t b;
    std::size_t size;

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
    std::size_t at;  ///< the string's first byte in `arena`
  };

  /// What begin() saved; the string table only grows between a mark and
  /// a rollback, so its size there is enough to undo it.
  struct Mark {
    std::uint64_t stamp;
    std::uint64_t time;
    std::uint64_t step;
    std::uint64_t seq;
    std::size_t tabled;
    std::size_t arena;
    bool has_shape;
  };

  std::uint64_t stamp = 0;
  std::uint64_t time = 0;
  std::uint64_t step = 0;  ///< the previous arrival's now - the one before's
  std::uint64_t seq = 0;
  std::string arena;                         ///< tabled strings, back to back
  std::vector<Entry> entries;                ///< tabled strings, table order
  std::array<std::uint8_t, kSlots> index{};  ///< slot -> entry + 1, 0 when empty
  /// The previous entity's shape, per attribute its type byte, name size
  /// (u32) and name bytes; meaningless while !has_shape.
  std::string shape;
  bool has_shape = false;
  Mark mark{};
  std::string shape_undo;    ///< the shape at the mark, once a change since replaced it
  bool shape_saved = false;  ///< shape_undo holds it

  void reset() {
    stamp = time = step = seq = 0;
    arena.clear();
    entries.clear();
    index.fill(0);
    has_shape = false;
  }

  void begin() {
    mark = Mark{stamp, time, step, seq, entries.size(), arena.size(), has_shape};
    shape_saved = false;
  }

  void rollback() {
    // Entries past the mark were tabled last: clearing their slots newest
    // first leaves every older probe chain exactly as it was.
    for (std::size_t k = entries.size(); k-- > mark.tabled;) {
      std::size_t slot = entries[k].key.slot();
      while (index[slot] != k + 1) slot = (slot + 1) & (kSlots - 1);
      index[slot] = 0;
    }
    entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(mark.tabled), entries.end());
    arena.resize(mark.arena);
    stamp = mark.stamp;
    time = mark.time;
    step = mark.step;
    seq = mark.seq;
    if (shape_saved) shape.swap(shape_undo);
    shape_saved = false;
    has_shape = mark.has_shape;
  }

  /// The back-reference (entry + 1) of `s`, or 0 after tabling it when
  /// the table has room.
  std::uint8_t find_or_table(std::string_view s) {
    const Key id(s);
    std::size_t slot = id.slot();
    for (; index[slot] != 0; slot = (slot + 1) & (kSlots - 1)) {
      const Entry& e = entries[index[slot] - 1];
      if (e.key == id && (id.size <= 16 || std::memcmp(arena.data() + e.at, s.data(), id.size) == 0)) {
        return index[slot];
      }
    }
    if (entries.size() < kMaxRefs) {
      entries.push_back(Entry{id, arena.size()});
      arena.append(s);
      index[slot] = static_cast<std::uint8_t>(entries.size());
    }
    return 0;
  }

  [[nodiscard]] bool same_shape(const core::AttributeSet& attrs) const {
    if (!has_shape) return false;
    const char* p = shape.data();
    const char* const end = p + shape.size();
    for (const auto& [name, value] : attrs) {
      if (p == end || static_cast<std::uint8_t>(*p) != value.index() ||
          load<std::uint32_t>(p + 1) != name.size() ||
          std::memcmp(p + 5, name.data(), name.size()) != 0) {
        return false;
      }
      p += 5 + name.size();
    }
    return p == end;
  }

  void set_shape(const core::AttributeSet& attrs) {
    if (!shape_saved) {
      shape.swap(shape_undo);
      shape_saved = true;
    }
    shape.clear();
    for (const auto& [name, value] : attrs) {
      const auto size = static_cast<std::uint32_t>(name.size());
      shape.push_back(static_cast<char>(value.index()));
      shape.append(reinterpret_cast<const char*>(&size), sizeof size);
      shape.append(name);
    }
    has_shape = true;
  }
};

/// Decoder side of a coding context. It owns its strings, so records read
/// through different buffers can share it.
struct ReadContext {
  std::uint64_t stamp = 0;
  std::uint64_t time = 0;
  std::uint64_t step = 0;
  std::uint64_t seq = 0;
  std::vector<std::string> strings;
  std::vector<std::pair<std::string, std::uint8_t>> shape;  ///< (name, type)
  bool has_shape = false;

  void reset() {
    stamp = time = step = seq = 0;
    strings.clear();
    has_shape = false;
  }
};

}  // namespace detail

namespace {

using detail::ReadContext;
using detail::WriteContext;

/// Encoder over a coding context. It writes through a fixed staging
/// buffer that it hands to `flush(data, size)` when full (the pack runs
/// under the ingest lock, so a byte costs a store, not an append);
/// finish() must run last.
template <typename Flush>
class ByteWriter {
 public:
  ByteWriter(WriteContext& ctx, Flush flush) : ctx_(ctx), flush_(std::move(flush)) {}

  /// Hands over the staged bytes.
  void finish() {
    flush_(buf_.data(), used_);
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

  void stamp(std::uint64_t s) { delta(ctx_.stamp, s); }
  void time(time_model::TimePoint t) { delta(ctx_.time, ticks(t)); }
  /// An arrival's now, as the change in its step from the previous now
  /// (Gorilla's delta of delta): a steady cadence costs one byte.
  void now(time_model::TimePoint t) {
    const std::uint64_t step = ticks(t) - ctx_.time;
    varint(zigzag(step - ctx_.step));
    ctx_.step = step;
    ctx_.time = ticks(t);
  }
  /// Resets the previous time without writing anything (the decoder
  /// mirrors it): a record codes each arrival's entity against its now.
  void rebase_time(time_model::TimePoint t) { ctx_.time = ticks(t); }

  void entity(const core::Entity& entity) {
    if (entity.is_observation()) {
      const core::PhysicalObservation& o = entity.observation();
      const bool same = ctx_.same_shape(o.attributes);
      const bool elided = ticks(o.time) == ctx_.time;
      raw(header(0, same, o.location, elided));
      sref(o.mote.value());
      sref(o.sensor.value());
      delta(ctx_.seq, o.seq);
      if (!elided) time(o.time);
      location(o.location);
      attributes(o.attributes, same);
      return;
    }
    const core::EventInstance& inst = entity.instance();
    const bool same = ctx_.same_shape(inst.attributes);
    const bool elided = ticks(inst.gen_time) == ctx_.time;
    const bool interval = !inst.est_time.is_punctual();
    raw(header(interval ? kInstance | kInterval : kInstance, same, inst.est_location, elided));
    key(inst.key);
    raw(static_cast<std::uint8_t>(inst.layer));
    if (!elided) time(inst.gen_time);
    point(inst.gen_location);
    time(inst.est_time.begin());
    if (interval) time(inst.est_time.end());
    location(inst.est_location);
    attributes(inst.attributes, same);
    raw(inst.confidence);
    varint(inst.provenance.size());
    for (const core::EventInstanceKey& k : inst.provenance) key(k);
  }

 private:
  static constexpr std::size_t kBuf = 512;

  static std::uint8_t header(std::uint8_t bits, bool same, const geom::Location& loc,
                             bool elided) {
    return static_cast<std::uint8_t>(bits | (same ? kSameShape : 0) |
                                     (loc.is_point() ? 0 : kPolygon) |
                                     (elided ? kTimeElided : 0));
  }

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
    const std::uint8_t ref = ctx_.find_or_table(s);
    raw(ref);
    if (ref == 0) str(s);
  }

  void str(std::string_view s) {
    varint(s.size());
    if (s.size() > kBuf) {
      finish();
      flush_(s.data(), s.size());
      return;
    }
    std::memcpy(room(s.size()), s.data(), s.size());
    used_ += s.size();
  }

  void key(const core::EventInstanceKey& k) {
    sref(k.observer.value());
    sref(k.event.value());
    delta(ctx_.seq, k.seq);
  }

  void point(geom::Point p) {
    raw(p.x);
    raw(p.y);
  }

  void location(const geom::Location& loc) {
    if (loc.is_point()) {
      point(loc.as_point());
      return;
    }
    varint(loc.as_field().size());
    for (const geom::Point p : loc.as_field().vertices()) point(p);
  }

  void attributes(const core::AttributeSet& attrs, bool same) {
    if (!same) {
      varint(attrs.size());
      for (const auto& [name, value] : attrs) {
        sref(name);
        raw(static_cast<std::uint8_t>(value.index()));
      }
      ctx_.set_shape(attrs);
    }
    for (const auto& [name, value] : attrs) {
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

  WriteContext& ctx_;
  Flush flush_;
  std::size_t used_ = 0;
  std::array<char, kBuf> buf_;  ///< staged bytes [0, used_), written before read
};

// Lower bounds for ByteReader::count: the smallest entity is an
// observation with back-referenced ids, a one-byte seq delta, an elided
// time, a point location and the previous (empty) shape.
constexpr std::size_t kMinEntityBytes = 1 + 1 + 1 + 1 + 2 * sizeof(double);
constexpr std::size_t kMinArrivalBytes = 2 + kMinEntityBytes;   // Δstamp, Δnow
constexpr std::size_t kMinBufferedBytes = 1 + kMinEntityBytes;  // Δstamp

/// Decoder over a coding context: a bounds-checked reader over the packed
/// bytes that flags failure instead of throwing.
struct ByteReader {
  ReadContext& ctx;
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

  std::uint64_t delta(std::uint64_t& last) {
    last += unzigzag(varint());
    return last;
  }
  std::uint64_t stamp() { return delta(ctx.stamp); }
  time_model::TimePoint time() {
    return time_model::TimePoint(static_cast<time_model::Tick>(delta(ctx.time)));
  }
  time_model::TimePoint now() {
    ctx.step += unzigzag(varint());
    ctx.time += ctx.step;
    return time_model::TimePoint(static_cast<time_model::Tick>(ctx.time));
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

  std::string sref() {
    const std::uint64_t k = varint();
    if (failed) return {};
    if (k == 0) {
      std::string entry = str();
      if (!failed && ctx.strings.size() < kMaxRefs) ctx.strings.push_back(entry);
      return entry;
    }
    if (k > ctx.strings.size()) {  // past the table: out of range or forward
      failed = true;
      return {};
    }
    return ctx.strings[k - 1];
  }

  geom::Point point() {
    const auto x = get<double>();
    const auto y = get<double>();
    return geom::Point{x, y};
  }

  geom::Location location(bool polygon) {
    if (!polygon) return geom::Location(point());
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

  core::AttributeSet attributes(bool same) {
    if (same) {
      if (!ctx.has_shape) failed = true;
    } else {
      const std::size_t n = count(3);  // back-referenced name, type byte, 1-byte value
      ctx.shape.resize(n);
      for (auto& [name, type] : ctx.shape) {
        name = sref();
        type = tag(4);
      }
      ctx.has_shape = true;
    }
    core::AttributeSet attrs;
    for (std::size_t k = 0; k < ctx.shape.size() && !failed; ++k) {
      const auto& [name, type] = ctx.shape[k];
      switch (type) {
        case 0:
          attrs.set(name, get<std::int64_t>());
          break;
        case 1:
          attrs.set(name, get<double>());
          break;
        case 2:
          attrs.set(name, tag(2) != 0);
          break;
        default:
          attrs.set(name, str());
          break;
      }
    }
    return attrs;
  }

  core::PhysicalObservation observation(std::uint8_t header) {
    core::PhysicalObservation o;
    o.mote = core::ObserverId(sref());
    o.sensor = core::SensorId(sref());
    o.seq = delta(ctx.seq);
    o.time = (header & kTimeElided) != 0
                 ? time_model::TimePoint(static_cast<time_model::Tick>(ctx.time))
                 : time();
    o.location = location((header & kPolygon) != 0);
    o.attributes = attributes((header & kSameShape) != 0);
    return o;
  }

  core::EventInstanceKey key() {
    core::EventInstanceKey k;
    k.observer = core::ObserverId(sref());
    k.event = core::EventTypeId(sref());
    k.seq = delta(ctx.seq);
    return k;
  }

  core::EventInstance instance(std::uint8_t header) {
    core::EventInstance inst;
    inst.key = key();
    inst.layer = static_cast<core::Layer>(tag(static_cast<std::uint8_t>(core::Layer::kCyber) + 1));
    inst.gen_time = (header & kTimeElided) != 0
                        ? time_model::TimePoint(static_cast<time_model::Tick>(ctx.time))
                        : time();
    inst.gen_location = point();
    if ((header & kInterval) == 0) {
      inst.est_time = time();
    } else {
      const time_model::TimePoint begin = time();
      const time_model::TimePoint end = time();
      if (end < begin) failed = true;
      if (!failed) inst.est_time = time_model::TimeInterval(begin, end);
    }
    inst.est_location = location((header & kPolygon) != 0);
    inst.attributes = attributes((header & kSameShape) != 0);
    inst.confidence = get<double>();
    const std::size_t n = count(3);  // two back-references, a one-byte delta
    inst.provenance.reserve(n);
    for (std::size_t k = 0; k < n && !failed; ++k) inst.provenance.push_back(key());
    return inst;
  }

  std::optional<core::Entity> entity() {
    const std::uint8_t header = tag(kHeaderLimit);
    if ((header & kInstance) == 0) {
      if ((header & kInterval) != 0) failed = true;  // an observation has no est_time
      if (failed) return std::nullopt;
      core::PhysicalObservation o = observation(header);
      if (failed) return std::nullopt;
      return core::Entity(std::move(o));
    }
    core::EventInstance inst = instance(header);
    if (failed) return std::nullopt;
    return core::Entity(std::move(inst));
  }
};

template <typename Flush>
void write_arrivals(WriteContext& ctx, Flush flush, std::span<const std::uint32_t> indices,
                    std::span<const core::Entity> entities,
                    std::span<const time_model::TimePoint> nows,
                    std::span<const std::uint64_t> stamps) {
  ByteWriter w(ctx, std::move(flush));
  w.varint(indices.size());
  for (const std::uint32_t i : indices) {
    w.stamp(stamps[i]);
    w.now(nows[i]);
    w.entity(entities[i]);
    w.rebase_time(nows[i]);
  }
  w.finish();
}

std::optional<Arrivals> read_arrivals(ReadContext& ctx, std::string_view record) {
  ByteReader r{ctx, record};
  const std::size_t n = r.count(kMinArrivalBytes);
  if (r.failed) return std::nullopt;
  Arrivals out;
  out.entities.reserve(n);
  out.nows.reserve(n);
  out.stamps.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.stamps.push_back(r.stamp());
    const time_model::TimePoint now = r.now();
    std::optional<core::Entity> entity = r.entity();
    if (r.failed) return std::nullopt;
    out.nows.push_back(now);
    out.entities.push_back(std::move(*entity));
    ctx.time = ticks(now);
  }
  if (r.pos != record.size()) return std::nullopt;
  return out;
}

}  // namespace

std::string encode_definition_state(const core::DefinitionState& state) {
  std::string out;
  WriteContext ctx;
  ByteWriter w(ctx, [&out](const char* p, std::size_t n) { out.append(p, n); });
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
  ReadContext ctx;
  ByteReader r{ctx, frame};
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

// --- Replay log ---

namespace {

/// Orders a log's controls by push sequence (std::lower_bound).
constexpr auto seq_before = [](const auto& control, std::uint64_t seq) {
  return control.seq < seq;
};

}  // namespace

ReplayLog::ReplayLog() = default;
ReplayLog::~ReplayLog() = default;

void ReplayLog::append(std::span<const std::uint32_t> indices,
                       std::span<const core::Entity> entities,
                       std::span<const time_model::TimePoint> nows,
                       std::span<const std::uint64_t> stamps) {
  if (ctx_ == nullptr) ctx_ = std::make_unique<WriteContext>();
  undo_ = Undo{true, end_, appended_, restart_};
  if (restart_) ctx_->reset();
  restart_ = false;
  ctx_->begin();
  // The size goes in front of the record once the record is written.
  std::uint32_t size = 0;
  write(reinterpret_cast<const char*>(&size), sizeof size);
  write_arrivals(
      *ctx_, [this](const char* p, std::size_t n) { write(p, n); }, indices, entities, nows,
      stamps);
  size = static_cast<std::uint32_t>(end_ - undo_.at - sizeof size);
  overwrite(undo_.at, reinterpret_cast<const char*>(&size), sizeof size);
  appended_ += indices.size();
  ++end_seq_;
}

void ReplayLog::append(ControlBlock block, bool barrier) {
  undo_ = Undo{false, end_, appended_, restart_};
  restart_ = restart_ || barrier;
  controls_.push_back(Control{end_seq_++, end_, appended_, std::move(block), barrier});
}

void ReplayLog::retract() {
  --end_seq_;
  if (undo_.record) {
    end_ = undo_.at;
    appended_ = undo_.appended;
    chunks_.resize(static_cast<std::size_t>((end_ - base_ + kChunk - 1) / kChunk));
    ctx_->rollback();
  } else {
    controls_.pop_back();
  }
  restart_ = undo_.restart;
}

void ReplayLog::truncate_through(std::uint64_t seq) {
  const auto c = std::lower_bound(controls_.begin(), controls_.end(), seq, seq_before);
  if (c == controls_.end() || c->seq != seq || !c->barrier) {
    throw std::invalid_argument("ReplayLog: truncation point is not a held barrier");
  }
  front_seq_ = seq + 1;
  front_at_ = c->at;
  front_appended_ = c->appended;
  controls_.erase(controls_.begin(), c + 1);
  const auto dead = static_cast<std::size_t>((front_at_ - base_) / kChunk);
  chunks_.erase(chunks_.begin(), chunks_.begin() + static_cast<std::ptrdiff_t>(dead));
  base_ += dead * kChunk;
  // Shift the held bytes (those logged after the barrier, before the
  // worker reached it: a few records) down to the first chunk's start, so
  // the dropped records' tail does not pin a chunk's worth of memory.
  // Offsets stay valid: base_ moves with the bytes.
  const auto shift = static_cast<std::size_t>(front_at_ - base_);
  if (shift == 0) return;
  for (std::uint64_t from = front_at_; from < end_;) {
    const std::uint64_t off = from - base_;
    const auto in = static_cast<std::size_t>(off % kChunk);
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(end_ - from, kChunk - in));
    overwrite(from - shift, chunks_[static_cast<std::size_t>(off / kChunk)].get() + in, n);
    from += n;
  }
  base_ = front_at_;
  chunks_.resize(static_cast<std::size_t>((end_ - base_ + kChunk - 1) / kChunk));
}

std::size_t ReplayLog::bytes() const {
  return chunks_.size() * kChunk + chunks_.capacity() * sizeof(chunks_[0]) +
         controls_.capacity() * sizeof(Control);
}

void ReplayLog::write(const char* p, std::size_t n) {
  while (n != 0) {
    auto room = static_cast<std::size_t>(base_ + chunks_.size() * kChunk - end_);
    if (room == 0) {
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(kChunk));
      room = kChunk;
    }
    const std::size_t k = std::min(n, room);
    std::memcpy(chunks_.back().get() + (kChunk - room), p, k);
    p += k;
    n -= k;
    end_ += k;
  }
}

template <typename F>
void ReplayLog::visit(std::uint64_t at, std::size_t n, F&& f) const {
  while (n != 0) {
    const std::uint64_t off = at - base_;
    const auto in = static_cast<std::size_t>(off % kChunk);
    const std::size_t k = std::min(n, kChunk - in);
    f(chunks_[static_cast<std::size_t>(off / kChunk)].get() + in, k);
    at += k;
    n -= k;
  }
}

void ReplayLog::overwrite(std::uint64_t at, const char* p, std::size_t n) {
  visit(at, n, [&p](char* chunk, std::size_t k) {
    std::memmove(chunk, p, k);  // truncate_through shifts bytes down in place
    p += k;
  });
}

void ReplayLog::copy(std::uint64_t at, std::size_t n, std::string& out) const {
  visit(at, n, [&out](const char* chunk, std::size_t k) { out.append(chunk, k); });
}

ReplayLog::Reader::Reader() = default;
ReplayLog::Reader::~Reader() = default;

ReplayLog::ControlBlock ReplayLog::Reader::fetch(const ReplayLog& log, std::uint64_t seq,
                                                 std::string& record) {
  if (seq != next_) {
    if (seq != log.front_seq_) throw std::out_of_range("ReplayLog::Reader: fetch out of order");
    at_ = log.front_at_;  // reading starts over at the front
    restart_ = true;
  }
  if (seq < log.front_seq_ || seq >= log.end_seq_) {
    throw std::out_of_range("ReplayLog::Reader: fetch outside the log");
  }
  next_ = seq + 1;
  record.clear();
  const auto c = std::lower_bound(log.controls_.begin(), log.controls_.end(), seq, seq_before);
  if (c != log.controls_.end() && c->seq == seq) {
    if (c->barrier) restart_ = true;
    return c->block;
  }
  // A record: its size, then its bytes, either of which may straddle
  // chunks.
  std::uint32_t size = 0;
  log.copy(at_, sizeof size, record);
  std::memcpy(&size, record.data(), sizeof size);
  record.clear();
  log.copy(at_ + sizeof size, size, record);
  at_ += sizeof size + size;
  return nullptr;
}

std::optional<Arrivals> ReplayLog::Reader::decode(std::string_view record) {
  if (ctx_ == nullptr) ctx_ = std::make_unique<ReadContext>();
  if (restart_) ctx_->reset();
  restart_ = false;
  return read_arrivals(*ctx_, record);
}

}  // namespace stem::runtime
