#include "core/serialize.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <vector>

namespace stem::core {

namespace {

// --- encoding ---------------------------------------------------------------

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  std::ostringstream ss;
  ss.precision(17);
  ss << v;
  out += ss.str();
}

void append_point(std::string& out, geom::Point p) {
  out += '[';
  append_number(out, p.x);
  out += ',';
  append_number(out, p.y);
  out += ']';
}

void append_location(std::string& out, const geom::Location& loc) {
  if (loc.is_point()) {
    append_point(out, loc.as_point());
    return;
  }
  out += '[';
  bool first = true;
  for (const geom::Point& v : loc.as_field().vertices()) {
    if (!first) out += ',';
    first = false;
    append_point(out, v);
  }
  out += ']';
}

void append_occurrence(std::string& out, const time_model::OccurrenceTime& t) {
  if (t.is_punctual()) {
    out += std::to_string(t.as_point().ticks());
    return;
  }
  out += '[';
  out += std::to_string(t.begin().ticks());
  out += ',';
  out += std::to_string(t.end().ticks());
  out += ']';
}

void append_attributes(std::string& out, const AttributeSet& attrs) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : attrs) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, name);
    out += ':';
    std::visit(
        [&out](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            append_escaped(out, v);
          } else if constexpr (std::is_same_v<T, bool>) {
            out += v ? "true" : "false";
          } else if constexpr (std::is_same_v<T, std::int64_t>) {
            out += std::to_string(v);
          } else {
            append_number(out, v);
          }
        },
        value);
  }
  out += '}';
}

void append_key(std::string& out, const EventInstanceKey& key) {
  out += "{\"observer\":";
  append_escaped(out, key.observer.value());
  out += ",\"event\":";
  append_escaped(out, key.event.value());
  out += ",\"seq\":";
  out += std::to_string(key.seq);
  out += '}';
}

// --- decoding: a small recursive-descent JSON reader ------------------------

class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  bool fail() const { return failed_; }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    failed_ = true;
    return false;
  }

  bool peek_is(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string read_string() {
    skip_ws();
    std::string out;
    if (!consume('"')) return out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = esc;
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) {
      failed_ = true;
      return out;
    }
    ++pos_;  // closing quote
    return out;
  }

  double read_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(s_.data() + start, s_.data() + pos_, value);
    if (ec != std::errc() || start == pos_) failed_ = true;
    (void)ptr;
    return value;
  }

  /// Integer-exact: a pure-integer token (no '.', exponent, or other
  /// trailing cruft) parses via from_chars<int64>, so tick counts beyond
  /// 2^53 round-trip without double-precision loss. Anything else falls
  /// back to the rounded double path.
  std::int64_t read_int() {
    skip_ws();
    std::size_t p = pos_;
    if (p < s_.size() && s_[p] == '-') ++p;
    const std::size_t digits_begin = p;
    while (p < s_.size() && std::isdigit(static_cast<unsigned char>(s_[p])) != 0) ++p;
    const bool pure_integer =
        p > digits_begin &&
        (p >= s_.size() || (s_[p] != '.' && s_[p] != 'e' && s_[p] != 'E' && s_[p] != '+'));
    if (!pure_integer) return static_cast<std::int64_t>(std::llround(read_number()));
    std::int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(s_.data() + pos_, s_.data() + p, value);
    if (ec != std::errc()) {
      failed_ = true;
      return 0;
    }
    (void)ptr;
    pos_ = p;
    return value;
  }

  bool read_bool() {
    skip_ws();
    if (s_.substr(pos_).starts_with("true")) {
      pos_ += 4;
      return true;
    }
    if (s_.substr(pos_).starts_with("false")) {
      pos_ += 5;
      return false;
    }
    failed_ = true;
    return false;
  }

  bool peek_digit_or_minus() {
    skip_ws();
    return pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '-');
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

geom::Point read_point(Reader& r) {
  geom::Point p;
  r.consume('[');
  p.x = r.read_number();
  r.consume(',');
  p.y = r.read_number();
  r.consume(']');
  return p;
}

/// [x, y] -> point; [[x,y],...] -> polygon.
geom::Location read_location(Reader& r) {
  r.consume('[');
  if (r.peek_is('[')) {
    std::vector<geom::Point> vs;
    do {
      vs.push_back(read_point(r));
    } while (r.try_consume(','));
    r.consume(']');
    if (vs.size() < 3) return geom::Location(vs.empty() ? geom::Point{} : vs.front());
    return geom::Location(geom::Polygon(std::move(vs)));
  }
  geom::Point p;
  p.x = r.read_number();
  r.consume(',');
  p.y = r.read_number();
  r.consume(']');
  return geom::Location(p);
}

time_model::OccurrenceTime read_occurrence(Reader& r) {
  if (r.try_consume('[')) {
    const auto b = r.read_int();
    r.consume(',');
    const auto e = r.read_int();
    r.consume(']');
    if (e < b) return time_model::OccurrenceTime(time_model::TimePoint(b));
    return time_model::OccurrenceTime(
        time_model::TimeInterval(time_model::TimePoint(b), time_model::TimePoint(e)));
  }
  return time_model::OccurrenceTime(time_model::TimePoint(r.read_int()));
}

AttributeSet read_attributes(Reader& r) {
  AttributeSet attrs;
  r.consume('{');
  if (r.try_consume('}')) return attrs;
  do {
    const std::string name = r.read_string();
    r.consume(':');
    if (r.peek_is('"')) {
      attrs.set(name, r.read_string());
    } else if (r.peek_digit_or_minus()) {
      const double v = r.read_number();
      if (v == std::floor(v) && std::abs(v) < 1e15 &&
          v == static_cast<double>(static_cast<std::int64_t>(v))) {
        attrs.set(name, static_cast<std::int64_t>(v));
      } else {
        attrs.set(name, v);
      }
    } else {
      attrs.set(name, r.read_bool());
    }
  } while (r.try_consume(','));
  r.consume('}');
  return attrs;
}

EventInstanceKey read_key(Reader& r) {
  EventInstanceKey key;
  r.consume('{');
  do {
    const std::string field = r.read_string();
    r.consume(':');
    if (field == "observer") {
      key.observer = ObserverId(r.read_string());
    } else if (field == "event") {
      key.event = EventTypeId(r.read_string());
    } else if (field == "seq") {
      key.seq = static_cast<std::uint64_t>(r.read_int());
    }
  } while (r.try_consume(','));
  r.consume('}');
  return key;
}

std::optional<Layer> layer_from_string(std::string_view s) {
  if (s == "physical") return Layer::kPhysical;
  if (s == "observation") return Layer::kPhysicalObservation;
  if (s == "sensor") return Layer::kSensor;
  if (s == "cyber-physical") return Layer::kCyberPhysical;
  if (s == "cyber") return Layer::kCyber;
  return std::nullopt;
}

/// Reads one instance object (from '{' through its '}') out of `r`,
/// leaving the reader positioned after the closing brace. Shared by
/// decode_instance and the tagged entity frame.
std::optional<EventInstance> read_instance_body(Reader& r) {
  EventInstance inst;
  if (!r.consume('{')) return std::nullopt;
  do {
    const std::string field = r.read_string();
    if (!r.consume(':')) return std::nullopt;
    if (field == "observer") {
      inst.key.observer = ObserverId(r.read_string());
    } else if (field == "event") {
      inst.key.event = EventTypeId(r.read_string());
    } else if (field == "seq") {
      inst.key.seq = static_cast<std::uint64_t>(r.read_int());
    } else if (field == "layer") {
      const auto layer = layer_from_string(r.read_string());
      if (!layer.has_value()) return std::nullopt;
      inst.layer = *layer;
    } else if (field == "gen_time") {
      inst.gen_time = time_model::TimePoint(r.read_int());
    } else if (field == "gen_location") {
      inst.gen_location = read_point(r);
    } else if (field == "est_time") {
      inst.est_time = read_occurrence(r);
    } else if (field == "est_location") {
      inst.est_location = read_location(r);
    } else if (field == "attributes") {
      inst.attributes = read_attributes(r);
    } else if (field == "confidence") {
      inst.confidence = r.read_number();
    } else if (field == "provenance") {
      if (!r.consume('[')) return std::nullopt;
      if (!r.try_consume(']')) {
        do {
          inst.provenance.push_back(read_key(r));
        } while (r.try_consume(','));
        if (!r.consume(']')) return std::nullopt;
      }
    } else {
      return std::nullopt;  // unknown field
    }
  } while (r.try_consume(','));
  if (!r.consume('}') || r.fail()) return std::nullopt;
  return inst;
}

std::optional<PhysicalObservation> read_observation_body(Reader& r) {
  PhysicalObservation obs;
  if (!r.consume('{')) return std::nullopt;
  do {
    const std::string field = r.read_string();
    if (!r.consume(':')) return std::nullopt;
    if (field == "mote") {
      obs.mote = ObserverId(r.read_string());
    } else if (field == "sensor") {
      obs.sensor = SensorId(r.read_string());
    } else if (field == "seq") {
      obs.seq = static_cast<std::uint64_t>(r.read_int());
    } else if (field == "time") {
      obs.time = time_model::TimePoint(r.read_int());
    } else if (field == "location") {
      obs.location = read_location(r);
    } else if (field == "attributes") {
      obs.attributes = read_attributes(r);
    } else {
      return std::nullopt;
    }
  } while (r.try_consume(','));
  if (!r.consume('}') || r.fail()) return std::nullopt;
  return obs;
}

}  // namespace

std::string encode(const EventInstance& inst) {
  std::string out;
  out.reserve(256);
  out += "{\"observer\":";
  append_escaped(out, inst.key.observer.value());
  out += ",\"event\":";
  append_escaped(out, inst.key.event.value());
  out += ",\"seq\":";
  out += std::to_string(inst.key.seq);
  out += ",\"layer\":";
  append_escaped(out, to_string(inst.layer));
  out += ",\"gen_time\":";
  out += std::to_string(inst.gen_time.ticks());
  out += ",\"gen_location\":";
  append_point(out, inst.gen_location);
  out += ",\"est_time\":";
  append_occurrence(out, inst.est_time);
  out += ",\"est_location\":";
  append_location(out, inst.est_location);
  out += ",\"attributes\":";
  append_attributes(out, inst.attributes);
  out += ",\"confidence\":";
  append_number(out, inst.confidence);
  out += ",\"provenance\":[";
  bool first = true;
  for (const auto& p : inst.provenance) {
    if (!first) out += ',';
    first = false;
    append_key(out, p);
  }
  out += "]}";
  return out;
}

std::string encode(const PhysicalObservation& obs) {
  std::string out;
  out.reserve(128);
  out += "{\"mote\":";
  append_escaped(out, obs.mote.value());
  out += ",\"sensor\":";
  append_escaped(out, obs.sensor.value());
  out += ",\"seq\":";
  out += std::to_string(obs.seq);
  out += ",\"time\":";
  out += std::to_string(obs.time.ticks());
  out += ",\"location\":";
  append_location(out, obs.location);
  out += ",\"attributes\":";
  append_attributes(out, obs.attributes);
  out += '}';
  return out;
}

std::optional<EventInstance> decode_instance(std::string_view json) {
  Reader r(json);
  auto inst = read_instance_body(r);
  if (!inst.has_value() || !r.at_end() || r.fail()) return std::nullopt;
  return inst;
}

std::optional<PhysicalObservation> decode_observation(std::string_view json) {
  Reader r(json);
  auto obs = read_observation_body(r);
  if (!obs.has_value() || !r.at_end() || r.fail()) return std::nullopt;
  return obs;
}

}  // namespace stem::core
