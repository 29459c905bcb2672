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
/// Every frame, and every run of replay-log records between checkpoint
/// barriers, is written in one *coding context* that the decoder rebuilds
/// as it reads (the time-series layout of Pelkonen et al., "Gorilla",
/// VLDB 2015):
///  - a string table. Each observer, sensor, event or attribute name is an
///    sref: its first use appends a table entry (up to 127 of them), a
///    repeat is a one-byte back-reference to it;
///  - the previous stamp, time, seq and now step. A stamp, time point or
///    seq is the zigzag varint of its difference from the previous one of
///    its kind, and an arrival's now that of its step (now minus the
///    previous now) minus the previous step, all taken in uint64_t
///    wraparound arithmetic: any 64-bit value round-trips bit for bit, a
///    dense, monotone run costs one or two bytes per field, and a steady
///    arrival cadence one byte per now;
///  - the previous entity's shape: its attribute names and types. The
///    paper's observations share one shape, so an entity that repeats it
///    writes its header byte and its varying fields only.
///
/// Layout (varint is LEB128; Δx is varint zigzag(x - previous x); [x] is
/// present only when the entity header says so):
///   record      := varint n, n x (Δstamp, ΔΔnow, entity)
///                  (ΔΔnow is varint zigzag(now - previous time - previous
///                  step); the now becomes the previous time, so an
///                  observation's time is coded against it, and is
///                  restored as such after the entity)
///   log         := per arrival item, u32 size, record (size bytes), in
///                  push order; a control item takes no bytes. A record
///                  after a checkpoint barrier starts a fresh context,
///                  any other continues the previous record's
///   frame       := u64 seq, i64 next_prune_ticks, u64 load_routed,
///                  u64 load_tried, varint nslots,
///                  nslots x (varint count, count x (Δstamp, entity))
///   entity      := u8 header, observation | instance
///   header      := bit 0: kind (0 observation, 1 instance)
///                  bit 1: same shape — the attribute names and types are
///                         the context's previous entity's and are not
///                         written (rejected when the context has none)
///                  bit 2: polygon location (else a point)
///                  bit 3: time elided — the observation's time (an
///                         instance's gen_time) equals the previous time
///                  bit 4: interval est_time (instances only)
///                  bits 5-7: zero
///   observation := sref mote, sref sensor, Δseq, [Δtime], location, attributes
///   instance    := sref observer, sref event, Δseq, u8 layer, [Δtime gen_time],
///                  f64 gen_x, f64 gen_y, est_time, location, attributes,
///                  f64 confidence, varint n, n x (sref observer, sref event, Δseq)
///   est_time    := Δtime point | Δtime begin, Δtime end
///   location    := f64 x, f64 y | varint n (>= 3), n x (f64 x, f64 y)
///   attributes  := [shape], one value per shape entry, in shape order
///   shape       := varint n, n x (sref name, u8 type)
///                  (type 0 i64, 1 f64, 2 bool, 3 str)
///   value       := i64 | f64 | u8 bool (0 or 1) | str
///   sref        := varint 0, str (appends a table entry while the table
///                  holds fewer than 127) | varint k in [1, table size]
///                  (entry k - 1)
///   str         := varint length, bytes
///
/// Decoders return nullopt on any malformed input (truncation, bad tag or
/// header bit, count or length past the end, back-reference past the
/// table, same-shape header with no shape in the context, interval end
/// before begin, polygon of fewer than 3 vertices, trailing bytes): they
/// never throw and never read out of bounds.

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

namespace detail {
struct WriteContext;
struct ReadContext;
}  // namespace detail

/// One shard's replay log: every work item pushed since the shard's last
/// checkpoint, in push order, each with a dense push sequence (the first
/// item ever appended is 1). An arrival item is packed straight into one
/// byte log grown in kChunk-byte chunks, as a u32 size and the record; a
/// control item takes no bytes and keeps its block as pushed. Records
/// share one coding context, restarted only where a reader can start: at
/// the first record and at the first record after a checkpoint barrier,
/// which is where truncate_through leaves the front.
///
/// Memory is the packed bytes plus one entry per control item: no heap
/// object per record, and nothing at all before the first append. The
/// log takes no lock; its owner serializes every call.
class ReplayLog {
 public:
  /// A control item's block, held as pushed (the log never looks inside).
  using ControlBlock = std::shared_ptr<const void>;
  static constexpr std::size_t kChunk = 4096;

  ReplayLog();
  ReplayLog(const ReplayLog&) = delete;
  ReplayLog& operator=(const ReplayLog&) = delete;
  ~ReplayLog();

  /// Appends a record of the arrivals at `indices` into the parallel
  /// `entities`/`nows`/`stamps` arrays.
  void append(std::span<const std::uint32_t> indices, std::span<const core::Entity> entities,
              std::span<const time_model::TimePoint> nows,
              std::span<const std::uint64_t> stamps);
  /// Appends a control item. A `barrier` (checkpoint) item ends the
  /// coding context: the next record starts a fresh one.
  void append(ControlBlock block, bool barrier);
  /// Undoes the last append: bytes, counters and coding context return
  /// to exactly what they were (for a push that never reached the inbox).
  /// One undo step: the last mutating call must be that append.
  void retract();
  /// Drops every item through push sequence `seq`, which must be a
  /// barrier's (std::invalid_argument otherwise), and frees the chunks
  /// that held only dropped records.
  void truncate_through(std::uint64_t seq);

  /// Push sequence of the first item held (end_seq() when empty).
  [[nodiscard]] std::uint64_t front_seq() const { return front_seq_; }
  /// One past the last item's push sequence.
  [[nodiscard]] std::uint64_t end_seq() const { return end_seq_; }
  /// Bytes the log holds: its chunks (the last one's free tail included)
  /// and the containers around them.
  [[nodiscard]] std::size_t bytes() const;
  /// Arrivals in the records held.
  [[nodiscard]] std::uint64_t arrivals() const { return appended_ - front_appended_; }
  /// Calls `f(seq, block)` for every control item held, in push order.
  template <typename F>
  void for_each_control(F&& f) const {
    for (const Control& c : controls_) f(c.seq, c.block);
  }

  /// Sequential decoder of a log: it reads items in push order from the
  /// front, rebuilding the coding context as it goes. fetch copies an
  /// item out of the log and decode decodes it, so an owner that guards
  /// the log with a lock holds it for fetch only. A reader that failed to
  /// decode is spent: its context is no longer the writer's.
  class Reader {
   public:
    Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;
    ~Reader();

    /// Fetches item `seq` of `log`: its front item, or the one after the
    /// item fetched last (truncation through a fetched barrier in between
    /// is fine). A control item's block is returned; for a record it is
    /// null and the record's bytes are gathered into `record`, to be
    /// decoded before the next fetch. Throws std::out_of_range for any
    /// other `seq`.
    ControlBlock fetch(const ReplayLog& log, std::uint64_t seq, std::string& record);
    /// Decodes `record` as the log's next record in the reader's context:
    /// the one fetched last (a fresh reader decodes a log's first record
    /// from its bytes alone). nullopt on any malformed or over-long record.
    [[nodiscard]] std::optional<Arrivals> decode(std::string_view record);

   private:
    std::unique_ptr<detail::ReadContext> ctx_;
    std::uint64_t next_ = 0;  ///< push sequence after the last fetch
    std::uint64_t at_ = 0;    ///< byte offset after the last fetch
    bool restart_ = true;     ///< the next record starts a fresh context
  };

 private:
  /// A control item: its push sequence, the byte end and arrival total
  /// when it was appended (where truncation through it moves the front).
  struct Control {
    std::uint64_t seq;
    std::uint64_t at;
    std::uint64_t appended;
    ControlBlock block;
    bool barrier;
  };
  /// What retract() needs of the last append.
  struct Undo {
    bool record;
    std::uint64_t at;
    std::uint64_t appended;
    bool restart;
  };

  /// Appends `n` bytes at the end, adding chunks as they fill.
  void write(const char* p, std::size_t n);
  /// Overwrites the `n` bytes at absolute offset `at` (already written)
  /// with `p`, which may overlap them from above.
  void overwrite(std::uint64_t at, const char* p, std::size_t n);
  /// Appends the `n` bytes at absolute offset `at` to `out`.
  void copy(std::uint64_t at, std::size_t n, std::string& out) const;
  /// Calls `f(chunk bytes, count)` over the `n` bytes at offset `at`.
  template <typename F>
  void visit(std::uint64_t at, std::size_t n, F&& f) const;

  // Byte offsets count from the log's first byte ever written.
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::uint64_t base_ = 0;      ///< offset of chunks_.front()'s first byte
  std::uint64_t front_at_ = 0;  ///< offset of the first held record
  std::uint64_t end_ = 0;       ///< offset one past the last byte written
  std::vector<Control> controls_;  ///< held control items, ascending seq
  std::uint64_t front_seq_ = 1;
  std::uint64_t end_seq_ = 1;
  std::uint64_t appended_ = 0;        ///< arrivals ever appended (net of retracts)
  std::uint64_t front_appended_ = 0;  ///< appended_ at the front
  std::unique_ptr<detail::WriteContext> ctx_;  ///< from the first record on
  bool restart_ = false;  ///< a barrier was appended since the last record
  Undo undo_{};
};

}  // namespace stem::runtime
