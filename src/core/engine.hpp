#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/event_def.hpp"
#include "core/observer.hpp"
#include "core/routing.hpp"
#include "geom/grid_index.hpp"
#include "geom/rtree.hpp"

namespace stem::core {

/// Engine tuning knobs.
struct EngineOptions {
  /// Composite-condition evaluation strategy (ablation E3).
  EvalMode eval_mode = EvalMode::kShortCircuit;
  /// Per-slot buffer cap; oldest entities are evicted beyond this. Bounds
  /// the join cost per arrival.
  std::size_t max_buffer = 64;
  /// Cascade depth cap for observe_cascading(): derived instances are
  /// re-observed until this derivation depth (direct emissions are depth
  /// 1). Instances emitted *at* the cap are delivered but not re-ingested
  /// — the cycle guard that terminates a definition whose output type
  /// feeds its own input (each suppressed re-ingestion is counted in
  /// EngineStats::cascade_truncated).
  std::size_t max_cascade_depth = 8;
};

/// Engine throughput/selectivity counters. Each engine owns its counters
/// and is single-threaded; the sharded runtime keeps one engine (and thus
/// one counter set) per shard and sums them on read, so counters are never
/// written concurrently.
struct EngineStats {
  std::uint64_t entities_in = 0;     ///< entities fed to the engine
  std::uint64_t bindings_tried = 0;  ///< candidate slot bindings formed
  std::uint64_t bindings_matched = 0;
  std::uint64_t instances_out = 0;
  std::uint64_t evicted = 0;  ///< buffer-cap and window evictions
  /// Derived instances re-observed by the cascading path (instances whose
  /// event type routes to at least one definition slot; routeless
  /// emissions are skipped — re-observing them is a provable no-op).
  std::uint64_t cascade_reingested = 0;
  /// Re-ingestions suppressed by the depth cap: instances emitted at
  /// depth == max_cascade_depth whose type routes somewhere. Nonzero
  /// means the cycle guard fired (or the hierarchy is deeper than the
  /// configured cap).
  std::uint64_t cascade_truncated = 0;

  EngineStats& operator+=(const EngineStats& o) {
    entities_in += o.entities_in;
    bindings_tried += o.bindings_tried;
    bindings_matched += o.bindings_matched;
    instances_out += o.instances_out;
    evicted += o.evicted;
    cascade_reingested += o.cascade_reingested;
    cascade_truncated += o.cascade_truncated;
    return *this;
  }

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

/// One emitted instance tagged with the index (registration order) of the
/// definition that produced it. The sharded runtime merges per-shard
/// streams back into global definition order using the tag; plain callers
/// use the untagged observe() overloads.
///
/// Cascading emissions additionally carry their hierarchical *sub-stamp*
/// within the originating arrival: `(arrival stamp, depth, emit_index)`
/// orders the full cascade closure deterministically. The arrival stamp
/// is the caller's (the runtime stamps on ingest; a lone engine orders by
/// call); `depth` is the derivation distance from the raw arrival (1 =
/// emitted directly from it); `emit_index` ranks the instance within its
/// (arrival, depth) level in stream order. Non-cascading paths leave the
/// defaults.
struct Emission {
  std::uint32_t def = 0;
  std::uint32_t depth = 1;
  std::uint32_t emit_index = 0;
  EventInstance instance;
};

/// Cumulative load attributed to one definition (rebalancing input).
/// `routed`/`tried` are counters that survive migration (they travel in
/// DefinitionState); `buffered` is the current buffered-entity gauge.
struct DefinitionLoad {
  std::uint64_t routed = 0;    ///< arrivals routed to the definition
  std::uint64_t tried = 0;     ///< candidate bindings formed for it
  std::uint64_t buffered = 0;  ///< entities currently held in its buffers
};

/// The full dynamic state of one definition, extracted from an engine for
/// implanting into another (live migration between shard engines). The
/// buffered entities keep their *relative* arrival order via `stamp`;
/// implanting renumbers them into the destination engine's stamp space so
/// cross-slot same-arrival identity (self-join dedup, consume) and
/// ascending buffer order are preserved exactly.
struct DefinitionState {
  struct BufferedEntity {
    std::shared_ptr<const Entity> entity;
    std::uint64_t stamp = 0;  ///< source-engine arrival stamp (order only)
  };

  /// The registered spec, shared with the engine that hosts it (and the
  /// sharded runtime's registration record): moving a definition between
  /// engines never copies its condition tree.
  std::shared_ptr<const EventDefinition> def;
  /// Instance sequence counter of the definition's event type at
  /// extraction. Definitions sharing an event type on one engine share the
  /// counter; the implanting engine keeps the larger of this and its own
  /// value, so each definition's sequence keeps increasing wherever its
  /// same-type siblings live.
  std::uint64_t seq = 0;
  /// Horizon watermark: earliest instant any buffered entity can expire.
  time_model::TimePoint next_prune_at = time_model::TimePoint::max();
  std::vector<std::vector<BufferedEntity>> buffers;  ///< per slot, ascending stamp
  std::uint64_t load_routed = 0;  ///< cumulative DefinitionLoad::routed
  std::uint64_t load_tried = 0;   ///< cumulative DefinitionLoad::tried
};

/// The detection engine: the concrete observer (Def. 4.3) used at every
/// level of the hierarchy (mote, sink, CCU — Fig. 2).
///
/// For each registered event definition the engine buffers recently seen
/// entities per slot. When an entity arrives it is placed into every slot
/// whose filter matches, then the engine enumerates bindings that include
/// the new entity, evaluates the composite condition (Eq. 4.5) on each,
/// and synthesizes an event instance (Eq. 4.7) per match.
///
/// Candidate selection is indexed (see docs/architecture.md, "Candidate
/// selection & indexing"):
///  - a *routing index* built at add_definition() time maps an arrival's
///    sensor / event-type to the (definition, slot) pairs whose filters
///    can possibly match, so unrelated definitions cost nothing;
///  - slots constrained by conjunctive spatial predicates back their
///    buffers with a `geom::GridIndex` / `geom::RTree`, so the binding
///    enumerator visits only spatially plausible candidates;
///  - the enumerator itself is iterative and allocation-free in steady
///    state, and window pruning is amortized behind per-definition
///    horizon watermarks.
class DetectionEngine : public Observer {
 public:
  /// `id` is the observer identity stamped into instances; `layer` the
  /// hierarchy level of the *output* instances; `location` the observer's
  /// own position (the l^g of generated instances).
  DetectionEngine(ObserverId id, Layer layer, geom::Point location, EngineOptions options = {});

  /// Registers a definition and builds its routing/spatial index entries.
  /// Returns the definition's index (the tag emitted with its instances).
  /// Throws std::invalid_argument if `def` is null, if the condition
  /// references a slot index beyond the declared slots, or if the
  /// definition has no slots. The engine shares `def` (it is immutable);
  /// snapshot and extract hand the same pointer back.
  std::size_t add_definition(std::shared_ptr<const EventDefinition> def);
  /// Convenience: wraps `def` in a fresh shared spec and registers it.
  std::size_t add_definition(EventDefinition def);

  /// Removes the definition at `def_index` and returns its full dynamic
  /// state (spec, buffered entities, sequence counter, horizon watermark,
  /// load counters) for implanting into another engine. The index slot is
  /// retired and reused by a later implant, so the indices of the other
  /// definitions — and the tags of their emissions — never shift. Throws
  /// std::out_of_range for an unknown or already-extracted index.
  [[nodiscard]] DefinitionState extract_definition_state(std::size_t def_index);

  /// Non-destructive variant of extract_definition_state: copies the
  /// definition's dynamic state (buffered entities by shared_ptr) without
  /// retiring the slot — the engine keeps running untouched. `def` is the
  /// registered spec pointer itself, not a copy. Throws std::out_of_range
  /// for an unknown or extracted index.
  [[nodiscard]] DefinitionState snapshot_definition_state(std::size_t def_index) const;

  /// Installs a previously extracted definition, rebuilding its routing
  /// and spatial index entries and renumbering its buffered entities into
  /// this engine's stamp space. The event type's sequence counter becomes
  /// the larger of the carried and the local value (it never rewinds).
  /// The spec pointer `state.def` is adopted as is (a null one throws
  /// std::invalid_argument). Returns the definition's index in this engine.
  std::size_t implant_definition_state(DefinitionState state);

  /// Appends (definition index, cumulative load) for every registered
  /// definition — the per-definition cost attribution a rebalancer needs.
  void collect_definition_loads(std::vector<std::pair<std::uint32_t, DefinitionLoad>>& out) const;

  /// Drops every buffered entity and resets all horizon watermarks (they
  /// re-arm as new entities buffer). Definitions, sequence counters, and
  /// stats are kept; dropped entities are not counted as evicted.
  void clear();

  [[nodiscard]] const ObserverId& id() const override { return id_; }
  [[nodiscard]] Layer layer() const { return layer_; }
  [[nodiscard]] geom::Point location() const { return location_; }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  /// Number of currently registered (non-extracted) definitions.
  [[nodiscard]] std::size_t definition_count() const { return active_defs_; }

  std::vector<EventInstance> observe(const Entity& entity, time_model::TimePoint now) override;

  /// Core observation path: appends definition-tagged emissions to `out`
  /// (not cleared). Exactly the same instances, in the same order, as the
  /// untagged overload.
  void observe(const Entity& entity, time_model::TimePoint now, std::vector<Emission>& out);

  /// Zero-copy arrival: identical to the tagged observe() above, but slots
  /// that buffer the entity share `entity` instead of deep-copying it —
  /// the caller's shared storage (e.g. the sharded runtime's refcounted
  /// ingest batch) stays alive while any buffer references it. This is
  /// the ROADMAP "per-arrival entity copy" lever: buffered multi-slot
  /// definitions no longer cost one Entity copy per arrival.
  void observe(const std::shared_ptr<const Entity>& entity, time_model::TimePoint now,
               std::vector<Emission>& out);

  /// Hierarchical cascade (Fig. 2 in one engine): observes `entity`, then
  /// re-observes every derived instance breadth-first — level d+1 is
  /// produced by re-feeding level d's instances in stream order — until a
  /// level is empty or `EngineOptions::max_cascade_depth` is reached.
  /// Returns all instances of the closure in stream order (level 1, then
  /// level 2, ...): exactly the sequence the hand-rolled caller-side
  /// re-feed loop (observe + re-observe frontier) used to produce.
  /// Instances whose event type routes to no definition are not re-fed
  /// (no observable difference); instances emitted at the depth cap are
  /// delivered but never re-fed (EngineStats::cascade_truncated).
  std::vector<EventInstance> observe_cascading(const Entity& entity, time_model::TimePoint now);
  /// Tagged cascade: each emission carries its (depth, emit_index)
  /// sub-stamp (see Emission). Appends to `out` (not cleared).
  void observe_cascading(const Entity& entity, time_model::TimePoint now,
                         std::vector<Emission>& out);

  /// True iff `entity`'s discriminant routes to at least one registered
  /// definition slot (pure index dispatch — residual filter fields are
  /// not checked). The cascading paths use this to skip provably inert
  /// re-ingestions; the sharded runtime's cascade coordinator applies the
  /// same rule at shard level so the two stay comparable.
  [[nodiscard]] bool routes_anywhere(const Entity& entity);

  /// Batched ingest: exactly equivalent to calling
  /// `observe(batch[i], nows[i])` for i in order and concatenating the
  /// results — same instances, same order, same stats. Throws
  /// std::invalid_argument when the spans differ in length.
  std::vector<EventInstance> observe_batch(std::span<const Entity> batch,
                                           std::span<const time_model::TimePoint> nows);
  /// Batched ingest where every arrival shares one observation time.
  std::vector<EventInstance> observe_batch(std::span<const Entity> batch,
                                           time_model::TimePoint now);
  /// Definition-tagged batch path (the sharded runtime's entry point).
  void observe_batch(std::span<const Entity> batch, std::span<const time_model::TimePoint> nows,
                     std::vector<Emission>& out);

  /// Drops buffered entities older than the definitions' windows at `now`.
  /// observe() performs this lazily (per-definition watermarks make it a
  /// no-op until some buffered entity can actually expire); exposed for
  /// idle-time cleanup.
  void prune(time_model::TimePoint now);

 private:
  struct Buffered {
    std::shared_ptr<const Entity> entity;
    std::uint64_t stamp;      ///< global arrival stamp (dedup across slots)
    geom::BoundingBox box;    ///< entity location bounds (guard prechecks)
  };

  /// Emission target: the untagged API writes instances straight into the
  /// caller's vector (no intermediate buffering on the hot path); the
  /// tagged API captures the producing definition per instance. Exactly
  /// one target is set; the branch costs one predictable test per
  /// *emission*, not per arrival.
  struct EmitSink {
    std::vector<EventInstance>* plain = nullptr;
    std::vector<Emission>* tagged = nullptr;

    void emit(std::uint32_t def, EventInstance&& inst) {
      if (tagged != nullptr) {
        tagged->push_back(Emission{def, 1, 0, std::move(inst)});
      } else {
        plain->push_back(std::move(inst));
      }
    }
    [[nodiscard]] std::size_t size() const {
      return tagged != nullptr ? tagged->size() : plain->size();
    }
  };

  /// Spatial backing for one guarded slot buffer: a uniform grid when the
  /// slot has a metric (distance-radius) guard — the radius is the natural
  /// cell size — and an R-tree when its guards are purely topological.
  class SlotSpatial {
   public:
    explicit SlotSpatial(double cell) : rep_(std::in_place_type<geom::GridIndex<std::uint64_t>>, cell) {}
    SlotSpatial() : rep_(std::in_place_type<geom::RTree<std::uint64_t>>) {}

    void insert(const geom::BoundingBox& box, std::uint64_t stamp) {
      std::visit([&](auto& index) { index.insert(box, stamp); }, rep_);
    }
    void erase(const geom::BoundingBox& box, std::uint64_t stamp) {
      std::visit([&](auto& index) { index.erase(box, stamp); }, rep_);
    }
    void query(const geom::BoundingBox& box, std::vector<std::uint64_t>& out) const {
      std::visit([&](const auto& index) {
        index.visit(box, [&out](const std::uint64_t stamp) { out.push_back(stamp); });
      }, rep_);
    }
    void clear() {
      std::visit([](auto& index) { index.clear(); }, rep_);
    }

   private:
    std::variant<geom::GridIndex<std::uint64_t>, geom::RTree<std::uint64_t>> rep_;
  };

  /// One spatial guard usable while enumerating candidates for a slot:
  /// candidates must lie within `radius` of the already-bound `partner`
  /// slot, or inside the precomputed constant `region` box.
  struct Guard {
    static constexpr std::uint32_t kNoPartner = 0xffffffffu;
    std::uint32_t partner = kNoPartner;  ///< kNoPartner => constant region
    geom::BoundingBox region;            ///< pre-inflated by radius
    double radius = 0.0;
  };

  /// One shared plan node: the buffered entity stream of one
  /// (filter, window) key, fanned out to every subscribing
  /// (definition, slot). Definitions with equal filters accept exactly the
  /// same entities under the same expiry policy, so their slot buffers are
  /// views of one deque — and one spatial index — instead of per-
  /// definition copies (the multi-query sharing this engine's plans are
  /// built on). Only retain-mode (kUnrestricted) definitions subscribe:
  /// consume-mode retires matched entities mid-buffer, which would be
  /// observable by co-subscribers.
  struct StreamNode {
    std::deque<Buffered> buf;  ///< ascending stamp
    /// Shared spatial backing, created when any subscriber guards this
    /// stream's slot; same activation hysteresis as before sharing.
    std::unique_ptr<SlotSpatial> spatial;
    bool spatial_active = false;
    /// Registered in canonical_streams_ under `key`; new same-key
    /// subscriptions join it (only while it is empty — a late subscriber
    /// must not see entities buffered before it registered).
    bool canonical = false;
    /// Subscribing (definition, slot) count; evictions count once per
    /// subscriber so EngineStats::evicted matches unshared buffers.
    std::uint32_t subscribers = 0;
    /// Stamp of the last arrival inserted; dedups insertion when several
    /// subscribed routes of one arrival land on the same stream.
    std::uint64_t last_stamp = 0;
    time_model::Duration window{};
    /// Earliest instant the front entity can expire; stale-low only costs
    /// a spurious check, never stale-high.
    time_model::TimePoint next_prune_at = time_model::TimePoint::max();
    std::string key;  ///< canonical registry key; empty for private streams
  };

  struct DefState {
    explicit DefState(std::shared_ptr<const EventDefinition> d) : def(std::move(d)) {}

    std::shared_ptr<const EventDefinition> def;  ///< null once extracted
    /// Consume-mode multi-slot definitions keep private per-slot buffers
    /// (consumption mutates mid-buffer); retain-mode ones subscribe their
    /// slots to shared streams instead.
    std::vector<std::deque<Buffered>> buffers;  // one per slot; ascending stamp
    std::vector<std::uint32_t> streams;         // per slot: stream id (stream_backed)
    std::vector<std::vector<Guard>> guards;     // per slot (multi-slot only)
    /// Single-slot definitions never read their buffer (bindings only ever
    /// contain the fresh arrival), so they skip buffering entirely.
    bool buffered = false;
    /// True when the slot buffers live in shared StreamNodes (buffered
    /// retain-mode definitions).
    bool stream_backed = false;
    /// Index into seq_counters_, resolved at add_definition() time.
    /// Definitions sharing an event type share a counter, keeping
    /// EventInstanceKey unique without per-instance string hashing.
    std::uint32_t seq_idx = 0;
    /// Earliest instant any privately buffered entity may fall out of the
    /// window (shared streams carry their own watermark); may be stale-low
    /// (spurious check) but never stale-high.
    time_model::TimePoint next_prune_at = time_model::TimePoint::max();

    /// Per-definition load attribution (DefinitionLoad counters; they
    /// migrate with the definition).
    std::uint64_t load_routed = 0;
    std::uint64_t load_tried = 0;
    /// False once the definition was extracted (migrated away); the slot
    /// is a tombstone awaiting reuse by implant_definition_state, so that
    /// live definitions keep stable indices.
    bool active = true;
  };

  /// Binding-enumeration scratch, engine-level and sized to the widest
  /// registered definition: the enumerator never re-enters (cascades
  /// re-feed after observe_impl returns), so one set serves every
  /// definition — registration no longer allocates per-definition scratch,
  /// which is what lets 10^6 near-duplicate definitions register in
  /// seconds.
  struct EnumScratch {
    std::vector<const Buffered*> chosen;
    std::vector<const Entity*> binding;
    std::vector<std::uint32_t> order;                // slots except the fixed one
    std::vector<std::size_t> cursor;                 // per depth
    std::vector<std::vector<const Buffered*>> cand;  // per slot: index-query results
    /// Candidate source per slot: 0 = plain buffer scan, 1 = buffer scan
    /// with guard-box precheck (qbox), 2 = spatial-index result (cand).
    std::vector<std::uint8_t> source;
    std::vector<geom::BoundingBox> qbox;  // per slot: active guard query box
    std::vector<std::uint64_t> stamp_scratch;
    /// Backtracking re-descends into a depth once per outer candidate;
    /// when a slot's applicable guards are all constant-region (no bound
    /// partner), its prepared candidates are identical each time, so
    /// preparation is skipped while prep_epoch matches cur_epoch (bumped
    /// per try_bindings call — cross-definition reuse is impossible since
    /// the epoch strictly increases).
    std::vector<std::uint64_t> prep_epoch;  // 64-bit: may never wrap
    std::uint64_t cur_epoch = 0;

    /// Grows every per-slot array to at least `n` slots. `binding` tracks
    /// the high-water mark (it is never shrunk by the enumerator).
    void fit(std::size_t n) {
      if (n <= binding.size()) return;
      chosen.resize(n);
      binding.resize(n);
      cursor.resize(n);
      cand.resize(n);
      source.resize(n, 0);
      qbox.resize(n);
      prep_epoch.resize(n, 0);
      order.reserve(n);
    }
  };

  /// Buffer occupancy at which a retain-mode guarded slot starts (stops)
  /// maintaining its spatial index; hysteresis avoids thrash at the edge.
  static constexpr std::size_t kIndexActivate = 32;
  static constexpr std::size_t kIndexDeactivate = 8;

  /// Shared add/implant validation + registration-time DefState setup
  /// (guards, buffering mode, sequence-counter resolution). Stream
  /// subscription is the caller's step: add_definition subscribes every
  /// slot fresh; implant_definition_state must place carried non-empty
  /// buffers in private streams first.
  void validate_definition(const EventDefinition* def) const;
  void init_def_state(DefState& ds);
  /// Allocates a definition slot (reusing a tombstone when available) and
  /// moves `def` into it; returns the slot index.
  std::uint32_t alloc_def_slot(std::shared_ptr<const EventDefinition> def);

  /// Canonical plan key of one slot subscription: full filter encoding
  /// plus the definition window (both must match for two slots to share a
  /// buffered stream).
  [[nodiscard]] static std::string stream_key_for(const DefState& ds, std::size_t slot);
  /// Subscribes one slot to the canonical stream of `key` — joining it
  /// only while its buffer is empty, so the subscriber never sees entities
  /// older than its registration — or to a fresh stream otherwise (which
  /// becomes the canonical one when the key had none). Returns the stream
  /// id; the subscriber count is already bumped.
  std::uint32_t subscribe_stream(std::string key, time_model::Duration window);
  /// Allocates a stream (reusing a free id); empty `key` = private.
  std::uint32_t create_stream(std::string key, time_model::Duration window);
  /// Drops one subscription; the stream is destroyed (and deregistered
  /// from the canonical map) when the last subscriber leaves.
  void unsubscribe_stream(std::uint32_t stream_id);
  /// Attaches (or keeps) shared spatial backing on a guarded slot's
  /// stream, rebuilding immediately when the buffer is already past the
  /// activation threshold (implanted state).
  void attach_stream_spatial(StreamNode& sn, const std::vector<Guard>& guards);

  void maybe_prune(time_model::TimePoint now);
  void prune_def(DefState& ds, time_model::TimePoint now);
  void prune_stream(StreamNode& sn, time_model::TimePoint now);
  void evict_front(DefState& ds, std::size_t slot);
  void evict_stream_front(StreamNode& sn);
  void insert_buffered(DefState& ds, std::size_t slot, const Buffered& fresh);
  void insert_stream(StreamNode& sn, const Buffered& fresh);
  /// (Re)indexes every buffered entry of the stream (index activation).
  void rebuild_stream_spatial(StreamNode& sn);
  /// The slot's buffer view: the shared stream's deque for stream-backed
  /// definitions, the private one otherwise.
  [[nodiscard]] std::deque<Buffered>& slot_buffer(DefState& ds, std::size_t slot) {
    return ds.stream_backed ? streams_[ds.streams[slot]]->buf : ds.buffers[slot];
  }
  [[nodiscard]] StreamNode* slot_stream(DefState& ds, std::size_t slot) {
    return ds.stream_backed ? streams_[ds.streams[slot]].get() : nullptr;
  }
  /// Fills matched_routes_ with (def, slot) pairs whose filter accepts
  /// `entity`, ordered by (definition, slot) registration order.
  void route(const Entity& entity);
  /// `prestored` (optional) is caller-owned shared storage for `entity`;
  /// when set, buffering slots alias it instead of deep-copying.
  void observe_impl(const Entity& entity, time_model::TimePoint now, EmitSink& sink,
                    const std::shared_ptr<const Entity>* prestored = nullptr);
  void fire_single(DefState& ds, const Entity& entity, time_model::TimePoint now, EmitSink& sink);
  void try_bindings(DefState& ds, std::size_t fixed_slot, const Buffered& fresh,
                    time_model::TimePoint now, EmitSink& sink);
  /// Prepares the candidate source for `slot`: a spatial-index query when
  /// an applicable guard exists, otherwise a direct buffer scan.
  void prepare_candidates(DefState& ds, std::uint32_t slot);
  /// Evaluates the completed binding in ds.chosen; returns true when the
  /// participants were consumed (enumeration must stop).
  bool emit_binding(DefState& ds, time_model::TimePoint now, EmitSink& sink);
  void consume_participants(DefState& ds);
  /// `binding` points at `n` bound entities (a prefix of the shared
  /// scratch, which is sized to the widest registered definition).
  EventInstance synthesize(DefState& ds, const Entity* const* binding, std::size_t n,
                           time_model::TimePoint now);

  ObserverId id_;
  Layer layer_;
  geom::Point location_;
  EngineOptions options_;
  std::vector<DefState> defs_;
  std::vector<std::uint32_t> free_slots_;  ///< tombstoned indices, reused by implant
  std::size_t active_defs_ = 0;

  /// Shared plan nodes (slot streams); null entries are retired ids on
  /// free_streams_. canonical_streams_ maps a plan key to the stream new
  /// same-key subscriptions try to join.
  std::vector<std::unique_ptr<StreamNode>> streams_;
  std::vector<std::uint32_t> free_streams_;
  std::unordered_map<std::string, std::uint32_t> canonical_streams_;
  /// Active definitions with *private* buffers (consume-mode multi-slot):
  /// with streams pruned directly, the prune walks touch only structures
  /// that actually buffer — never the full definition table.
  std::vector<std::uint32_t> private_buffered_;

  EnumScratch scratch_;

  /// Routing index over this engine's definitions (see core/routing.hpp;
  /// shared with the sharded runtime, which keys the same structure by
  /// shard index for placement).
  RoutingIndex routing_;
  std::vector<SlotRoute> matched_routes_;  // per-observe scratch

  /// min over streams/private buffers of next_prune_at; observe() skips
  /// pruning entirely while `now` has not reached it.
  time_model::TimePoint global_prune_at_ = time_model::TimePoint::max();

  /// Instance sequence counters, one per distinct event type; definitions
  /// reach theirs via DefState::seq_idx. seq_index_ is registration-time
  /// only (event type -> counter slot).
  std::vector<std::uint64_t> seq_counters_;
  std::unordered_map<std::string, std::uint32_t> seq_index_;

  std::uint64_t next_stamp_ = 1;
  EngineStats stats_;
};

}  // namespace stem::core
