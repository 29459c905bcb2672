#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

namespace stem::core {

DetectionEngine::DetectionEngine(ObserverId id, Layer layer, geom::Point location,
                                 EngineOptions options)
    : id_(std::move(id)), layer_(layer), location_(location), options_(options) {}

void DetectionEngine::validate_definition(const EventDefinition* spec) const {
  if (spec == nullptr) throw std::invalid_argument("DetectionEngine: null definition");
  const EventDefinition& def = *spec;
  if (def.slots.empty()) {
    throw std::invalid_argument("DetectionEngine: definition '" + def.id.value() +
                                "' declares no slots");
  }
  if (const auto max = def.condition.max_slot();
      max.has_value() && *max >= def.slots.size()) {
    throw std::invalid_argument("DetectionEngine: condition of '" + def.id.value() +
                                "' references slot $" + std::to_string(*max) + " but only " +
                                std::to_string(def.slots.size()) + " slots are declared");
  }
}

std::uint32_t DetectionEngine::alloc_def_slot(std::shared_ptr<const EventDefinition> def) {
  if (!free_slots_.empty()) {
    const std::uint32_t d = free_slots_.back();
    free_slots_.pop_back();
    defs_[d] = DefState(std::move(def));
    return d;
  }
  defs_.emplace_back(std::move(def));
  return static_cast<std::uint32_t>(defs_.size() - 1);
}

void DetectionEngine::init_def_state(DefState& ds) {
  const std::size_t n = ds.def->slots.size();
  const std::string& type = ds.def->id.value();
  const auto [seq_idx, new_type] = seq_index_.insert(
      type, static_cast<std::uint32_t>(seq_counters_.size()), [this](const std::uint32_t i) {
        return std::string_view(seq_types_).substr(seq_counters_[i].type_at,
                                                   seq_counters_[i].type_len);
      });
  if (new_type) {
    seq_counters_.push_back(SeqCounter{0, static_cast<std::uint32_t>(seq_types_.size()),
                                       static_cast<std::uint32_t>(type.size())});
    seq_types_ += type;
  }
  ds.seq_idx = seq_idx;
  scratch_.fit(n);
  if (n == 1) return;

  auto join = std::make_unique<JoinState>();
  join->slots.resize(n);
  // Each slot's guards are one range of join->guards, in extraction order
  // (prepare_candidates breaks query-area ties by that order).
  const std::vector<SpatialGuard> extracted = extract_spatial_guards(ds.def->condition);
  join->guards.reserve(extracted.size());
  for (std::size_t j = 0; j < n; ++j) {
    JoinState::Slot& slot = join->slots[j];
    slot.guard_begin = static_cast<std::uint32_t>(join->guards.size());
    for (const SpatialGuard& g : extracted) {
      if (g.slot != j) continue;
      Guard guard;
      guard.radius = g.radius;
      if (g.partner.has_value()) {
        if (*g.partner >= n) continue;
        guard.partner = *g.partner;
      } else if (g.region.has_value()) {
        guard.region = g.region->bbox().inflated(g.radius);
      } else {
        continue;
      }
      join->guards.push_back(guard);
    }
    slot.guard_end = static_cast<std::uint32_t>(join->guards.size());
  }
  // Retain-mode definitions are stream-backed: their slot buffers (and
  // spatial indexes, once attached for guarded slots) live in shared plan
  // nodes joined by every definition with the same (filter, window) key.
  // Consume-mode definitions keep private buffers — consumption retires
  // entities mid-buffer, which co-subscribers must not see — and use the
  // enumerator's inline guard precheck instead of an index.
  join->stream_backed = ds.def->consumption == ConsumptionMode::kUnrestricted;
  ds.join = std::move(join);
}

std::string DetectionEngine::stream_key_for(const DefState& ds, std::size_t slot) {
  std::string key = ds.def->slots[slot].filter.stream_key();
  key += '|';
  key += std::to_string(ds.def->window.ticks());
  return key;
}

std::uint32_t DetectionEngine::create_stream(std::string key, time_model::Duration window) {
  std::uint32_t id;
  if (!free_streams_.empty()) {
    id = free_streams_.back();
    free_streams_.pop_back();
    streams_[id] = std::make_unique<StreamNode>();
  } else {
    streams_.push_back(std::make_unique<StreamNode>());
    id = static_cast<std::uint32_t>(streams_.size() - 1);
  }
  StreamNode& sn = *streams_[id];
  sn.window = window;
  sn.subscribers = 1;
  if (!key.empty()) {
    sn.canonical = true;
    canonical_streams_.emplace(key, id);
    sn.key = std::move(key);
  }
  return id;
}

std::uint32_t DetectionEngine::subscribe_stream(std::string key, time_model::Duration window) {
  if (const auto it = canonical_streams_.find(key); it != canonical_streams_.end()) {
    StreamNode& sn = *streams_[it->second];
    if (sn.buf.empty()) {
      ++sn.subscribers;
      return it->second;
    }
    // The canonical stream already buffers entities the new subscriber
    // must never see (they predate its registration), so it gets a
    // private stream instead — exactness over sharing.
    return create_stream(std::string(), window);
  }
  return create_stream(std::move(key), window);
}

void DetectionEngine::unsubscribe_stream(std::uint32_t stream_id) {
  StreamNode& sn = *streams_[stream_id];
  if (--sn.subscribers > 0) return;
  if (sn.canonical) canonical_streams_.erase(sn.key);
  streams_[stream_id].reset();
  free_streams_.push_back(stream_id);
}

void DetectionEngine::attach_stream_spatial(StreamNode& sn, std::span<const Guard> guards) {
  if (sn.spatial != nullptr) return;  // the first guarded subscriber's choice sticks
  // A metric guard's radius is the natural grid cell size; purely
  // topological guards have no length scale, so use the R-tree. (The cell
  // size only affects query cost, never the result set, so sharing one
  // index among subscribers with different radii is exact.)
  double cell = 0.0;
  for (const Guard& g : guards) {
    if (g.radius > 0.0 && (cell == 0.0 || g.radius < cell)) cell = g.radius;
  }
  sn.spatial = cell > 0.0 ? std::make_unique<SlotSpatial>(cell) : std::make_unique<SlotSpatial>();
  if (sn.buf.size() >= kIndexActivate) rebuild_stream_spatial(sn);
}

std::size_t DetectionEngine::add_definition(EventDefinition def) {
  return add_definition(std::make_shared<const EventDefinition>(std::move(def)));
}

std::size_t DetectionEngine::add_definition(std::shared_ptr<const EventDefinition> def) {
  validate_definition(def.get());
  const std::uint32_t d = alloc_def_slot(std::move(def));
  DefState& ds = defs_[d];
  init_def_state(ds);
  if (ds.join != nullptr && ds.join->stream_backed) {
    JoinState& js = *ds.join;
    for (std::size_t j = 0; j < js.slots.size(); ++j) {
      js.slots[j].stream = subscribe_stream(stream_key_for(ds, j), ds.def->window);
    }
    for (std::size_t j = 0; j < js.slots.size(); ++j) {
      if (!js.guards_of(j).empty()) {
        attach_stream_spatial(*streams_[js.slots[j].stream], js.guards_of(j));
      }
    }
  } else if (ds.join != nullptr) {
    private_buffered_.push_back(PrivateBuffered{d, ds.join.get()});
  }
  if (routing_built_) routing_.add(*ds.def, d);
  ++active_defs_;
  return d;
}

DefinitionState DetectionEngine::carried_state(const DefState& ds) const {
  // A stream-backed definition carries a *copy* of each subscribed
  // stream's buffer (co-subscribers keep theirs untouched), a private one
  // its own buffers. Either way the carried per-slot buffers are exactly
  // what an unshared engine would have held, so the checkpoint/migration
  // codec sees no difference.
  std::vector<std::vector<DefinitionState::BufferedEntity>> buffers(ds.def->slots.size());
  time_model::TimePoint carried_prune = time_model::TimePoint::max();
  if (ds.join != nullptr) {
    const JoinState& js = *ds.join;
    for (std::size_t s = 0; s < js.slots.size(); ++s) {
      const Fifo<Buffered>* buf = &js.slots[s].buf;
      if (js.stream_backed) {
        const StreamNode& sn = *streams_[js.slots[s].stream];
        buf = &sn.buf;
        if (sn.next_prune_at < carried_prune) carried_prune = sn.next_prune_at;
      }
      buffers[s].reserve(buf->size());
      for (const Buffered& b : *buf) {
        buffers[s].push_back(DefinitionState::BufferedEntity{b.entity, b.stamp});
      }
    }
    if (!js.stream_backed) carried_prune = js.next_prune_at;
  }
  return DefinitionState{ds.def, seq_counters_[ds.seq_idx].next, carried_prune, std::move(buffers),
                         ds.load_routed, ds.load_tried};
}

DefinitionState DetectionEngine::extract_definition_state(std::size_t def_index) {
  if (def_index >= defs_.size() || !defs_[def_index].active) {
    throw std::out_of_range("DetectionEngine: extract of unknown definition index " +
                            std::to_string(def_index));
  }
  DefState& ds = defs_[def_index];
  if (routing_built_) routing_.remove(*ds.def, static_cast<std::uint32_t>(def_index));
  DefinitionState out = carried_state(ds);
  if (ds.join != nullptr && ds.join->stream_backed) {
    for (const JoinState::Slot& slot : ds.join->slots) unsubscribe_stream(slot.stream);
  } else if (ds.join != nullptr) {
    std::erase_if(private_buffered_,
                  [def_index](const PrivateBuffered& p) { return p.def == def_index; });
  }

  // Tombstone the slot: release its state but keep the index reserved (a
  // later implant reuses it), so the indices of the other definitions —
  // and the tags of their emissions — never shift.
  ds.active = false;
  ds.def.reset();
  ds.join.reset();
  free_slots_.push_back(static_cast<std::uint32_t>(def_index));
  --active_defs_;
  return out;
}

DefinitionState DetectionEngine::snapshot_definition_state(std::size_t def_index) const {
  if (def_index >= defs_.size() || !defs_[def_index].active) {
    throw std::out_of_range("DetectionEngine: snapshot of unknown definition index " +
                            std::to_string(def_index));
  }
  return carried_state(defs_[def_index]);
}

std::size_t DetectionEngine::implant_definition_state(DefinitionState state) {
  validate_definition(state.def.get());
  if (state.buffers.size() != state.def->slots.size()) {
    throw std::invalid_argument("DetectionEngine: implant of '" + state.def->id.value() +
                                "': " + std::to_string(state.buffers.size()) +
                                " slot buffers but " + std::to_string(state.def->slots.size()) +
                                " slots");
  }
  const std::uint32_t d = alloc_def_slot(std::move(state.def));
  DefState& ds = defs_[d];
  init_def_state(ds);
  // Sequence counters only move forward: the type keeps the larger of the
  // carried and the local value. The local counter may be live (same-type
  // definitions still here) or dormant (they all left), and either way
  // this engine already emitted every number below it; the carried one
  // covers what the definition emitted elsewhere.
  SeqCounter& seq = seq_counters_[ds.seq_idx];
  seq.next = std::max(seq.next, state.seq);
  ds.load_routed = state.load_routed;
  ds.load_tried = state.load_tried;

  if (ds.join != nullptr) {
    JoinState& js = *ds.join;
    // Renumber the imported stamps into this engine's stamp space. The map
    // is monotone over the (sorted, deduplicated) old stamps, so ascending
    // per-slot buffer order and cross-slot same-arrival identity — which
    // the self-join dedup rule and consume() both compare by stamp — are
    // preserved, while collisions with future local stamps are impossible.
    std::vector<std::uint64_t> olds;
    for (const auto& slot : state.buffers) {
      for (const auto& b : slot) olds.push_back(b.stamp);
    }
    std::sort(olds.begin(), olds.end());
    olds.erase(std::unique(olds.begin(), olds.end()), olds.end());
    std::unordered_map<std::uint64_t, std::uint64_t> remap;
    remap.reserve(olds.size());
    for (const std::uint64_t old : olds) remap.emplace(old, next_stamp_++);
    const std::size_t n = state.buffers.size();
    if (!js.stream_backed) {
      js.next_prune_at = state.next_prune_at;
      if (js.next_prune_at < global_prune_at_) global_prune_at_ = js.next_prune_at;
      for (std::size_t s = 0; s < n; ++s) {
        auto& buf = js.slots[s].buf;
        for (auto& b : state.buffers[s]) {
          const geom::BoundingBox box = b.entity->location().bbox();
          buf.push_back(Buffered{std::move(b.entity), remap.at(b.stamp), box});
        }
        // Enforce *this* engine's buffer cap: when the source was
        // configured with a larger max_buffer, the oldest imports are
        // evicted (counted as evictions, like any cap overflow) —
        // otherwise the over-cap state would be self-sustaining
        // (insert_buffered evicts only one entry per insert).
        while (buf.size() > options_.max_buffer) evict_front(js, s);
      }
      private_buffered_.push_back(PrivateBuffered{d, &js});
    } else {
      // A slot whose carried buffer is empty subscribes normally (it may
      // join a canonical stream). A non-empty carried buffer must not be
      // injected into co-subscribers' views, so it lands in a private
      // stream — migration pessimizes sharing for the moved definition,
      // never for the definitions around it.
      for (std::size_t s = 0; s < n; ++s) {
        if (state.buffers[s].empty()) {
          js.slots[s].stream = subscribe_stream(stream_key_for(ds, s), ds.def->window);
          continue;
        }
        const std::uint32_t id = create_stream(std::string(), ds.def->window);
        js.slots[s].stream = id;
        StreamNode& sn = *streams_[id];
        for (auto& b : state.buffers[s]) {
          const geom::BoundingBox box = b.entity->location().bbox();
          sn.buf.push_back(Buffered{std::move(b.entity), remap.at(b.stamp), box});
        }
        sn.last_stamp = sn.buf.back().stamp;
        while (sn.buf.size() > options_.max_buffer) evict_stream_front(sn);
        sn.next_prune_at = state.next_prune_at;
        if (sn.next_prune_at < global_prune_at_) global_prune_at_ = sn.next_prune_at;
      }
      for (std::size_t s = 0; s < n; ++s) {
        if (!js.guards_of(s).empty()) {
          attach_stream_spatial(*streams_[js.slots[s].stream], js.guards_of(s));
        }
      }
    }
  }
  if (routing_built_) routing_.add(*ds.def, d);
  ++active_defs_;
  return d;
}

void DetectionEngine::collect_definition_loads(
    std::vector<std::pair<std::uint32_t, DefinitionLoad>>& out) const {
  // One up-front reserve keeps steady-state publication allocation-free:
  // the caller's reused buffer reaches definition-count capacity once and
  // every later call appends into it without growth.
  out.reserve(out.size() + active_defs_);
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    const DefState& ds = defs_[d];
    if (!ds.active) continue;
    DefinitionLoad load{ds.load_routed, ds.load_tried, 0};
    if (ds.join != nullptr) {
      for (const JoinState::Slot& slot : ds.join->slots) {
        load.buffered += ds.join->stream_backed ? streams_[slot.stream]->buf.size() : slot.buf.size();
      }
    }
    out.push_back({static_cast<std::uint32_t>(d), load});
  }
}

void DetectionEngine::clear() {
  for (const auto& up : streams_) {
    if (up == nullptr) continue;
    up->buf.clear();
    if (up->spatial_active) {
      up->spatial->clear();
      up->spatial_active = false;
    }
    up->next_prune_at = time_model::TimePoint::max();
  }
  for (const PrivateBuffered& p : private_buffered_) {
    for (JoinState::Slot& slot : p.join->slots) slot.buf.clear();
    p.join->next_prune_at = time_model::TimePoint::max();
  }
  global_prune_at_ = time_model::TimePoint::max();
}

void DetectionEngine::evict_front(JoinState& js, std::size_t slot) {
  js.slots[slot].buf.pop_front();
  ++stats_.evicted;
}

void DetectionEngine::evict_stream_front(StreamNode& sn) {
  const Buffered& front = sn.buf.front();
  if (sn.spatial_active) {
    sn.spatial->erase(front.box, front.stamp);
    if (sn.buf.size() - 1 <= kIndexDeactivate) {
      sn.spatial->clear();
      sn.spatial_active = false;
    }
  }
  sn.buf.pop_front();
  // Every subscribing (definition, slot) loses the entry, so the eviction
  // counter advances exactly as per-definition buffers would have.
  stats_.evicted += sn.subscribers;
}

void DetectionEngine::rebuild_stream_spatial(StreamNode& sn) {
  sn.spatial->clear();
  for (const Buffered& b : sn.buf) sn.spatial->insert(b.box, b.stamp);
  sn.spatial_active = true;
}

void DetectionEngine::prune_def(DefState& ds, time_model::TimePoint now) {
  JoinState& js = *ds.join;
  const time_model::TimePoint horizon = now - ds.def->window;
  time_model::TimePoint next = time_model::TimePoint::max();
  for (std::size_t s = 0; s < js.slots.size(); ++s) {
    auto& buf = js.slots[s].buf;
    while (!buf.empty() && buf.front().entity->occurrence_time().end() < horizon) {
      evict_front(js, s);
    }
    if (!buf.empty()) {
      const time_model::TimePoint at = buf.front().entity->occurrence_time().end() + ds.def->window;
      if (at < next) next = at;
    }
  }
  js.next_prune_at = next;
}

void DetectionEngine::prune_stream(StreamNode& sn, time_model::TimePoint now) {
  const time_model::TimePoint horizon = now - sn.window;
  while (!sn.buf.empty() && sn.buf.front().entity->occurrence_time().end() < horizon) {
    evict_stream_front(sn);
  }
  sn.next_prune_at = sn.buf.empty()
                         ? time_model::TimePoint::max()
                         : sn.buf.front().entity->occurrence_time().end() + sn.window;
}

void DetectionEngine::maybe_prune(time_model::TimePoint now) {
  // An entity is evictable once now > its occurrence end + window, so
  // nothing can expire while now has not passed the global watermark. The
  // walk below visits only structures that buffer (streams + private
  // consume buffers), never the full definition table.
  if (global_prune_at_ >= now) return;
  time_model::TimePoint global = time_model::TimePoint::max();
  for (const auto& up : streams_) {
    if (up == nullptr) continue;
    if (up->next_prune_at < now) prune_stream(*up, now);
    if (up->next_prune_at < global) global = up->next_prune_at;
  }
  for (const PrivateBuffered& p : private_buffered_) {
    if (p.join->next_prune_at < now) prune_def(defs_[p.def], now);
    if (p.join->next_prune_at < global) global = p.join->next_prune_at;
  }
  global_prune_at_ = global;
}

void DetectionEngine::prune(time_model::TimePoint now) {
  time_model::TimePoint global = time_model::TimePoint::max();
  for (const auto& up : streams_) {
    if (up == nullptr) continue;
    prune_stream(*up, now);
    if (up->next_prune_at < global) global = up->next_prune_at;
  }
  for (const PrivateBuffered& p : private_buffered_) {
    prune_def(defs_[p.def], now);
    if (p.join->next_prune_at < global) global = p.join->next_prune_at;
  }
  global_prune_at_ = global;
}

RoutingIndex& DetectionEngine::routing() {
  if (!routing_built_) {
    for (std::uint32_t d = 0; d < defs_.size(); ++d) {
      if (defs_[d].active) routing_.add(*defs_[d].def, d);
    }
    routing_built_ = true;
  }
  return routing_;
}

void DetectionEngine::route(const Entity& entity) {
  matched_routes_.clear();
  // The index dispatches on the discriminant key (and threshold constant);
  // the residual filter fields are verified on each hit.
  routing().collect(entity, matched_routes_, [&](const SlotRoute r) {
    return defs_[r.def_idx].def->slots[r.slot_idx].filter.matches(entity);
  });
}

void DetectionEngine::insert_buffered(DefState& ds, std::size_t slot, const Buffered& fresh) {
  JoinState& js = *ds.join;
  auto& buf = js.slots[slot].buf;
  buf.push_back(fresh);
  if (buf.size() > options_.max_buffer) evict_front(js, slot);
  // Lower (never raise) the prune watermarks: stale-low only costs a
  // spurious check, stale-high would let expired entities join bindings.
  const time_model::TimePoint at = fresh.entity->occurrence_time().end() + ds.def->window;
  if (at < js.next_prune_at) js.next_prune_at = at;
  if (at < global_prune_at_) global_prune_at_ = at;
}

void DetectionEngine::insert_stream(StreamNode& sn, const Buffered& fresh) {
  sn.buf.push_back(fresh);
  sn.last_stamp = fresh.stamp;
  if (sn.spatial != nullptr) {
    if (sn.spatial_active) {
      sn.spatial->insert(fresh.box, fresh.stamp);
    } else if (sn.buf.size() >= kIndexActivate) {
      rebuild_stream_spatial(sn);
    }
  }
  if (sn.buf.size() > options_.max_buffer) evict_stream_front(sn);
  const time_model::TimePoint at = fresh.entity->occurrence_time().end() + sn.window;
  if (at < sn.next_prune_at) sn.next_prune_at = at;
  if (at < global_prune_at_) global_prune_at_ = at;
}

std::vector<EventInstance> DetectionEngine::observe(const Entity& entity,
                                                    time_model::TimePoint now) {
  std::vector<EventInstance> out;
  EmitSink sink{&out, nullptr};
  observe_impl(entity, now, sink);
  return out;
}

void DetectionEngine::observe(const Entity& entity, time_model::TimePoint now,
                              std::vector<Emission>& out) {
  EmitSink sink{nullptr, &out};
  observe_impl(entity, now, sink);
}

void DetectionEngine::observe(const std::shared_ptr<const Entity>& entity,
                              time_model::TimePoint now, std::vector<Emission>& out) {
  EmitSink sink{nullptr, &out};
  observe_impl(*entity, now, sink, &entity);
}

void DetectionEngine::observe(const std::shared_ptr<const Entity>& entity,
                              time_model::TimePoint now, std::span<const SlotRoute> routes,
                              std::vector<Emission>& out) {
  EmitSink sink{nullptr, &out};
  observe_routed(*entity, now, routes, sink, &entity);
}

bool DetectionEngine::routes_anywhere(const Entity& entity) {
  matched_routes_.clear();
  routing().collect(entity, matched_routes_, [](const SlotRoute&) { return true; });
  return !matched_routes_.empty();
}

std::vector<EventInstance> DetectionEngine::observe_cascading(const Entity& entity,
                                                             time_model::TimePoint now) {
  std::vector<Emission> emissions;
  observe_cascading(entity, now, emissions);
  std::vector<EventInstance> out;
  out.reserve(emissions.size());
  for (Emission& em : emissions) out.push_back(std::move(em.instance));
  return out;
}

void DetectionEngine::observe_cascading(const Entity& entity, time_model::TimePoint now,
                                        std::vector<Emission>& out) {
  EmitSink sink{nullptr, &out};
  std::size_t level_begin = out.size();
  observe_impl(entity, now, sink);

  // Breadth-first over derivation levels: out[level_begin, level_end) is
  // level `depth`; re-feeding its instances in order appends level
  // depth+1. Indices (not iterators) — re-observing may grow `out`.
  std::uint32_t depth = 1;
  while (level_begin < out.size()) {
    const std::size_t level_end = out.size();
    for (std::size_t k = level_begin; k < level_end; ++k) {
      out[k].depth = depth;
      out[k].emit_index = static_cast<std::uint32_t>(k - level_begin);
    }
    if (depth >= options_.max_cascade_depth) {
      // Cycle guard: the cap level is delivered but not re-ingested.
      for (std::size_t k = level_begin; k < level_end; ++k) {
        Entity fed(std::move(out[k].instance));
        if (routes_anywhere(fed)) ++stats_.cascade_truncated;
        out[k].instance = std::move(fed).extract_instance();
      }
      break;
    }
    for (std::size_t k = level_begin; k < level_end; ++k) {
      // View the emitted instance as an entity without copying it: move it
      // into the Entity for the re-observation, then move it back (slots
      // that buffer it take their own shared copy inside observe_impl).
      Entity fed(std::move(out[k].instance));
      if (routes_anywhere(fed)) {
        ++stats_.cascade_reingested;
        observe_impl(fed, now, sink);
      }
      out[k].instance = std::move(fed).extract_instance();
    }
    level_begin = level_end;
    ++depth;
  }
}

std::vector<EventInstance> DetectionEngine::observe_batch(
    std::span<const Entity> batch, std::span<const time_model::TimePoint> nows) {
  if (batch.size() != nows.size()) {
    throw std::invalid_argument("DetectionEngine::observe_batch: " + std::to_string(batch.size()) +
                                " entities but " + std::to_string(nows.size()) + " time points");
  }
  std::vector<EventInstance> out;
  EmitSink sink{&out, nullptr};
  for (std::size_t i = 0; i < batch.size(); ++i) observe_impl(batch[i], nows[i], sink);
  return out;
}

std::vector<EventInstance> DetectionEngine::observe_batch(std::span<const Entity> batch,
                                                          time_model::TimePoint now) {
  std::vector<EventInstance> out;
  EmitSink sink{&out, nullptr};
  for (const Entity& e : batch) observe_impl(e, now, sink);
  return out;
}

void DetectionEngine::observe_batch(std::span<const Entity> batch,
                                    std::span<const time_model::TimePoint> nows,
                                    std::vector<Emission>& out) {
  if (batch.size() != nows.size()) {
    throw std::invalid_argument("DetectionEngine::observe_batch: " + std::to_string(batch.size()) +
                                " entities but " + std::to_string(nows.size()) + " time points");
  }
  EmitSink sink{nullptr, &out};
  for (std::size_t i = 0; i < batch.size(); ++i) observe_impl(batch[i], nows[i], sink);
}

void DetectionEngine::observe_impl(const Entity& entity, time_model::TimePoint now,
                                   EmitSink& sink,
                                   const std::shared_ptr<const Entity>* prestored) {
  route(entity);
  observe_routed(entity, now, matched_routes_, sink, prestored);
}

void DetectionEngine::observe_routed(const Entity& entity, time_model::TimePoint now,
                                     std::span<const SlotRoute> routes, EmitSink& sink,
                                     const std::shared_ptr<const Entity>* prestored) {
  ++stats_.entities_in;
  maybe_prune(now);
  if (routes.empty()) return;
  const std::size_t out_begin = sink.size();

  // The entity is copied into shared ownership only if some multi-slot
  // definition actually buffers it; pure threshold workloads bind the
  // caller's entity in place.
  std::shared_ptr<const Entity> shared;
  const std::uint64_t stamp = next_stamp_++;

  std::size_t i = 0;
  while (i < routes.size()) {
    const std::uint32_t d = routes[i].def_idx;
    DefState& ds = defs_[d];
    ++ds.load_routed;
    if (ds.join == nullptr) {  // single-slot: exactly one route, binding is {fresh}
      fire_single(ds, entity, now, sink);
      ++i;
      continue;
    }
    if (shared == nullptr) {
      // Buffering needs shared ownership that outlives this call: alias
      // the caller's storage when it provided some, else copy once.
      shared = prestored != nullptr ? *prestored : std::make_shared<const Entity>(entity);
    }
    const Buffered fresh{shared, stamp, shared->location().bbox()};
    // Insert into every matching slot first, so a definition whose two
    // slots both match can bind the entity against itself only through
    // distinct buffer positions. A shared stream receives the arrival
    // once no matter how many subscribed routes land on it (its
    // co-subscribers' runs see last_stamp already current).
    const std::size_t run_begin = i;
    if (ds.join->stream_backed) {
      for (; i < routes.size() && routes[i].def_idx == d; ++i) {
        StreamNode& sn = *streams_[ds.join->slots[routes[i].slot_idx].stream];
        if (sn.last_stamp != stamp) insert_stream(sn, fresh);
      }
    } else {
      for (; i < routes.size() && routes[i].def_idx == d; ++i) {
        insert_buffered(ds, routes[i].slot_idx, fresh);
      }
    }
    for (std::size_t r = run_begin; r < i; ++r) {
      try_bindings(ds, routes[r].slot_idx, fresh, now, sink);
    }
  }
  stats_.instances_out += sink.size() - out_begin;
}

void DetectionEngine::fire_single(DefState& ds, const Entity& entity, time_model::TimePoint now,
                                  EmitSink& sink) {
  scratch_.binding[0] = &entity;
  ++stats_.bindings_tried;
  ++ds.load_tried;
  const EvalContext ctx(scratch_.binding.data(), 1);
  if (!eval_condition(ds.def->condition, ctx, options_.eval_mode)) return;
  ++stats_.bindings_matched;
  const auto d = static_cast<std::uint32_t>(&ds - defs_.data());
  sink.emit(d, synthesize(ds, scratch_.binding.data(), 1, now));
}

void DetectionEngine::prepare_candidates(JoinState& js, std::uint32_t slot) {
  const std::span<const Guard> guards = js.guards_of(slot);
  if (guards.empty()) {
    scratch_.source[slot] = 0;
    return;
  }
  // Pick the applicable guard with the smallest query footprint. Guards
  // whose partner slot is not yet bound at this depth cannot be used.
  bool have = false;
  bool partner_bound = false;
  geom::BoundingBox query;
  double best_area = 0.0;
  for (const Guard& g : guards) {
    geom::BoundingBox q;
    if (g.partner == Guard::kNoPartner) {
      q = g.region;
    } else if (scratch_.chosen[g.partner] != nullptr) {
      q = scratch_.chosen[g.partner]->box.inflated(g.radius);
      partner_bound = true;
    } else {
      continue;
    }
    if (!have || q.area() < best_area) {
      have = true;
      query = q;
      best_area = q.area();
    }
  }
  if (!partner_bound) {
    // Constant-region-only (or nothing applicable): identical on every
    // re-descent within this try_bindings call — prepare only once.
    if (scratch_.prep_epoch[slot] == scratch_.cur_epoch) return;
    scratch_.prep_epoch[slot] = scratch_.cur_epoch;
  }
  scratch_.source[slot] = 0;
  if (!have) return;
  StreamNode* const sn = slot_stream(js, slot);
  if (sn == nullptr || !sn->spatial_active) {
    // Scan the buffer, prechecking each candidate against the guard box.
    scratch_.qbox[slot] = query;
    scratch_.source[slot] = 1;
    return;
  }
  auto& stamps = scratch_.stamp_scratch;
  stamps.clear();
  sn->spatial->query(query, stamps);
  std::sort(stamps.begin(), stamps.end());  // restore arrival order
  auto& cand = scratch_.cand[slot];
  cand.clear();
  auto& buf = sn->buf;
  for (const std::uint64_t stamp : stamps) {
    // Buffers are FIFOs in ascending stamp order; map each hit back to
    // its buffered entry (stale index hits simply miss and are skipped).
    const auto it =
        std::lower_bound(buf.begin(), buf.end(), stamp,
                         [](const Buffered& b, std::uint64_t s) { return b.stamp < s; });
    if (it != buf.end() && it->stamp == stamp) cand.push_back(&*it);
  }
  scratch_.source[slot] = 2;
}

void DetectionEngine::try_bindings(DefState& ds, std::size_t fixed_slot, const Buffered& fresh,
                                   time_model::TimePoint now, EmitSink& sink) {
  JoinState& js = *ds.join;
  const std::size_t n = ds.def->slots.size();
  auto& chosen = scratch_.chosen;
  chosen.assign(n, nullptr);
  chosen[fixed_slot] = &fresh;
  ++scratch_.cur_epoch;  // invalidates cached constant-region preparations

  auto& order = scratch_.order;
  order.clear();
  for (std::uint32_t j = 0; j < n; ++j) {
    if (j != fixed_slot) order.push_back(j);
  }
  const std::size_t m = order.size();

  // Iterative depth-first enumeration over the non-fixed slots. All state
  // lives in the engine-level scratch (the enumerator never re-enters);
  // nothing allocates here.
  std::size_t depth = 0;
  scratch_.cursor[0] = 0;
  prepare_candidates(js, order[0]);
  while (true) {
    const std::uint32_t slot = order[depth];
    const Buffered* cand = nullptr;
    if (scratch_.source[slot] == 2) {
      if (scratch_.cursor[depth] < scratch_.cand[slot].size()) {
        cand = scratch_.cand[slot][scratch_.cursor[depth]++];
      }
    } else {
      const auto& buf = slot_buffer(js, slot);
      if (scratch_.cursor[depth] < buf.size()) cand = &buf[scratch_.cursor[depth]++];
    }
    if (cand == nullptr) {  // exhausted: backtrack
      chosen[slot] = nullptr;
      if (depth == 0) return;
      --depth;
      continue;
    }
    // Guard precheck: a candidate outside the guard box cannot satisfy
    // the (conjunctively implied) spatial constraint — skip it without
    // evaluating or descending.
    if (scratch_.source[slot] == 1 && !cand->box.intersects(scratch_.qbox[slot])) continue;
    // Slots below `fixed_slot` must not pick the fresh entity: the binding
    // with the fresh entity in that earlier slot is (or was) enumerated
    // when that slot was the fixed one, so this rule prevents duplicate
    // emissions when one entity matches several slots.
    if (cand->stamp == fresh.stamp && slot < fixed_slot) continue;
    chosen[slot] = cand;
    if (depth + 1 == m) {
      if (emit_binding(ds, now, sink)) return;  // participants were consumed
    } else {
      ++depth;
      scratch_.cursor[depth] = 0;
      prepare_candidates(js, order[depth]);
    }
  }
}

bool DetectionEngine::emit_binding(DefState& ds, time_model::TimePoint now, EmitSink& sink) {
  const std::size_t n = ds.def->slots.size();
  for (std::size_t j = 0; j < n; ++j) scratch_.binding[j] = scratch_.chosen[j]->entity.get();
  ++stats_.bindings_tried;
  ++ds.load_tried;
  const EvalContext ctx(scratch_.binding.data(), n);
  if (!eval_condition(ds.def->condition, ctx, options_.eval_mode)) return false;
  ++stats_.bindings_matched;
  const auto d = static_cast<std::uint32_t>(&ds - defs_.data());
  sink.emit(d, synthesize(ds, scratch_.binding.data(), n, now));
  if (ds.def->consumption != ConsumptionMode::kConsume) return false;
  consume_participants(ds);
  return true;
}

void DetectionEngine::consume_participants(DefState& ds) {
  // Retire every participant from every slot buffer. Only consume-mode
  // definitions reach here, and those keep private buffers — never shared
  // streams, never spatial indexes — so nothing else can observe the
  // mid-buffer removal.
  const std::size_t n = ds.def->slots.size();
  auto& stamps = scratch_.stamp_scratch;  // enumeration stopped; scratch is free
  stamps.clear();
  for (std::size_t j = 0; j < n; ++j) stamps.push_back(scratch_.chosen[j]->stamp);
  const auto dead = [&stamps](const std::uint64_t s) {
    return std::find(stamps.begin(), stamps.end(), s) != stamps.end();
  };
  for (JoinState::Slot& slot : ds.join->slots) {
    slot.buf.erase_if([&dead](const Buffered& b) { return dead(b.stamp); });
  }
}

EventInstance DetectionEngine::synthesize(DefState& ds, const Entity* const* binding,
                                          std::size_t n, time_model::TimePoint now) {
  const EventDefinition& def = *ds.def;
  const std::span<const Entity* const> bound(binding, n);

  EventInstance inst;
  inst.key = EventInstanceKey{id_, def.id, seq_counters_[ds.seq_idx].next++};
  inst.layer = layer_;
  inst.gen_time = now;
  inst.gen_location = location_;

  // t^eo: aggregate constituent occurrence times.
  std::vector<time_model::OccurrenceTime> times;
  times.reserve(n);
  for (const Entity* e : bound) times.push_back(e->occurrence_time());
  inst.est_time = time_model::aggregate_times(def.synthesis.time, times.data(), times.size());

  // l^eo: aggregate constituent locations (identity for a single slot).
  if (n == 1) {
    inst.est_location = binding[0]->location();
  } else {
    std::vector<geom::Location> locs;
    locs.reserve(n);
    for (const Entity* e : bound) locs.push_back(e->location());
    inst.est_location =
        geom::aggregate_locations(def.synthesis.location, locs.data(), locs.size());
  }

  // V: synthesized attributes.
  for (const AttributeRule& rule : def.synthesis.attributes) {
    std::vector<double> values;
    values.reserve(rule.slots.size());
    bool complete = true;
    for (const SlotIndex s : rule.slots) {
      const auto v = binding[s]->attributes().number(rule.input_attribute);
      if (!v.has_value()) {
        complete = false;
        break;
      }
      values.push_back(*v);
    }
    if (complete) {
      inst.attributes.set(rule.output_name,
                          aggregate_values(rule.aggregate, values.data(), values.size()));
    }
  }

  // rho: combine constituent confidences, then apply the observer's own.
  double rho = 0.0;
  switch (def.synthesis.confidence) {
    case ConfidencePolicy::kMin: {
      rho = 1.0;
      for (const Entity* e : bound) rho = std::min(rho, e->confidence());
      break;
    }
    case ConfidencePolicy::kProduct: {
      rho = 1.0;
      for (const Entity* e : bound) rho *= e->confidence();
      break;
    }
    case ConfidencePolicy::kMean: {
      for (const Entity* e : bound) rho += e->confidence();
      rho /= static_cast<double>(n);
      break;
    }
  }
  inst.confidence = rho * def.synthesis.observer_confidence;

  inst.provenance.reserve(n);
  for (const Entity* e : bound) inst.provenance.push_back(e->provenance_key());
  return inst;
}

}  // namespace stem::core
