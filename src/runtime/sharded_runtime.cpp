#include "runtime/sharded_runtime.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "runtime/checkpoint.hpp"

namespace stem::runtime {

namespace {

/// Cap on arrivals a worker drains per outbox/watermark publication: the
/// out_mutex handshake is amortized over a run of inbox items, but a run
/// must end often enough that poll()/flush() see progress under sustained
/// load.
constexpr std::uint64_t kPublishBatch = 256;

/// Cascade mode: how far past the closure frontier a feedback-unreachable
/// shard may run ahead. Such a shard never receives feedback, so it need
/// not wait for earlier stamps' closures at all — but an unbounded lead
/// would grow its outbox without limit while the coordinator trails.
constexpr std::uint64_t kCascadeRunahead = 256;

/// Placement key of a keyed slot signature: the routing_key_hash of its
/// key, shifted so sensor keys are even and event-type keys odd (the two
/// kinds never compare equal); nullopt for a keyless signature.
std::optional<std::uint64_t> placement_key(const core::FilterSignature& sig) {
  switch (sig.kind) {
    case core::FilterSignature::Kind::kSensor:
      return core::routing_key_hash(sig.key) << 1;
    case core::FilterSignature::Kind::kEventType:
      return (core::routing_key_hash(sig.key) << 1) | 1;
    case core::FilterSignature::Kind::kAny:
    case core::FilterSignature::Kind::kNever:
      return std::nullopt;
  }
  return std::nullopt;
}

/// The instances of a tagged release, tags dropped (poll/flush).
std::vector<core::EventInstance> untagged(std::vector<TaggedInstance> tagged) {
  std::vector<core::EventInstance> out;
  out.reserve(tagged.size());
  for (TaggedInstance& t : tagged) out.push_back(std::move(t.instance));
  return out;
}

}  // namespace

ShardedEngineRuntime::ShardedEngineRuntime(core::ObserverId id, core::Layer layer,
                                           geom::Point location, RuntimeOptions options)
    : id_(std::move(id)), layer_(layer), location_(location), options_(std::move(options)) {
  options_.shards = std::clamp<std::size_t>(options_.shards, 1, 64);
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.checkpoint_epoch != 0 && options_.cascade) {
    throw std::invalid_argument(
        "ShardedEngineRuntime: checkpoint_epoch is not supported in cascade mode");
  }
  if (options_.crash_hook && options_.checkpoint_epoch == 0) {
    throw std::invalid_argument(
        "ShardedEngineRuntime: crash_hook requires checkpoint_epoch != 0 (recovery rebuilds "
        "a dead shard from its checkpoint plus the replay log)");
  }
  // Inbox memory follows occupancy, not queue_capacity: each shard starts
  // with one 64-cell segment (InboxQueue) and a drained inbox keeps at
  // most two. queue_capacity only bounds admission (Shard::queued_arrivals).
  static_assert(sizeof(WorkItem) <= 24, "WorkItem sizes every inbox cell");
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>(id_, layer_, location_, options_.engine);
    shard->index = s;
    shards_.push_back(std::move(shard));
  }
  shard_keys_.resize(options_.shards);
  shard_def_count_.assign(options_.shards, 0);
  shard_routed_.assign(options_.shards, 0);
  shard_holds_.resize(options_.shards);
  if (options_.cascade) {
    sources_.push_back(&cascade_outbox_);
  } else {
    for (auto& shard : shards_) sources_.push_back(shard.get());
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    shard->worker = std::thread([this, s] { worker_loop(*s); });
  }
  if (options_.cascade) {
    cascade_thread_ = std::thread([this] { cascade_loop(); });
  }
  if (options_.crash_hook) {
    supervisor_thread_ = std::thread([this] { supervisor_loop(); });
  }
}

ShardedEngineRuntime::~ShardedEngineRuntime() { shutdown(); }

void ShardedEngineRuntime::shutdown() noexcept {
  if (shutdown_.exchange(true, std::memory_order_seq_cst)) return;
  {
    // Serialize with producers and migration issuance: control items are
    // pushed in send/implant *pairs* under ingest_mutex_, so closing the
    // inboxes mid-pair could drop one side on a closed inbox while admitting
    // the other — the receive-side worker would then wait forever on a
    // ready flag nobody sets. Holding ingest_mutex_ here makes the close
    // atomic with respect to every inbox push (it is also the inbox's
    // serialized-producer precondition). Liveness: nothing is
    // stopped until the flags below are set, so whoever holds the lock —
    // including an ingest parked on backpressure or a cascade-gated
    // worker it depends on — keeps progressing, and the wait terminates.
    const std::lock_guard ingest_lk(ingest_mutex_);
    cascade_stop_.store(true, std::memory_order_seq_cst);
    signal_cascade();
    for (auto& shard : shards_) {
      shard->stop.store(true, std::memory_order_seq_cst);
      shard->inbox.close();          // fails later pushes
      shard->space_ec.notify_all();  // wakes capacity-parked producers
      shard->work_ec.notify_all();   // wakes the parked worker
    }
  }
  // Crash-recovery teardown, in dependency order: stop the supervisor (so
  // no more replacement workers are spawned and shard.worker is stable),
  // then force-complete every migration ticket still in a replay log — a
  // dead shard can no longer run its side of the handshake, and
  // migrate_definition may be parked on the ticket's done flag — and only
  // then join the workers. Completing a ticket a live worker also drains
  // genuinely is benign: both sides set the same flags under the ticket
  // lock, and the state transfer is abandoned with the rest of the
  // in-flight work either way.
  if (supervisor_thread_.joinable()) {
    {
      const std::lock_guard lk(supervisor_mutex_);
      supervisor_stop_ = true;
    }
    supervisor_cv_.notify_all();
    supervisor_thread_.join();
  }
  if (options_.checkpoint_epoch != 0) {
    for (auto& shard : shards_) {
      const std::lock_guard lk(shard->log_mutex);
      const std::uint64_t consumed = shard->consumed_seq.load(std::memory_order_relaxed);
      shard->replay_log.for_each_control(
          [&](std::uint64_t seq, const ReplayLog::ControlBlock& block) {
            const std::shared_ptr<MigrationTicket>& ticket = control_of(block).ticket;
            if (seq <= consumed || ticket == nullptr) return;
            {
              const std::lock_guard tlk(ticket->m);
              ticket->ready = true;
              ticket->done = true;
            }
            ticket->cv.notify_all();
          });
    }
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  if (cascade_thread_.joinable()) cascade_thread_.join();
  // Release any flush() parked on progress that will now never come (its
  // predicate is stop-aware). The empty lock/unlock pairs the notify
  // with the waiter's predicate evaluation.
  for (Outbox* source : sources_) {
    { const std::lock_guard lk(source->out_mutex); }
    source->done_cv.notify_all();
  }
}

void ShardedEngineRuntime::add_definition(core::EventDefinition def) {
  // The one copy of the spec: the hosting engine, migration tickets,
  // checkpoint decode and recovery all share it.
  auto spec = std::make_shared<const core::EventDefinition>(std::move(def));
  const std::lock_guard lk(ingest_mutex_);
  if (started_) {
    throw std::logic_error(
        "ShardedEngineRuntime: add_definition after ingestion or migration started "
        "(initial placement is registration-time; use move_definitions to move definitions)");
  }

  // Placement. Same event type => the shard of the type's first
  // definition: same-type definitions share an engine sequence counter,
  // so keeping them together keeps the relaxed tiers' numbering
  // sequential (the global tier and cascade mode renumber per type).
  std::vector<std::uint64_t> keys;  // the slots' placement keys, hashed once
  for (const core::SlotSpec& slot : spec->slots) {
    if (const std::optional<std::uint64_t> key = placement_key(slot.filter.signature())) {
      keys.push_back(*key);
    }
  }
  std::uint32_t shard = 0;
  if (const std::uint32_t type = type_index_.find(spec->id.value(), type_of());
      type != core::EventTypeTable::kNone) {
    shard = placement_->shard[type];
  } else {
    const auto affine = [&](const std::size_t s) {
      return std::any_of(keys.begin(), keys.end(),
                         [&](const std::uint64_t k) { return shard_keys_[s].contains(k); });
    };
    // Least-loaded shard; among equals prefer one already hosting one of
    // the definition's routing keys (bounds fan-out at equal balance).
    bool best_affine = affine(0);
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      if (shard_def_count_[s] > shard_def_count_[shard]) continue;
      const bool a = affine(s);
      if (shard_def_count_[s] < shard_def_count_[shard] || (a && !best_affine)) {
        shard = static_cast<std::uint32_t>(s);
        best_affine = a;
      }
    }
  }

  // Register with the shard engine first: it validates and may throw, and
  // must not leave any placement state half-updated.
  Shard& host = *shards_[shard];
  const auto local = static_cast<std::uint32_t>(host.engine->add_definition(spec));

  const auto global = static_cast<std::uint32_t>(def_specs_.size());
  def_type_.push_back(type_index_.insert(spec->id.value(), global, type_of()).first);
  if (local >= host.global_def.size()) host.global_def.resize(local + 1, 0);
  host.global_def[local] = global;
  for (auto& sp : shards_) sp->local_def.push_back(Shard::kNoLocal);
  host.local_def[global] = local;
  // Pre-first-checkpoint recovery rebuilds the engine from the initial
  // placement (then replays any migration controls from the log).
  if (options_.checkpoint_epoch != 0) host.initial_globals.push_back(global);
  // No batch record holds the snapshot before the first ingest or move.
  placement_->shard.push_back(shard);
  ++shard_def_count_[shard];
  shard_keys_[shard].insert(keys.begin(), keys.end());
  // Every slot under the global index: ingest maps matched definitions to
  // shards through the placement snapshot and workers to their engine's
  // local indices through local_def, so a migration never touches the index.
  ingest_routes_.add(*spec, global);
  if (options_.cascade) {
    for (const core::SlotSpec& slot : spec->slots) {
      const auto kind = slot.filter.signature().kind;
      if (kind == core::FilterSignature::Kind::kEventType ||
          kind == core::FilterSignature::Kind::kAny) {
        feedback_possible_.store(true, std::memory_order_release);
        // This shard can now receive feedback: it must honor the closure
        // frontier gate strictly (no run-ahead).
        host.cascade_reachable.store(true, std::memory_order_seq_cst);
      }
    }
  }
  def_specs_.push_back(std::move(spec));
}

void ShardedEngineRuntime::ingest(const core::Entity& entity, time_model::TimePoint now) {
  ingest_batch(std::span<const core::Entity>(&entity, 1),
               std::span<const time_model::TimePoint>(&now, 1));
}

void ShardedEngineRuntime::ingest_batch(std::span<const core::Entity> batch,
                                        time_model::TimePoint now) {
  const std::vector<time_model::TimePoint> nows(batch.size(), now);
  ingest_batch(batch, nows);
}

void ShardedEngineRuntime::ingest_batch(std::span<const core::Entity> batch,
                                        std::span<const time_model::TimePoint> nows) {
  if (batch.size() != nows.size()) {
    throw std::invalid_argument("ShardedEngineRuntime::ingest_batch: " +
                                std::to_string(batch.size()) + " entities but " +
                                std::to_string(nows.size()) + " time points");
  }
  if (batch.empty()) return;

  auto block = std::make_shared<Batch>();
  block->entities.assign(batch.begin(), batch.end());
  block->nows.assign(nows.begin(), nows.end());
  block->stamps.assign(batch.size(), 0);

  const std::lock_guard ingest_lk(ingest_mutex_);
  if (shutdown_.load(std::memory_order_acquire)) return;  // stopped: drop
  start_locked();

  // Route + stamp the whole batch into its pending record; merge_mutex_
  // is taken only for the record/counter append below, so a large
  // batch's routing pass never stalls a concurrent poll() or stats().
  // The record keeps the snapshot it routes through: the cascade
  // coordinator routes and gates each closure by it.
  PendingBatch pending;
  pending.first = next_stamp_;
  pending.masks.reserve(batch.size());
  pending.placement = placement_;
  const Placement& placement = *placement_;
  if (options_.cascade) pending.future.reserve(batch.size());
  std::uint64_t dropped = 0;
  std::uint64_t deliveries = 0;
  for (std::size_t i = 0; i < block->entities.size(); ++i) {
    route_scratch_.clear();
    ingest_routes_.collect(block->entities[i], route_scratch_,
                           [](const core::SlotRoute&) { return true; });
    // Cascade mode: a closure's downstream reach is the union of its
    // matched definitions' transitive feedback targets (shards outside it
    // may run later arrivals while the closure is in flight).
    std::uint64_t mask = 0;
    std::uint64_t future = 0;
    for (const core::SlotRoute r : route_scratch_) {
      mask |= std::uint64_t{1} << placement.shard[r.def_idx];
      if (options_.cascade) future |= placement.reach[r.def_idx];
    }
    if (mask == 0) {
      ++dropped;
      continue;  // no shard hosts a possibly-matching definition
    }
    const std::uint64_t stamp = next_stamp_++;
    block->stamps[i] = stamp;
    pending.masks.push_back(mask);
    pending.mask |= mask;
    if (options_.cascade) pending.future.push_back(future);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const auto s = static_cast<std::size_t>(std::countr_zero(m));
      shards_[s]->last_routed = stamp;
      ++shard_routed_[s];
      ++deliveries;
    }
  }
  // One index array for the whole batch, shard after shard, read back off
  // the record's masks: shard s's item covers [slice_end[s-1], slice_end[s]).
  block->routed.reserve(deliveries);
  std::array<std::uint32_t, 64> slice_end{};
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if ((pending.mask >> s) & 1) {
      std::size_t k = 0;  // routed arrival index into pending.masks
      for (std::uint32_t i = 0; i < block->stamps.size(); ++i) {
        if (block->stamps[i] != 0 && ((pending.masks[k++] >> s) & 1) != 0) {
          block->routed.push_back(i);
        }
      }
    }
    slice_end[s] = static_cast<std::uint32_t>(block->routed.size());
  }
  const std::uint64_t routed = pending.masks.size();
  {
    const std::lock_guard merge_lk(merge_mutex_);
    if (routed != 0) pending_.push_back(std::move(pending));
    arrivals_ += routed;
    deliveries_ += deliveries;
    dropped_ += dropped;
  }

  const std::shared_ptr<const Batch> frozen = std::move(block);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint32_t begin = s == 0 ? 0 : slice_end[s - 1];
    const std::uint32_t end = slice_end[s];
    if (begin == end) continue;
    Shard& shard = *shards_[s];
    const std::uint64_t count = end - begin;
    // Backpressure: park until the shard has arrival-capacity for `count`
    // more. Oversized batches are admitted into an empty inbox so they
    // cannot block forever. The seq_cst loads pair with the worker's
    // decrement + space_ec fences, so the park never misses a wakeup.
    bool stopped = false;
    for (;;) {
      const std::uint64_t q = shard.queued_arrivals.load(std::memory_order_seq_cst);
      if (shard.stop.load(std::memory_order_seq_cst)) {
        stopped = true;
        break;
      }
      if (q == 0 || q + count <= options_.queue_capacity) break;
      const std::uint32_t ticket = shard.space_ec.prepare_wait();
      const std::uint64_t q2 = shard.queued_arrivals.load(std::memory_order_seq_cst);
      if (shard.stop.load(std::memory_order_seq_cst) || q2 == 0 ||
          q2 + count <= options_.queue_capacity) {
        shard.space_ec.cancel_wait();
        continue;
      }
      shard.space_ec.wait(ticket);
    }
    if (stopped) continue;
    const std::uint64_t q =
        shard.queued_arrivals.fetch_add(count, std::memory_order_seq_cst) + count;
    // Producers are serialized by ingest_mutex_, so this read-modify-write
    // high-water update is exact despite the relaxed ordering.
    if (q > shard.max_queued.load(std::memory_order_relaxed)) {
      shard.max_queued.store(q, std::memory_order_relaxed);
    }
    if (!push_locked(shard, WorkItem{frozen, begin, end})) {
      // Inbox closed mid-shutdown: the item was discarded — undo the
      // admission so the counters stay consistent for late observers.
      shard.queued_arrivals.fetch_sub(count, std::memory_order_seq_cst);
      shard.space_ec.notify_all();
    }
  }

  // Checkpoint epoch boundary: one checkpoint control item per shard,
  // pushed under the same ingest lock that stamped this batch — an epoch
  // barrier in every shard's stamp-ordered inbox.
  if (options_.checkpoint_epoch != 0) {
    ckpt_arrivals_ += routed;  // the epoch counts routed arrivals
    if (ckpt_arrivals_ >= options_.checkpoint_epoch) {
      ckpt_arrivals_ = 0;
      const WorkItem ckpt = WorkItem::of_control(Control{nullptr, false, 0, ++ckpt_seq_});
      for (auto& sp : shards_) push_control(*sp, ckpt);
    }
  }

  if (options_.cascade) signal_cascade();  // new pending arrivals to close
}

bool ShardedEngineRuntime::push_locked(Shard& shard, WorkItem item) {
  const bool logged = options_.checkpoint_epoch != 0;
  if (logged) {
    const std::lock_guard lk(shard.log_mutex);
    if (item.is_control()) {
      // Shares the control block (and any ticket); a checkpoint is a
      // barrier the log can be truncated through.
      shard.replay_log.append(item.batch, item.control().ckpt != 0);
    } else {
      const Batch& batch = *item.batch;
      shard.replay_log.append(item.indices(), batch.entities, batch.nows, batch.stamps);
    }
  }
  if (shard.inbox.push(std::move(item))) {
    shard.work_ec.notify_all();
    return true;
  }
  if (logged) {
    // Never pushed: retract it, so pushed items stay dense.
    const std::lock_guard lk(shard.log_mutex);
    shard.replay_log.retract();
  }
  return false;
}

void ShardedEngineRuntime::start_locked() {
  if (started_) return;
  started_ = true;
  // Registration is over: freeze the index so the cascade coordinator can
  // collect from it concurrently with ingest.
  ingest_routes_.freeze();
  // Placement's registration-time inputs are never read again.
  shard_keys_.clear();
  shard_keys_.shrink_to_fit();
  // The registration-time snapshot is final from here on.
  if (options_.cascade) build_cascade_graph(*placement_);
}

void ShardedEngineRuntime::push_control(Shard& shard, WorkItem item) {
  // Control items carry no arrivals: they bypass the arrival-capacity
  // check (blocking on it under ingest_mutex_ could stall the very
  // workers that free the space), and the inbox itself never blocks.
  const std::shared_ptr<MigrationTicket> ticket = item.control().ticket;
  // Admitted, or a checkpoint item: nothing to release.
  if (push_locked(shard, std::move(item)) || ticket == nullptr) return;
  // Closed inbox: shutdown() won the race before this pair was issued
  // (issuance and inbox close both hold ingest_mutex_, so a pair is
  // never split — both pushes fail together). Complete the handshake
  // so anyone waiting on this ticket (a worker in handle_control's
  // receive wait, or migrate_definition's done wait) is released; the
  // state transfer is abandoned with the rest of the in-flight work.
  {
    const std::lock_guard tlk(ticket->m);
    ticket->ready = true;
    ticket->done = true;
  }
  ticket->cv.notify_all();
}

void ShardedEngineRuntime::move_locked(std::vector<std::uint32_t> defs, std::uint32_t to) {
  // Placement is now dynamic; worker threads own the local index maps.
  start_locked();
  const std::uint32_t from = placement_->shard[defs.front()];
  auto ticket = std::make_shared<MigrationTicket>();
  ticket->globals = std::move(defs);  // ascending global order

  // Publish the flipped placement under the ingest lock: every arrival
  // stamped before this point was routed to `from` (and is already, or
  // will be, ahead of the control items in its inbox); every arrival
  // stamped after is routed to `to` behind the implant item. That is the
  // epoch barrier. Always a copy: batch records and in-flight closures
  // may still read the old snapshot on other threads. The definition set
  // is frozen now, so the first move sizes the ticket table once.
  auto next = std::make_shared<Placement>(*placement_);
  if (def_ticket_.empty()) def_ticket_.resize(def_specs_.size());
  for (const std::uint32_t d : ticket->globals) {
    next->shard[d] = to;
    def_ticket_[d] = ticket;
  }
  if (options_.cascade) build_cascade_graph(*next);
  placement_ = std::move(next);
  ++migrations_;
  // A type now spans several shards when one of its definitions stayed
  // off `to`.
  for (std::uint32_t d = 0; d < def_specs_.size(); ++d) {
    if (placement_->shard[d] != to &&
        std::any_of(ticket->globals.begin(), ticket->globals.end(),
                    [&](const std::uint32_t m) { return def_type_[m] == def_type_[d]; })) {
      ++splits_;
      break;
    }
  }

  // Cascade mode: the control items act at sub-stamp (barrier-1, +inf) —
  // after every pre-barrier closure, before any post-barrier arrival —
  // and closures route through their own batch's snapshot, so feedback
  // for pre-barrier stamps still reaches the definitions' old shard.
  const std::uint64_t barrier = next_stamp_;
  if (options_.cascade) {
    // The destination may now host a feedback-reachable definition; flip
    // its gate *before* the control pair is visible so its worker never
    // runs a post-barrier arrival ahead of the closure frontier.
    for (const std::uint32_t d : ticket->globals) {
      for (const core::SlotSpec& slot : def_specs_[d]->slots) {
        const auto kind = slot.filter.signature().kind;
        if (kind == core::FilterSignature::Kind::kEventType ||
            kind == core::FilterSignature::Kind::kAny) {
          shards_[to]->cascade_reachable.store(true, std::memory_order_seq_cst);
        }
      }
    }
  } else if (options_.ordering == OrderingTier::kPerDefinitionOrder) {
    // Per-definition order: the destination's post-barrier blocks must not
    // be released before every pre-barrier arrival is out, or a moved
    // definition's later emissions could overtake its earlier ones. The
    // hold is registered before either control item exists, so no
    // post-barrier block can possibly be published yet.
    const std::lock_guard merge_lk(merge_mutex_);
    shard_holds_[to].push_back(barrier);
  }
  push_control(*shards_[from], WorkItem::of_control(Control{ticket, true, barrier}));
  push_control(*shards_[to], WorkItem::of_control(Control{ticket, false, barrier}));
}

std::shared_ptr<ShardedEngineRuntime::MigrationTicket> ShardedEngineRuntime::busy_ticket(
    std::span<const std::uint32_t> defs) const {
  if (def_ticket_.empty()) return nullptr;  // nothing has moved
  for (const std::uint32_t d : defs) {
    // An expired ticket is done: both control items were handled (or
    // discarded) and dropped.
    if (std::shared_ptr<MigrationTicket> t = def_ticket_[d].lock()) {
      const std::lock_guard tlk(t->m);
      if (!t->done) return t;
    }
  }
  return nullptr;
}

bool ShardedEngineRuntime::wait_ticket(std::unique_lock<std::mutex>& lk,
                                       const std::shared_ptr<MigrationTicket>& ticket) {
  // The destination worker must implant before the definitions can move
  // again (the worker-side index maps are only consistent at implanted
  // boundaries). The wait holds no runtime lock, and the implant only
  // needs the two workers to drain their inboxes, so it terminates.
  lk.unlock();
  {
    std::unique_lock tlk(ticket->m);
    ticket->cv.wait(tlk, [&] { return ticket->done; });
  }
  lk.lock();
  // A shutdown may have slipped in while the lock was released; issuing
  // now would push a control pair onto closed inboxes.
  return !shutdown_.load(std::memory_order_acquire);
}

bool ShardedEngineRuntime::move_settled(
    std::size_t to_shard, const std::function<std::vector<std::uint32_t>()>& select) {
  std::unique_lock lk(ingest_mutex_);
  if (shutdown_.load(std::memory_order_acquire)) return false;  // stopped: no-op
  std::vector<std::uint32_t> defs = select();
  if (to_shard >= shards_.size()) {
    throw std::out_of_range("ShardedEngineRuntime: unknown shard " + std::to_string(to_shard));
  }
  while (const std::shared_ptr<MigrationTicket> t = busy_ticket(defs)) {
    if (!wait_ticket(lk, t)) return false;  // stopped: no-op
    defs = select();  // placement may have changed while the lock was released
  }
  const auto to = static_cast<std::uint32_t>(to_shard);
  // One control pair per source shard; definitions already on `to` stay.
  bool issued = false;
  for (std::uint32_t from = 0; from < shards_.size(); ++from) {
    if (from == to) continue;
    std::vector<std::uint32_t> subset;
    for (const std::uint32_t d : defs) {
      if (placement_->shard[d] == from) subset.push_back(d);
    }
    if (subset.empty()) continue;
    move_locked(std::move(subset), to);
    issued = true;
  }
  return issued;
}

bool ShardedEngineRuntime::move_definitions(std::span<const std::size_t> defs,
                                            std::size_t to_shard) {
  return move_settled(to_shard, [&] {
    std::vector<std::uint32_t> out;
    for (const std::size_t d : defs) {
      if (d >= def_specs_.size()) {
        throw std::out_of_range("ShardedEngineRuntime: unknown definition index " +
                                std::to_string(d));
      }
      out.push_back(static_cast<std::uint32_t>(d));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  });
}

bool ShardedEngineRuntime::migrate_definition(std::size_t def_index, std::size_t to_shard) {
  return move_settled(to_shard, [&] {
    if (def_index >= def_specs_.size()) {
      throw std::out_of_range("ShardedEngineRuntime: unknown definition index " +
                              std::to_string(def_index));
    }
    // The definition and the same-type definitions on its shard.
    const std::vector<std::uint32_t>& shard = placement_->shard;
    std::vector<std::uint32_t> out;
    for (std::uint32_t d = 0; d < shard.size(); ++d) {
      if (def_type_[d] == def_type_[def_index] && shard[d] == shard[def_index]) {
        out.push_back(d);
      }
    }
    return out;
  });
}

std::size_t ShardedEngineRuntime::rebalance_now() {
  // From here on the workers publish per-definition loads (the first pass
  // may still see empty snapshots — loads trail by design).
  publish_loads_.store(true, std::memory_order_relaxed);
  const std::lock_guard lk(ingest_mutex_);
  if (shutdown_.load(std::memory_order_acquire)) return 0;  // stopped: no-op
  ++rebalance_passes_;
  if (def_specs_.empty() || shards_.size() < 2) return 0;

  // Refresh the cumulative per-definition loads from the shards' latest
  // publications. The snapshots trail in-flight work (and a mid-move
  // definition is absent from both sides until implanted) — the counters are
  // monotone per definition, so unattributed work simply lands in a later
  // pass.
  def_load_now_.resize(def_specs_.size());
  def_load_prev_.resize(def_specs_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard lk(shard->out_mutex);
    for (const auto& [global, load] : shard->published_def_loads) {
      if (global >= def_load_now_.size()) continue;
      // Newest wins: the counters are monotone per definition, so if two
      // snapshots ever mention the same definition (the source's last
      // pre-migration publication racing the destination's first), the
      // larger cumulative total is the fresher one.
      DefTotals& now = def_load_now_[global];
      if (load.routed + load.tried >= now.routed + now.tried) {
        now = DefTotals{load.routed, load.tried, load.buffered};
      }
    }
  }

  // Saturating deltas: a (theoretical) stale-over-fresh snapshot must
  // cost a pass of attribution, never wrap to ~2^64 and stampede the
  // plan.
  const auto sat_delta = [](const std::uint64_t now, const std::uint64_t prev) {
    return now >= prev ? now - prev : 0;
  };
  def_cost_scratch_.clear();
  shard_load_scratch_.assign(shards_.size(), 0);
  for (std::uint32_t d = 0; d < def_specs_.size(); ++d) {
    const DefTotals& now = def_load_now_[d];
    const DefTotals& prev = def_load_prev_[d];
    const std::uint64_t cost = sat_delta(now.routed, prev.routed) +
                               sat_delta(now.tried, prev.tried) + now.buffered;
    const bool movable = busy_ticket(std::span(&d, 1)) == nullptr;
    const std::uint32_t host = placement_->shard[d];
    def_cost_scratch_.push_back(DefinitionCost{d, host, cost, movable});
    shard_load_scratch_[host] += cost;
  }
  def_load_prev_ = def_load_now_;

  order_scratch_.clear();
  plan_spillover(RebalanceView{shard_load_scratch_, def_cost_scratch_, &spillover_skipped_},
                 order_scratch_);

  std::size_t issued = 0;
  for (const MigrationOrder& order : order_scratch_) {
    if (order.def >= def_cost_scratch_.size() || order.to >= shards_.size()) continue;
    DefinitionCost& row = def_cost_scratch_[order.def];
    if (!row.movable || placement_->shard[order.def] == order.to) continue;
    move_locked({order.def}, order.to);
    row.movable = false;  // one move per pass
    ++issued;
  }
  return issued;
}

void ShardedEngineRuntime::observe(Shard& shard, Run& run,
                                   const std::shared_ptr<const core::Entity>& entity,
                                   time_model::TimePoint now, std::uint64_t stamp,
                                   std::uint32_t depth, std::uint32_t sub) {
  OutBlock& block = run.block;
  if (block.emissions.capacity() == 0) {
    block.emissions.reserve(run.emission_hint);
    block.marks.reserve(run.mark_hint);
  }
  // Candidates from the one routing index, kept when this shard hosts the
  // definition and its slot filter accepts the entity, then mapped to the
  // engine's local indices (ascending global order groups each
  // definition's slots, which is all the routed observe needs).
  run.routes.clear();
  ingest_routes_.collect(*entity, run.routes, [&](const core::SlotRoute r) {
    return shard.local_def[r.def_idx] != Shard::kNoLocal &&
           def_specs_[r.def_idx]->slots[r.slot_idx].filter.matches(*entity);
  });
  for (core::SlotRoute& r : run.routes) r.def_idx = shard.local_def[r.def_idx];
  const std::size_t first = block.emissions.size();
  shard.engine->observe(entity, now, run.routes, block.emissions);  // appends
  if (block.emissions.size() != first) {
    for (std::size_t k = first; k < block.emissions.size(); ++k) {
      block.emissions[k].def = shard.global_def[block.emissions[k].def];
    }
    block.marks.push_back(
        OutBlock::Mark{stamp, sub, static_cast<std::uint32_t>(block.emissions.size()), now});
  }
  run.ck_stamp = stamp;
  run.ck_depth = depth;
  run.ck_sub = sub;
  run.dirty = true;
}

void ShardedEngineRuntime::observe_arrivals(Shard& shard, Run& run, const WorkItem& item) {
  const Batch& batch = *item.batch;
  for (const std::uint32_t i : item.indices()) {
    // Aliasing pointer into the refcounted batch: slots that buffer the
    // arrival share the batch storage instead of deep-copying (the batch
    // stays alive while any shard buffers any of its entities).
    observe(shard, run, std::shared_ptr<const core::Entity>(item.batch, &batch.entities[i]),
            batch.nows[i], batch.stamps[i], 0, 0);
  }
  run.watermark = run.ck_stamp;
  run.arrivals += item.end - item.begin;
}

void ShardedEngineRuntime::publish(Shard& shard, Run& run) {
  // Per-definition loads are collected only when someone rebalances —
  // the default static configuration skips this O(definitions) walk.
  const bool loads = publish_loads_.load(std::memory_order_relaxed);
  if (loads) {
    run.loads.clear();
    shard.engine->collect_definition_loads(run.loads);
    for (auto& [idx, load] : run.loads) idx = shard.global_def[idx];  // local -> global
  }
  // A recovered engine only counts post-checkpoint work; stats_base
  // carries the checkpoint's cumulative counters (zero before any crash).
  core::EngineStats stats = shard.stats_base;
  stats += shard.engine->stats();
  // The run's block leaves whole: into the outbox when anything emitted,
  // freed here otherwise. Only its sizes stay, as the next run's hint.
  OutBlock block = std::exchange(run.block, OutBlock{});
  if (run.dirty) {
    run.emission_hint = block.emissions.size();
    run.mark_hint = block.marks.size();
  }
  {
    const std::lock_guard lk(shard.out_mutex);
    if (!block.marks.empty()) {
      shard.outbox.push_back(std::move(block));
      shard.out_dirty.store(true, std::memory_order_relaxed);
    }
    shard.published_stats = stats;
    // Swap, don't copy: the retired publication becomes the next
    // collection scratch, so steady-state publishing at 1e5+ definitions
    // allocates nothing under the lock.
    if (loads) std::swap(shard.published_def_loads, run.loads);
    // Publish completion only after the emissions are visible in the
    // outbox: the coordinator reads the key under this lock, and poll()
    // pairs the watermark's release store with an acquire load. The
    // watermark is the newest consumed arrival, which may precede the
    // key when the run ended on a feedback item.
    shard.ck_stamp = run.ck_stamp;
    shard.ck_depth = run.ck_depth;
    shard.ck_sub = run.ck_sub;
    shard.watermark.store(run.watermark, std::memory_order_release);
  }
  shard.done_cv.notify_all();
  if (options_.cascade) signal_cascade();
  if (run.last_seq != 0) shard.consumed_seq.store(run.last_seq, std::memory_order_relaxed);
  if (run.arrivals != 0) {
    shard.queued_arrivals.fetch_sub(run.arrivals, std::memory_order_seq_cst);
    shard.space_ec.notify_all();
  }
  run.arrivals = 0;
  run.last_seq = 0;
  run.dirty = false;
}

bool ShardedEngineRuntime::handle_control(Shard& shard, const Control& ctl, Run& run,
                                          bool suppress) {
  // Migration control item, exactly at the epoch barrier of this shard's
  // stamp-ordered inbox.
  MigrationTicket& ticket = *ctl.ticket;
  if (ctl.send) {
    // Every pre-barrier arrival for the moved definitions has been
    // processed; extract their engine state and hand it to the destination
    // worker. A recovery replay re-extracts: the rebuilt engine holds them
    // again (restored from a pre-barrier checkpoint or implanted by an
    // earlier replayed receive) and it must leave either way.
    std::vector<core::DefinitionState> states;
    states.reserve(ticket.globals.size());
    for (const std::uint32_t global : ticket.globals) {
      const std::uint32_t local = shard.local_def[global];
      // A missing mapping is a bookkeeping bug — fail loudly
      // (std::terminate via the uncaught throw) over silent UB.
      if (local == Shard::kNoLocal) {
        throw std::logic_error("ShardedEngineRuntime: extracting a definition this shard lacks");
      }
      states.push_back(shard.engine->extract_definition_state(local));
      shard.local_def[global] = Shard::kNoLocal;
    }
    // Republish *before* signalling ready: once the destination can
    // implant (and start publishing the moved definitions' loads),
    // this shard's published snapshot must no longer list them — two
    // live publications of one definition would let a stale value
    // overwrite a newer one in the rebalancer's merge.
    if (!suppress) publish(shard, run);
    {
      const std::lock_guard tlk(ticket.m);
      // Already ready: the original pre-crash send, the shutdown ticket
      // sweep, or a receive abandoned mid-shutdown completed this
      // handshake first — the extraction stands (the definitions have left
      // this engine) but this hand-off is void.
      if (!ticket.ready) {
        ticket.states = std::move(states);
        ticket.ready = true;
      }
    }
    ticket.cv.notify_all();
  } else {
    // Wait for the source's extraction, then implant before touching
    // any post-barrier arrival. The wait only depends on the source
    // worker draining its inbox (send items never block), so chains
    // of concurrent migrations resolve in decision order. It polls so
    // shutdown can interrupt it: a stopped, dead, or mid-recovery source
    // may never send.
    std::vector<core::DefinitionState> states;
    {
      std::unique_lock tlk(ticket.m);
      while (!ticket.ready) {
        if (shard.stop.load(std::memory_order_seq_cst)) {
          // Abandon the transfer but complete the handshake, as
          // shutdown's ticket sweep would: migrate_definition may be
          // parked on `done`.
          ticket.ready = true;
          ticket.done = true;
          tlk.unlock();
          ticket.cv.notify_all();
          return false;
        }
        ticket.cv.wait_for(tlk, std::chrono::milliseconds(1));
      }
      if (options_.checkpoint_epoch != 0) {
        // Keep the ticket's copy: if this shard later crashes and its
        // checkpoint predates this control, the recovery replay implants
        // from the ticket again. It goes with the ticket once both logs
        // are truncated past the control pair.
        states = ticket.states;
      } else {
        states = std::move(ticket.states);
      }
    }
    for (std::size_t i = 0; i < states.size(); ++i) {
      const auto local =
          static_cast<std::uint32_t>(shard.engine->implant_definition_state(std::move(states[i])));
      if (local >= shard.global_def.size()) shard.global_def.resize(local + 1, 0);
      shard.global_def[local] = ticket.globals[i];
      shard.local_def[ticket.globals[i]] = local;
    }
    // Republish stats/loads so the rebalancer sees the new layout;
    // the watermark is unchanged (control items carry no arrivals).
    if (!suppress) publish(shard, run);
    {
      const std::lock_guard tlk(ticket.m);
      ticket.done = true;
    }
    ticket.cv.notify_all();
  }
  return true;
}

void ShardedEngineRuntime::worker_loop(Shard& shard) {
  Run run(shard);
  // The current claim: one feedback item, one control item, or a run of
  // arrivals off the head item (`whole`: the claim popped the item).
  enum class Kind { kArrivals, kFeedback, kControl };
  Kind kind{};
  WorkItem item;
  FeedbackItem fb;
  bool whole = false;
  std::uint64_t blocked_gate = ~std::uint64_t{0};  // set by a gate-refused claim

  // Claims the next admissible work, or returns false (park on work_ec).
  // Sub-stamp order: arrival s acts at (s, 0), feedback at (s, depth >= 1),
  // a control item at (barrier-1, +inf). The coordinator dispatches
  // feedback in key order and the inbox is stamp-ordered, so comparing the
  // two heads yields this shard's next item; an arrival run extends while
  // its stamps stay below the feedback head and within the gate.
  const auto try_claim = [&]() -> bool {
    blocked_gate = ~std::uint64_t{0};
    WorkItem* head = shard.inbox.front();
    const auto stamp_at = [&](std::uint32_t pos) {
      return head->batch->stamps[head->batch->routed[pos]];
    };
    std::uint64_t limit = ~std::uint64_t{0};  // highest arrival stamp this claim may take
    // No feedback-consuming definition (always the case without cascade):
    // no feedback exists and no gate binds, so the claim is the whole head
    // item — no lock, no fenced load. The flag is frozen before the first
    // ingest, and everything that can reach this shard is ordered after
    // it (inbox hand-off, fb_mutex, the work_ec fences).
    if (feedback_possible_.load(std::memory_order_acquire)) {
      // The head's gate: arrival s waits for the closures below s, a
      // control for those below its barrier. Feedback sorts first iff its
      // stamp is at or below that gate.
      std::uint64_t gate = ~std::uint64_t{0};
      if (head != nullptr) {
        gate = head->is_control() ? head->control().barrier - 1 : stamp_at(head->begin) - 1;
      }
      {
        const std::lock_guard flk(shard.fb_mutex);
        if (!shard.feedback.empty()) {
          if (shard.feedback.front().stamp <= gate) {
            // Sequenced by the coordinator; always admissible.
            fb = std::move(shard.feedback.front());
            shard.feedback.pop_front();
            kind = Kind::kFeedback;
            return true;
          }
          limit = shard.feedback.front().stamp;
        }
      }
      if (head == nullptr) return false;
      // Arrivals and control items wait on this shard's admission
      // frontier: every in-flight closure below theirs either finished
      // dispatching feedback or provably cannot reach this shard, so
      // nothing with a smaller sub-stamp can enter its queues anymore —
      // items already queued are ordered by the head comparison above. A
      // shard hosting no feedback-reachable definition never receives
      // feedback items, so it runs ahead of the *global* frontier — but
      // only by kCascadeRunahead stamps, bounding its outbox while the
      // coordinator trails. The seq_cst loads pair with the coordinator's
      // frontier stores through work_ec's fences, so parking never misses
      // an advance.
      std::uint64_t frontier;
      if (shard.cascade_reachable.load(std::memory_order_seq_cst)) {
        frontier = shard.admitted.load(std::memory_order_seq_cst);
        if (gate > frontier) {
          blocked_gate = gate;  // frontier value that would admit the head
          return false;
        }
      } else {
        // Global-frontier advances wake unreachable shards directly;
        // leave blocked_gate unset so per-shard stores skip the futex.
        frontier = admitted_through_.load(std::memory_order_seq_cst) + kCascadeRunahead;
        if (gate > frontier) return false;
      }
      limit = std::min(limit, frontier + 1);
    }
    if (head == nullptr) return false;
    whole = true;
    if (head->is_control()) {
      kind = Kind::kControl;
    } else {
      kind = Kind::kArrivals;
      if (limit != ~std::uint64_t{0}) {
        std::uint32_t end = head->begin + 1;  // the head arrival passed the gate
        while (end < head->end && stamp_at(end) <= limit) ++end;
        if (end < head->end) {
          // Admissible prefix only: advance the head item in place.
          whole = false;
          item = WorkItem{head->batch, head->begin, end};
          head->begin = end;
          return true;
        }
      }
    }
    item = std::move(*head);
    shard.inbox.pop_front();
    ++shard.popped_seq;
    return true;
  };

  // Claims the next work, parking while none is admissible; false on stop.
  const auto claim = [&]() -> bool {
    for (;;) {
      if (shard.stop.load(std::memory_order_acquire)) return false;
      if (try_claim()) return true;
      // Out of admissible work: make the run's completions visible before
      // parking — the merge, the coordinator or a peer may be waiting on
      // them, and the resulting frontier advance may itself admit the
      // next item.
      if (run.dirty) publish(shard, run);
      // Publish what would unblock us before the pre-park recheck: the
      // coordinator's frontier store / parked_gate probe pair is the
      // mirror of this store / claim recheck, so a wake is never lost.
      const std::uint64_t parked = blocked_gate;
      shard.parked_gate.store(parked, std::memory_order_seq_cst);
      const std::uint32_t ticket = shard.work_ec.prepare_wait();
      if (shard.stop.load(std::memory_order_seq_cst)) {
        shard.work_ec.cancel_wait();
        return false;
      }
      if (try_claim()) {
        shard.work_ec.cancel_wait();
        return true;
      }
      if (blocked_gate < parked) {
        // The recheck hit a lower gate (an item arrived since the first
        // claim): the coordinator would skip advances below the stored
        // gate, so store the new one before sleeping.
        shard.work_ec.cancel_wait();
        continue;
      }
      shard.work_ec.wait(ticket);
    }
  };

  while (claim()) {
    if (whole && kind != Kind::kFeedback) {
      // Injected crash: abandon the popped item and the unpublished run
      // (their log copies survive; recovery replays them) and die. Only
      // fires at item boundaries, so consumed_seq exactly bounds what the
      // merge has seen. (Claims split an item only under a cascade gate,
      // which never runs with crash injection.)
      if (options_.crash_hook && options_.crash_hook(shard.index)) {
        die(shard);
        return;
      }
    }
    if (options_.stall_hook) options_.stall_hook(shard.index);

    switch (kind) {
      case Kind::kFeedback:
        observe(shard, run, fb.entity, fb.now, fb.stamp, fb.depth, fb.sub);
        fb = FeedbackItem{};
        break;
      case Kind::kArrivals:
        observe_arrivals(shard, run, item);
        if (whole) run.last_seq = shard.popped_seq;
        break;
      case Kind::kControl:
        // A control must see the pre-barrier run published, and its
        // handshake may block on a peer waiting for this run's completions.
        if (run.dirty) publish(shard, run);
        if (item.control().ckpt != 0) {
          take_checkpoint(shard, shard.popped_seq);
        } else if (handle_control(shard, item.control(), run, false)) {
          shard.consumed_seq.store(shard.popped_seq, std::memory_order_relaxed);
        }
        break;
    }
    item = WorkItem{};  // drop the batch reference before publishing
    // Bounds merge latency under sustained load: a run is published at
    // the latest once kPublishBatch arrivals have accumulated.
    if (run.arrivals >= kPublishBatch) publish(shard, run);
  }

  // Stopped: arrivals and feedback are abandoned (the runtime is being
  // destroyed and the coordinator is stopping too), and so are
  // checkpoints, which would snapshot past the abandoned arrivals. Pending
  // migration handshakes still complete — migrate_definition may be
  // parked on a ticket — with receives whose send never comes released
  // by handle_control's stop check.
  if (run.dirty) publish(shard, run);
  WorkItem leftover;
  while (shard.inbox.try_pop(leftover)) {
    if (leftover.is_control() && leftover.control().ticket != nullptr) {
      handle_control(shard, leftover.control(), run, false);
    }
    leftover = WorkItem{};
  }
}

void ShardedEngineRuntime::take_checkpoint(Shard& shard, std::uint64_t push_seq) {
  ShardCheckpoint ck;
  ck.push_seq = push_seq;
  ck.stats = shard.stats_base;
  ck.stats += shard.engine->stats();
  // Snapshot hosted definitions in ascending local order: implanting in
  // frame order on recovery then reproduces a dense local index space. A
  // local whose global maps elsewhere is a tombstone of an extraction.
  for (std::uint32_t local = 0; local < shard.global_def.size(); ++local) {
    const std::uint32_t global = shard.global_def[local];
    if (shard.local_def[global] != local) continue;
    ck.frames.emplace_back(
        global, encode_definition_state(shard.engine->snapshot_definition_state(local)));
  }
  {
    const std::lock_guard lk(shard.log_mutex);
    shard.checkpoint = std::move(ck);
    // The frames cover every logged item up to the barrier — truncate.
    shard.replay_log.truncate_through(push_seq);
  }
  shard.consumed_seq.store(push_seq, std::memory_order_relaxed);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedEngineRuntime::die(Shard& shard) {
  shard.dead.store(true, std::memory_order_seq_cst);
  // Empty lock/unlock pairs the notify with the supervisor's predicate.
  { const std::lock_guard lk(supervisor_mutex_); }
  supervisor_cv_.notify_all();
}

void ShardedEngineRuntime::supervisor_loop() {
  for (;;) {
    {
      std::unique_lock lk(supervisor_mutex_);
      supervisor_cv_.wait(lk, [&] {
        if (supervisor_stop_) return true;
        for (const auto& shard : shards_) {
          if (shard->dead.load(std::memory_order_seq_cst)) return true;
        }
        return false;
      });
      if (supervisor_stop_) return;
    }
    for (auto& sp : shards_) {
      Shard& shard = *sp;
      if (!shard.dead.load(std::memory_order_seq_cst)) continue;
      // The dying worker returned right after setting the flag; the join
      // orders every worker-owned field for the replacement thread.
      if (shard.worker.joinable()) shard.worker.join();
      shard.dead.store(false, std::memory_order_seq_cst);
      if (shutdown_.load(std::memory_order_acquire)) continue;  // shutdown sweeps the leftovers
      crashes_.fetch_add(1, std::memory_order_relaxed);
      Shard* s = &shard;
      shard.worker = std::thread([this, s] {
        if (recover_shard(*s)) worker_loop(*s);
      });
    }
  }
}

bool ShardedEngineRuntime::recover_shard(Shard& shard) {
  // Runs on the shard's replacement worker thread, after the supervisor
  // joined the dead one (the join orders every plain-field read below).
  const std::uint64_t consumed_at_crash = shard.consumed_seq.load(std::memory_order_relaxed);
  const std::uint64_t popped_at_crash = shard.popped_seq;

  // 1. Fresh engine from the last checkpoint, or the initial placement
  //    when the shard died before its first checkpoint barrier.
  auto engine = std::make_unique<core::DetectionEngine>(id_, layer_, location_, options_.engine);
  shard.global_def.clear();
  shard.local_def.assign(def_specs_.size(), Shard::kNoLocal);
  const auto adopt = [&](const std::uint32_t global, const std::uint32_t local) {
    if (local >= shard.global_def.size()) shard.global_def.resize(local + 1, 0);
    shard.global_def[local] = global;
    shard.local_def[global] = local;
  };
  std::optional<ShardCheckpoint> ck;
  {
    const std::lock_guard lk(shard.log_mutex);
    ck = shard.checkpoint;  // copy: the stored one must survive this recovery
  }
  // Both branches share the specs in def_specs_: it stops growing once
  // ingestion starts (and a crash implies ingestion), so reading it
  // off-thread is safe.
  if (ck.has_value()) {
    shard.stats_base = ck->stats;
    for (const auto& [global, frame] : ck->frames) {
      std::optional<core::DefinitionState> state =
          decode_definition_state(frame, def_specs_[global]);
      if (!state.has_value()) {
        // A checkpoint this runtime wrote always decodes; failing loudly
        // beats resurrecting a shard with silently missing definitions.
        throw std::runtime_error("ShardedEngineRuntime: corrupt shard checkpoint frame");
      }
      adopt(global,
            static_cast<std::uint32_t>(engine->implant_definition_state(std::move(*state))));
    }
  } else {
    shard.stats_base = core::EngineStats{};
    for (const std::uint32_t global : shard.initial_globals) {
      adopt(global, static_cast<std::uint32_t>(engine->add_definition(def_specs_[global])));
    }
  }
  shard.engine = std::move(engine);

  // 2. Replay the log in push order, strictly up to the last entry the
  //    dead worker popped — everything later is still sitting in the inbox
  //    and belongs to the resumed live loop (replaying past that point
  //    would chase the log tail forever while producers keep appending,
  //    and would bypass the stall/crash hooks for the rest of the run).
  //    Entries the dead worker had already published
  //    (push_seq <= consumed_at_crash) only rebuild engine state — their
  //    emissions are in the merge and their capacity was released. The
  //    remainder (consumed < push_seq <= popped) was popped but never
  //    published: processed for real, published, capacity-released.
  Run run(shard);
  std::uint64_t done_seq = ck.has_value() ? ck->push_seq : 0;
  std::uint64_t replayed = 0;
  ReplayLog::Reader reader;
  std::string record;
  for (;;) {
    if (shard.stop.load(std::memory_order_seq_cst)) {
      shard.dead.store(true, std::memory_order_seq_cst);
      return false;
    }
    // Push sequences are dense and the log starts right after the
    // checkpoint, so the reader walks it from the front in push order.
    const std::uint64_t next = done_seq + 1;
    if (next > popped_at_crash) break;  // popped prefix replayed — hand over to the live loop
    ReplayLog::ControlBlock block;
    {
      const std::lock_guard lk(shard.log_mutex);
      if (next >= shard.replay_log.end_seq()) break;
      // Copies the item: the log keeps its own for a future crash.
      block = reader.fetch(shard.replay_log, next, record);
    }

    const bool suppress = next <= consumed_at_crash;
    if (block != nullptr) {
      const Control& ctl = control_of(block);
      if (ctl.ckpt != 0) {
        // Re-taking the checkpoint here reproduces the original barrier
        // exactly (same prefix of the log has been applied).
        take_checkpoint(shard, next);
      } else {
        if (!handle_control(shard, ctl, run, suppress)) {
          shard.dead.store(true, std::memory_order_seq_cst);
          return false;
        }
        if (!suppress) shard.consumed_seq.store(next, std::memory_order_relaxed);
      }
    } else {
      std::optional<Arrivals> arrivals = reader.decode(record);
      if (!arrivals.has_value()) {
        throw std::runtime_error("ShardedEngineRuntime: corrupt replay record");
      }
      auto block = std::make_shared<Batch>();
      block->entities = std::move(arrivals->entities);
      block->nows = std::move(arrivals->nows);
      block->stamps = std::move(arrivals->stamps);
      block->routed.resize(block->entities.size());
      std::iota(block->routed.begin(), block->routed.end(), 0U);
      const auto n = static_cast<std::uint32_t>(block->routed.size());
      observe_arrivals(shard, run, WorkItem{std::move(block), 0, n});
      replayed += n;
      if (suppress) {
        run = Run(shard);  // already merged pre-crash: drop, keep the published state
      } else {
        run.last_seq = next;
        publish(shard, run);
      }
    }
    done_seq = next;
  }
  replayed_.fetch_add(replayed, std::memory_order_relaxed);
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ShardedEngineRuntime::signal_cascade() {
  cascade_signal_.fetch_add(1, std::memory_order_seq_cst);
  cascade_ec_.notify_all();
}

bool ShardedEngineRuntime::ck_reached_all(std::uint64_t mask, std::uint64_t stamp,
                                          std::uint32_t depth, std::uint32_t sub) {
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    Shard& shard = *shards_[static_cast<std::size_t>(std::countr_zero(m))];
    const std::lock_guard lk(shard.out_mutex);
    if (shard.ck_stamp != stamp) {
      if (shard.ck_stamp < stamp) return false;
      continue;
    }
    if (shard.ck_depth != depth) {
      if (shard.ck_depth < depth) return false;
      continue;
    }
    if (shard.ck_sub < sub) return false;
  }
  return true;
}

void ShardedEngineRuntime::build_cascade_graph(Placement& placement) const {
  const auto defs = static_cast<std::uint32_t>(def_specs_.size());
  // Type-level consumption edges: definition d consumes a type's output
  // when one of its slots filters on instances of that type (or on
  // anything). Reach is computed per type (indexed by def_type_) and
  // shared by the type's definitions.
  std::vector<std::vector<std::uint32_t>> consumers(defs);
  std::vector<std::uint32_t> wildcard;  // defs with kAny slots: consume every type
  for (std::uint32_t d = 0; d < defs; ++d) {
    for (const core::SlotSpec& slot : def_specs_[d]->slots) {
      const core::FilterSignature sig = slot.filter.signature();
      if (sig.kind == core::FilterSignature::Kind::kEventType) {
        if (const std::uint32_t t = type_index_.find(sig.key, type_of());
            t != core::EventTypeTable::kNone) {
          consumers[t].push_back(d);
        }
      } else if (sig.kind == core::FilterSignature::Kind::kAny) {
        wildcard.push_back(d);
      }
    }
  }
  // reach[t]: shards hosting any definition reachable from type t's
  // output in one or more cascade steps. Fixed-point iteration
  // handles cascade cycles (the engine's depth cap bounds those at run
  // time, not here); it terminates because masks only ever grow.
  std::vector<std::uint64_t> reach(defs, 0);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::uint32_t t = 0; t < defs; ++t) {
      if (def_type_[t] != t) continue;  // the type's first definition stands for it
      std::uint64_t m = reach[t];
      for (const std::uint32_t d : consumers[t]) {
        m |= std::uint64_t{1} << placement.shard[d];
        m |= reach[def_type_[d]];
      }
      for (const std::uint32_t d : wildcard) {
        m |= std::uint64_t{1} << placement.shard[d];
        m |= reach[def_type_[d]];
      }
      if (m != reach[t]) {
        reach[t] = m;
        changed = true;
      }
    }
  }
  placement.reach.resize(defs);
  for (std::uint32_t d = 0; d < defs; ++d) placement.reach[d] = reach[def_type_[d]];
}

void ShardedEngineRuntime::cascade_loop() {
  const std::size_t pipeline = std::max<std::uint32_t>(1, options_.cascade_pipeline);

  // One in-flight closure. Lifecycle: activated (awaiting its arrival
  // marks) -> alternating [renumber+dispatch a level / await its
  // consumption] -> finished (the terminal level was renumbered in the
  // same pass that learned no further dispatch happens, so "finished
  // dispatching" and "closure complete" coincide; the admission
  // frontiers may pass it) -> published in stamp order. `level` buffers
  // gathered child emissions tagged with their parent's sub; `closure`
  // holds renumbered emissions not yet published.
  struct Active {
    std::uint64_t stamp = 0;
    std::uint64_t mask = 0;  ///< recipient shards of the arrival
    /// The snapshot the arrival was routed under: the closure's feedback
    /// routes, and its reach gates admission, through it.
    std::shared_ptr<const Placement> placement;
    std::uint32_t depth = 0;       ///< dispatched level awaiting consumption
    std::uint32_t next_level = 1;  ///< closure level the gathered children form
    bool awaiting_arrival = true;
    bool finished = false;
    std::uint64_t remaining = 0;  ///< shards future feedback could still reach
    std::uint64_t reingested = 0;
    std::uint64_t truncated = 0;
    std::vector<std::uint8_t> touched;    ///< shards the awaited level went to
    std::vector<std::uint32_t> last_sub;  ///< last sub dispatched per shard
    std::vector<core::Emission> level;
    std::vector<core::Emission> closure;
    time_model::TimePoint now{};
  };
  std::deque<Active> active;  // stamp order, oldest unpublished first
  std::uint64_t activated = 0;  // newest activated stamp
  std::vector<core::SlotRoute> routes;
  std::vector<std::vector<FeedbackItem>> fb_batch(shards_.size());
  std::vector<std::uint64_t> cascade_seq;  // coordinator-owned per-type counters
  std::vector<std::uint64_t> adm(shards_.size(), 0);
  const auto by_parent_then_def = [](const core::Emission& a, const core::Emission& b) {
    return a.emit_index != b.emit_index ? a.emit_index < b.emit_index : a.def < b.def;
  };
  // Shards hosting a definition `fed` can match under `a`'s placement.
  // ingest_routes_ was frozen before the first stamp, so collect() only
  // reads it here, concurrently with ingest.
  const auto targets = [&](const core::Entity& fed, const Active& a) {
    routes.clear();
    ingest_routes_.collect(fed, routes, [](const core::SlotRoute&) { return true; });
    std::uint64_t mask = 0;
    for (const core::SlotRoute r : routes) {
      mask |= std::uint64_t{1} << a.placement->shard[r.def_idx];
    }
    return mask;
  };

  const auto find_active = [&](std::uint64_t stamp) -> Active* {
    for (Active& a : active) {
      if (a.stamp == stamp) return &a;
    }
    return nullptr;
  };

  // Takes every outbox mark belonging to an in-flight closure into that
  // closure's level buffer. Per-shard outboxes are sub-stamp ordered, so
  // stopping at the first mark of a not-yet-activated stamp preserves
  // order — the block keeps its cursor there, and the mark is picked up
  // after its closure activates.
  const auto sweep_shard = [&](Shard& shard) {
    // Quiet-shard fast path: nothing published since the last sweep, so
    // skip the mutex. The flag only clears when the outbox empties —
    // marks held back for a not-yet-activated stamp keep it set, since
    // a later activate() (not a publish) is what makes them consumable.
    if (!shard.out_dirty.load(std::memory_order_relaxed)) return;
    const std::lock_guard lk(shard.out_mutex);
    for (; !shard.outbox.empty(); shard.outbox.pop_front()) {
      OutBlock& block = shard.outbox.front();
      for (; block.next < block.marks.size(); ++block.next) {
        const OutBlock::Mark& mark = block.marks[block.next];
        Active* a = find_active(mark.stamp);
        if (a == nullptr) return;  // out_dirty stays set
        a->now = mark.now;
        for (std::uint32_t k = block.begin_of(block.next); k < mark.end; ++k) {
          // Tag with the source item's sub so level order (parent order,
          // then definition) can be restored before renumbering.
          core::Emission& em = block.emissions[k];
          em.emit_index = mark.sub;
          a->level.push_back(std::move(em));
        }
      }
    }
    shard.out_dirty.store(false, std::memory_order_relaxed);
  };

  const auto activate = [&]() -> bool {
    // Steady-state fast path: a full window cannot activate anything, so
    // skip the merge_mutex_ section (the common case on idle wakes).
    if (active.size() >= pipeline) return false;
    bool any = false;
    {
      // The drain pops a batch record only once the newest closed stamp
      // passed it, so the record of the next stamp to activate is still
      // queued: the first one ending at or after it (records ascend).
      const std::lock_guard lk(merge_mutex_);
      while (active.size() < pipeline) {
        const std::uint64_t stamp = activated + 1;
        const auto batch = std::partition_point(
            pending_.begin(), pending_.end(),
            [stamp](const PendingBatch& b) { return b.last() < stamp; });
        if (batch == pending_.end()) break;
        Active a;
        a.stamp = stamp;
        a.mask = batch->masks[stamp - batch->first];
        a.placement = batch->placement;
        a.remaining = batch->future[stamp - batch->first];
        a.touched.assign(shards_.size(), 0);
        a.last_sub.assign(shards_.size(), 0);
        activated = stamp;
        active.push_back(std::move(a));
        any = true;
      }
    }
    if (active.size() > closures_in_flight_max_.load(std::memory_order_relaxed)) {
      closures_in_flight_max_.store(active.size(), std::memory_order_relaxed);
    }
    return any;
  };

  // Consumes `a`'s fully-gathered level: restore global level order,
  // renumber, and either finish the closure (empty / inert / depth-capped
  // level) or dispatch it as per-shard feedback batches.
  const auto advance = [&](Active& a) {
    std::stable_sort(a.level.begin(), a.level.end(), by_parent_then_def);
    const std::uint32_t depth = a.next_level;
    const std::size_t base = a.closure.size();
    for (std::size_t k = 0; k < a.level.size(); ++k) {
      core::Emission& em = a.level[k];
      em.depth = depth;
      em.emit_index = static_cast<std::uint32_t>(k);
      // Renumber the instance key's sequence from coordinator-owned
      // per-type counters, in closure order, *before* dispatch (children
      // observe the renumbered parent). Identity while a type's
      // definitions share a shard — that engine numbers their emissions in
      // this exact order — and with the type spread over several shards it
      // restores the sequential numbering their engines can no longer
      // agree on, which is what makes any move legal in cascade mode.
      const std::uint32_t t = def_type_[em.def];
      if (t >= cascade_seq.size()) cascade_seq.resize(t + 1, 0);
      em.instance.key.seq = cascade_seq[t]++;
      a.closure.push_back(std::move(em));
    }
    a.level.clear();
    a.awaiting_arrival = false;
    if (base == a.closure.size()) {  // empty level: closure complete
      a.remaining = 0;
      a.finished = true;
      return;
    }
    if (depth >= options_.engine.max_cascade_depth) {
      // Cycle guard: the cap level is delivered but never re-ingested;
      // count the suppressed re-ingestions exactly as the engine does.
      // Known without another roundtrip, so the closure finishes here.
      for (std::size_t k = base; k < a.closure.size(); ++k) {
        core::Entity fed(std::move(a.closure[k].instance));
        if (targets(fed, a) != 0) ++a.truncated;
        a.closure[k].instance = std::move(fed).extract_instance();
      }
      a.remaining = 0;
      a.finished = true;
      return;
    }
    // Re-ingest the level as feedback, batched per shard (one queue splice
    // + one wake per recipient, not per instance), and shrink the
    // closure's downstream reach to what the dispatched types can still
    // produce — shards outside it may admit younger arrivals immediately.
    std::fill(a.touched.begin(), a.touched.end(), 0);
    std::uint64_t next_remaining = 0;
    bool any_dispatch = false;
    for (std::size_t k = base; k < a.closure.size(); ++k) {
      core::Emission& em = a.closure[k];
      core::Entity fed(std::move(em.instance));
      const std::uint64_t mask = targets(fed, a);
      if (mask == 0) {  // inert: no shard hosts a candidate definition
        em.instance = std::move(fed).extract_instance();
        continue;
      }
      ++a.reingested;
      any_dispatch = true;
      next_remaining |= a.placement->reach[em.def];
      const auto shared = std::make_shared<const core::Entity>(std::move(fed));
      em.instance = shared->instance();  // the merged stream keeps its copy
      for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        const auto s = static_cast<std::size_t>(std::countr_zero(m));
        fb_batch[s].push_back(FeedbackItem{a.stamp, depth, em.emit_index, shared, a.now});
        a.touched[s] = 1;
        a.last_sub[s] = em.emit_index;
      }
    }
    if (!any_dispatch) {  // whole level inert: no roundtrip, closure complete
      a.remaining = 0;
      a.finished = true;
      return;
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (fb_batch[s].empty()) continue;
      {
        const std::lock_guard lk(shards_[s]->fb_mutex);
        for (FeedbackItem& item : fb_batch[s]) {
          shards_[s]->feedback.push_back(std::move(item));
        }
      }
      fb_batch[s].clear();
      shards_[s]->work_ec.notify_all();
      cascade_feedback_batches_.fetch_add(1, std::memory_order_relaxed);
    }
    a.remaining = next_remaining;
    a.depth = depth;
    a.next_level = depth + 1;
  };

  // Steps `a` once if its awaited level has been fully consumed: check
  // the recipients' consumption clocks, re-sweep exactly those shards'
  // outboxes (the level's children are complete once the clocks passed),
  // then advance. A shard whose clock ran ahead to a younger admitted
  // stamp counts as passed (ck_reached_all is lexicographic).
  const auto try_step = [&](Active& a) -> bool {
    if (a.finished) return false;
    if (a.awaiting_arrival) {
      if (!ck_reached_all(a.mask, a.stamp, 0, 0)) return false;
      for (std::uint64_t m = a.mask; m != 0; m &= m - 1) {
        sweep_shard(*shards_[static_cast<std::size_t>(std::countr_zero(m))]);
      }
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (a.touched[s] != 0 &&
            !ck_reached_all(std::uint64_t{1} << s, a.stamp, a.depth, a.last_sub[s])) {
          return false;
        }
      }
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (a.touched[s] != 0) sweep_shard(*shards_[s]);
      }
    }
    advance(a);
    return true;
  };

  // Recomputes the admission frontiers from the in-flight set. Base: the
  // newest activated stamp (everything activated and finished imposes no
  // constraint). Global frontier: below the first unfinished closure — the
  // gate for shards outside the cascade graph, which run ahead of it by
  // kCascadeRunahead. Per-shard
  // frontier: below the first unfinished closure whose remaining
  // downstream reach includes the shard — reachable shards outside every
  // in-flight closure's reach admit younger arrivals immediately, which
  // is where the closure overlap comes from.
  const auto publish_frontiers = [&] {
    std::uint64_t global = activated;
    for (const Active& a : active) {
      if (!a.finished) {
        global = a.stamp - 1;
        break;
      }
    }
    bool global_advanced = false;
    if (global > admitted_through_.load(std::memory_order_relaxed)) {
      // The seq_cst frontier store pairs with the workers' gate load
      // through work_ec's registration/probe fences — no missed wakeup.
      admitted_through_.store(global, std::memory_order_seq_cst);
      global_advanced = true;
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) adm[s] = activated;
    for (const Active& a : active) {
      if (a.finished) continue;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if ((a.remaining >> s) & 1 && a.stamp - 1 < adm[s]) adm[s] = a.stamp - 1;
      }
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      if (adm[s] > shard.admitted.load(std::memory_order_relaxed)) {
        shard.admitted.store(adm[s], std::memory_order_seq_cst);
        // Skip the futex unless this advance reaches the gate the worker
        // parked on (most closure finishes admit exactly one arrival,
        // on one shard — waking the other workers just burns switches).
        if (adm[s] >= shard.parked_gate.load(std::memory_order_seq_cst)) {
          shard.work_ec.notify_all();
        }
      }
    }
    // The global frontier only gates cascade-unreachable shards (the
    // reachable ones gate on their per-shard store above) — waking every
    // worker here would cost a futex round per parked worker per closure.
    if (global_advanced) {
      for (auto& sp : shards_) {
        if (!sp->cascade_reachable.load(std::memory_order_seq_cst)) {
          sp->work_ec.notify_all();
        }
      }
    }
  };

  for (;;) {
    if (cascade_stop_.load(std::memory_order_seq_cst)) return;
    // Snapshot before the pass: anything published after this load bumps
    // the counter past `seen`, so a no-progress pass either observes it
    // or skips the park below.
    const std::uint64_t seen = cascade_signal_.load(std::memory_order_seq_cst);
    bool progressed = activate();
    for (auto& sp : shards_) sweep_shard(*sp);
    // Renumber+dispatch strictly in stamp order: step the oldest
    // unfinished closure as far as it goes; younger closures only have
    // their marks swept and buffered until the prefix ahead of them has
    // finished, which keeps per-type sequence numbering — and therefore
    // the global tier's merged stream — byte-identical to the sequential
    // engine. The overlap is in the *shards*: while this closure waits on
    // its recipients, shards outside its remaining reach are already
    // consuming younger arrivals (see publish_frontiers), whose marks
    // land here ready to renumber without further roundtrips.
    for (Active& a : active) {
      if (a.finished) continue;
      while (try_step(a)) progressed = true;
      if (!a.finished) break;
    }
    // Publish the finished prefix as a worker publishes a run: one block,
    // a mark per closure that emitted, then the watermark (the newest
    // closed stamp).
    OutBlock closed;
    std::uint64_t through = 0;
    for (; !active.empty() && active.front().finished; active.pop_front()) {
      Active& a = active.front();
      if (!a.closure.empty()) {
        if (closed.emissions.empty()) {
          closed.emissions = std::move(a.closure);  // the common one-closure pass
        } else {
          closed.emissions.insert(closed.emissions.end(),
                                  std::make_move_iterator(a.closure.begin()),
                                  std::make_move_iterator(a.closure.end()));
        }
        closed.marks.push_back(OutBlock::Mark{
            a.stamp, 0, static_cast<std::uint32_t>(closed.emissions.size()), a.now});
      }
      cascade_reingested_.fetch_add(a.reingested, std::memory_order_relaxed);
      cascade_truncated_.fetch_add(a.truncated, std::memory_order_relaxed);
      through = a.stamp;
    }
    if (through != 0) {
      {
        const std::lock_guard lk(cascade_outbox_.out_mutex);
        if (!closed.marks.empty()) cascade_outbox_.outbox.push_back(std::move(closed));
        cascade_outbox_.watermark.store(through, std::memory_order_release);
      }
      cascade_outbox_.done_cv.notify_all();
      progressed = true;
    }
    // The frontiers are pure functions of the in-flight set: a pass that
    // made no progress cannot have moved them, so an idle wake skips the
    // store/notify sweep entirely.
    if (progressed) {
      publish_frontiers();
      continue;
    }
    // Idle: park on the event count unless something signalled since the
    // snapshot (the registration/probe fences make the recheck sound).
    const std::uint32_t ticket = cascade_ec_.prepare_wait();
    if (cascade_stop_.load(std::memory_order_seq_cst) ||
        cascade_signal_.load(std::memory_order_seq_cst) != seen) {
      cascade_ec_.cancel_wait();
      continue;
    }
    cascade_ec_.wait(ticket);
  }
}

std::vector<TaggedInstance> ShardedEngineRuntime::drain_locked() {
  const bool global = options_.ordering == OrderingTier::kGlobalTotalOrder;
  const std::size_t n = sources_.size();
  // The frontier F advances while every source has passed the pending
  // arrivals, against one watermark snapshot taken *before* the sweep.
  // A publisher pushes its block — every mark of the run or pass — before
  // its watermark store, under the same out_mutex, so every mark of a
  // stamp <= F is already in its outbox: the sweep below either takes it
  // or finds it still untaken, where it clamps the low watermark.
  std::array<std::uint64_t, 64> wm{};
  for (std::size_t s = 0; s < n; ++s) {
    wm[s] = sources_[s]->watermark.load(std::memory_order_acquire);
  }
  // Whether every source in `mask` — an arrival's recipient shards, or in
  // cascade mode the coordinator (source 0) — has passed `stamp`.
  const auto passed = [&](const std::uint64_t mask, const std::uint64_t stamp) {
    for (std::uint64_t m = options_.cascade ? 1 : mask; m != 0; m &= m - 1) {
      if (wm[static_cast<std::size_t>(std::countr_zero(m))] < stamp) return false;
    }
    return true;
  };
  while (!pending_.empty()) {
    const PendingBatch& b = pending_.front();
    // Whole batch when all its recipients passed its last stamp; otherwise
    // arrival by arrival, so a shard that received only the batch's early
    // arrivals (and is idle past them) never holds F back.
    if (!passed(b.mask, b.last())) {
      while (frontier_ < b.last() && passed(b.masks[frontier_ + 1 - b.first], frontier_ + 1)) {
        ++frontier_;
      }
      if (frontier_ < b.last()) break;
    }
    frontier_ = b.last();
    pending_.pop_front();
  }

  // Sweep each outbox once under its out_mutex, detaching the blocks that
  // hold marks up to the limit: F in the global tier (a stamp is complete
  // only once every recipient has passed it), unbounded in the relaxed
  // tiers. F may fall inside a block; the block is detached whole and its
  // marks above F are put back below. In the per-definition tier a
  // migration destination's blocks from its front hold's barrier on stay
  // fenced until F reaches barrier - 1. Every recipient of every
  // pre-barrier arrival, the source included, has then published its
  // marks (a run's block goes out before its watermark store), so this
  // same sweep takes the source's pre-barrier blocks and the merge below
  // releases them first. A hold never falls inside a block: a worker
  // publishes before every control item, so no block straddles a barrier.
  const std::uint64_t limit = global ? frontier_ : ~std::uint64_t{0};
  std::array<std::list<OutBlock>, 64> taken;  // per shard, ascending stamp
  std::size_t total = 0;                      // emissions up to the limit
  std::uint64_t clamp = ~std::uint64_t{0};
  for (std::size_t s = 0; s < n; ++s) {
    Outbox& source = *sources_[s];
    std::vector<std::uint64_t>& holds = shard_holds_[s];
    holds.erase(holds.begin(),
                std::find_if(holds.begin(), holds.end(),
                             [&](const std::uint64_t b) { return b - 1 > frontier_; }));
    const std::uint64_t fence = holds.empty() ? ~std::uint64_t{0} : holds.front();
    const std::lock_guard lk(source.out_mutex);
    auto cut = source.outbox.begin();
    for (; cut != source.outbox.end(); ++cut) {
      const std::uint64_t t = cut->front_stamp();
      if (t > limit || t >= fence) break;
      total += cut->marks[cut->end_through(limit) - 1].end - cut->begin_of(cut->next);
    }
    taken[s].splice(taken[s].end(), source.outbox, source.outbox.begin(), cut);
    if (!source.outbox.empty()) clamp = std::min(clamp, source.outbox.front().front_stamp() - 1);
  }
  // Every mark <= F was taken in the global tier, so there W = F.
  low_watermark_ = std::max(low_watermark_, std::min(frontier_, clamp));

  // K-way merge of the sources' detached blocks by stamp (each source's
  // marks ascend), up to the limit. Outside cascade mode (the coordinator
  // orders and renumbers closures itself) the global tier then restores
  // the sequential engine's within-arrival order — ascending global
  // definition index, stable so one definition's bindings keep their enumeration
  // order (a shard's block is in *local* registration order, which after a
  // migration is no longer a subsequence of global order) — and renumbers
  // each instance from a merge-side per-type counter. While the type's
  // definitions share a shard that is the identity; spread over shards, it
  // restores exactly the sequence a single engine would have assigned,
  // keeping the global tier byte-identical to the sequential reference.
  const bool renumber = global && !options_.cascade;
  std::vector<TaggedInstance> out;
  out.reserve(total);
  const auto by_def = [](const TaggedInstance& a, const TaggedInstance& b) {
    return a.def < b.def;
  };
  for (;;) {
    std::uint64_t stamp = ~std::uint64_t{0};
    for (std::size_t s = 0; s < n; ++s) {
      if (!taken[s].empty()) stamp = std::min(stamp, taken[s].front().front_stamp());
    }
    // Every list is spent, or (global tier) only marks above F are left.
    if (stamp == ~std::uint64_t{0} || stamp > limit) break;
    const std::size_t first = out.size();
    for (std::size_t s = 0; s < n; ++s) {
      std::list<OutBlock>& blocks = taken[s];
      while (!blocks.empty() && blocks.front().front_stamp() == stamp) {
        OutBlock& block = blocks.front();
        const OutBlock::Mark& mark = block.marks[block.next];
        for (std::uint32_t k = block.begin_of(block.next); k < mark.end; ++k) {
          core::Emission& em = block.emissions[k];
          out.push_back(TaggedInstance{mark.stamp, em.def, std::move(em.instance)});
        }
        if (++block.next == block.marks.size()) blocks.pop_front();
      }
    }
    if (!renumber) continue;
    const auto begin = out.begin() + static_cast<std::ptrdiff_t>(first);
    if (!std::is_sorted(begin, out.end(), by_def)) std::stable_sort(begin, out.end(), by_def);
    for (auto it = begin; it != out.end(); ++it) {
      const std::uint32_t t = def_type_[it->def];
      if (t >= type_seq_.size()) type_seq_.resize(t + 1, 0);
      it->instance.key.seq = type_seq_[t]++;
    }
  }
  // What is left (global tier only) is at most one block per source whose
  // marks above F stay for a later poll: back to the outbox front, cursor
  // kept.
  for (std::size_t s = 0; s < n; ++s) {
    if (taken[s].empty()) continue;
    const std::lock_guard lk(sources_[s]->out_mutex);
    sources_[s]->outbox.splice(sources_[s]->outbox.begin(), taken[s]);
  }
  instances_ += out.size();
  return out;
}

std::vector<core::EventInstance> ShardedEngineRuntime::poll() {
  return untagged(poll_tagged());
}

std::vector<TaggedInstance> ShardedEngineRuntime::poll_tagged() {
  const std::lock_guard lk(merge_mutex_);
  return drain_locked();
}

std::vector<core::EventInstance> ShardedEngineRuntime::flush() {
  return untagged(flush_tagged());
}

std::vector<TaggedInstance> ShardedEngineRuntime::flush_tagged() {
  // Each source's target: the last stamp routed to the shard, or the last
  // stamp assigned, which the coordinator closes last.
  std::vector<std::uint64_t> targets(sources_.size(), 0);
  {
    const std::lock_guard lk(ingest_mutex_);
    for (std::size_t s = 0; s < sources_.size(); ++s) {
      targets[s] = options_.cascade ? next_stamp_ - 1 : shards_[s]->last_routed;
    }
  }
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    Outbox& source = *sources_[s];
    std::unique_lock lk(source.out_mutex);
    // Stop-aware: a shut-down runtime abandons unfinished work, so a
    // watermark may never reach its target.
    source.done_cv.wait(lk, [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             source.watermark.load(std::memory_order_acquire) >= targets[s];
    });
  }
  return poll_tagged();
}

std::uint64_t ShardedEngineRuntime::low_watermark() const {
  const std::lock_guard lk(merge_mutex_);
  return low_watermark_;
}

RuntimeStats ShardedEngineRuntime::stats() const {
  RuntimeStats s;
  for (const auto& shard : shards_) {
    const std::lock_guard lk(shard->out_mutex);
    s.engine += shard->published_stats;
  }
  for (const auto& shard : shards_) {
    const std::uint64_t mq = shard->max_queued.load(std::memory_order_relaxed);
    if (mq > s.max_inbox) s.max_inbox = mq;
  }
  {
    const std::lock_guard lk(ingest_mutex_);
    s.migrations = migrations_;
    s.rebalance_passes = rebalance_passes_;
    s.splits = splits_;
    s.spillover_skipped_indivisible = spillover_skipped_;
  }
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.crashes = crashes_.load(std::memory_order_relaxed);
  s.recoveries = recoveries_.load(std::memory_order_relaxed);
  s.replayed = replayed_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const std::lock_guard lk(shard->log_mutex);
    s.replay_log_bytes += shard->replay_log.bytes();
    s.replay_log_arrivals += shard->replay_log.arrivals();
  }
  s.closures_in_flight_max = closures_in_flight_max_.load(std::memory_order_relaxed);
  s.cascade_feedback_batches = cascade_feedback_batches_.load(std::memory_order_relaxed);
  s.cascade_reingested = cascade_reingested_.load(std::memory_order_relaxed);
  s.cascade_truncated = cascade_truncated_.load(std::memory_order_relaxed);
  const std::lock_guard lk(merge_mutex_);
  s.arrivals = arrivals_;
  s.deliveries = deliveries_;
  s.replicated = deliveries_ - arrivals_;
  s.dropped = dropped_;
  s.instances = instances_;
  return s;
}

std::vector<std::uint64_t> ShardedEngineRuntime::shard_arrival_loads() const {
  const std::lock_guard lk(ingest_mutex_);
  return shard_routed_;
}

std::size_t ShardedEngineRuntime::shard_of(std::size_t def_index) const {
  const std::lock_guard lk(ingest_mutex_);
  return placement_->shard.at(def_index);
}

}  // namespace stem::runtime
