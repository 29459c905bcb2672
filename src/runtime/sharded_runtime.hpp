#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/engine.hpp"
#include "core/event_type_table.hpp"
#include "core/fifo.hpp"
#include "core/routing.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/inbox_queue.hpp"
#include "runtime/rebalance.hpp"

namespace stem::runtime {

/// Ordering contract of the merged output stream (RuntimeOptions::ordering).
/// Every tier delivers the same emission *multiset* — exactly once, nothing
/// lost — they differ only in how much cross-shard serialization the merge
/// pays to order it.
enum class OrderingTier {
  /// Byte-exact sequential order (the default): emissions are released in
  /// (arrival stamp, definition index) order once *every* recipient shard
  /// has passed the stamp — the merged stream is byte-identical to a
  /// single sequential DetectionEngine fed the same arrivals, instance
  /// sequence numbers included (the merge renumbers per event type at
  /// release, which also keeps a type whose definitions sit on several
  /// shards stream-exact).
  kGlobalTotalOrder,
  /// Each definition's emissions arrive in stamp order; interleaving
  /// *across* definitions is unspecified. A poll releases whatever the
  /// shards have published, stamp-merged, instead of waiting on the
  /// globally slowest shard (one definition's emissions all flow through
  /// its host shard, in stamp order); a migration destination's
  /// post-barrier output is held until the frontier has passed every
  /// pre-barrier arrival, so a moved definition's stream stays in stamp
  /// order across the barrier.
  kPerDefinitionOrder,
  /// Emissions flow as published (stamp-merged within one poll, without
  /// waiting on the slowest shard), tagged with a monotone low watermark:
  /// low_watermark() = W guarantees every emission with stamp <= W has
  /// already been released, so consumers can window/reorder externally.
  kUnorderedWatermarked,
};

/// Sharded-runtime tuning knobs.
struct RuntimeOptions {
  /// Worker shard count; clamped to [1, 64] (recipient sets are bitmasks).
  std::size_t shards = 4;
  /// Per-shard admission bound in queued arrivals. Ingestion blocks
  /// (backpressure) while admitting a batch would take a recipient shard
  /// past it, so an overwhelmed consumer throttles producers instead of
  /// growing queues without bound; a batch larger than the bound is
  /// admitted into an empty inbox. It allocates nothing: inbox memory
  /// follows what is actually queued, whatever the bound.
  std::size_t queue_capacity = 4096;
  /// Enables deterministic hierarchical cascading: derived instances are
  /// routed back to the shards hosting their consumers as *feedback*
  /// items, each shard processes work in sub-stamp order behind the
  /// cascade closure frontier, and the merged stream is exactly what a
  /// sequential DetectionEngine::observe_cascading() fed the same
  /// arrivals would emit (depth cap: engine.max_cascade_depth). Off by
  /// default — the non-cascading pipeline is byte-identical to plain
  /// observe() and pays none of the closure coordination.
  bool cascade = false;
  /// Cascade mode: maximum number of stamps' closures the coordinator
  /// drives concurrently (clamped to >= 1). At the default 1 exactly one
  /// closure is in flight at a time. Higher depths overlap independent
  /// stamps: a shard may observe arrival s as soon as every closure below
  /// s has finished *dispatching* feedback and this shard has consumed
  /// the sub-stamps that targeted it — it no longer waits for other
  /// shards to finish processing or for the closure to merge. Every
  /// depth preserves the tier contract (the global tier stays
  /// byte-identical to the sequential cascade at any setting); deeper
  /// pipelines buffer proportionally more in-flight closure state.
  std::uint32_t cascade_pipeline = 1;
  /// Test-only fault-injection hook: when set, every shard worker invokes
  /// it (with its shard index) before processing each work item — the
  /// stress suite uses it to stall a consumer shard at random so inbox
  /// segment growth, backpressure, and shutdown paths are exercised under
  /// contention. Must
  /// be thread-safe; never called after the runtime's destructor returns.
  std::function<void(std::size_t)> stall_hook;
  /// Arrivals between epoch-barrier checkpoints of every shard's engine
  /// state; 0 disables checkpointing. Each boundary pushes a checkpoint
  /// control item through every shard's stamp-ordered inbox: the worker
  /// serializes its definitions' dynamic state (runtime/checkpoint.hpp)
  /// and truncates its replay log, so a crashed shard can be rebuilt from
  /// the last checkpoint plus the bounded post-checkpoint log. Not
  /// supported together with cascade (the constructor throws).
  std::size_t checkpoint_epoch = 0;
  /// Test-only crash-injection hook: polled by every shard worker (with
  /// its shard index) at work-item boundaries; returning true makes the
  /// worker die in place, abandoning the item it holds and any
  /// unpublished run — exactly the state an OS-level crash would lose. A
  /// supervisor thread reaps the dead worker and reincarnates the shard
  /// from its last checkpoint plus the replay log; the merged stream
  /// stays byte-identical to the sequential reference. Requires
  /// checkpoint_epoch != 0 (the constructor throws otherwise). Must be
  /// thread-safe, and must stop firing eventually — a hook that always
  /// returns true crash-loops the shard.
  std::function<bool(std::size_t)> crash_hook;
  /// Options forwarded to every shard's DetectionEngine.
  core::EngineOptions engine;
  /// Ordering contract of the merged stream (see OrderingTier); selects
  /// how the drain releases output. In cascade mode its one source, the
  /// coordinator, publishes whole closures in stamp order, so every tier
  /// releases the sequential cascade's stream (byte-identical to
  /// DetectionEngine::observe_cascading), which satisfies each contract.
  OrderingTier ordering = OrderingTier::kGlobalTotalOrder;
};

/// Aggregate runtime counters. Engine counters are owned per shard (each
/// shard engine is single-threaded) and summed on read from per-shard
/// snapshots — they are never written concurrently, and reading while
/// ingestion is in flight is safe but trails the unprocessed work. Totals
/// are exact after flush().
struct RuntimeStats {
  core::EngineStats engine;       ///< summed over shard engines
  std::uint64_t arrivals = 0;     ///< entities accepted for processing
  std::uint64_t deliveries = 0;   ///< shard deliveries (>= arrivals)
  /// Deliveries beyond the first per arrival: deliveries - arrivals, since
  /// every routed arrival is delivered at least once.
  std::uint64_t replicated = 0;
  std::uint64_t dropped = 0;      ///< arrivals no shard was interested in
  std::uint64_t instances = 0;    ///< instances released by poll/flush so far
  std::uint64_t migrations = 0;   ///< definition moves issued (one control pair each)
  std::uint64_t rebalance_passes = 0;  ///< rebalance passes run
  std::uint64_t max_inbox = 0;    ///< high-water inbox depth (arrivals), any shard
  /// Cascade mode: derived instances re-ingested as feedback (counted
  /// once per instance, not per recipient shard) — comparable to
  /// EngineStats::cascade_reingested on the sequential reference.
  std::uint64_t cascade_reingested = 0;
  /// Cascade mode: re-ingestions suppressed by the depth cap (the cycle
  /// guard) — comparable to EngineStats::cascade_truncated.
  std::uint64_t cascade_truncated = 0;
  /// Cascade mode: high-water count of closures the coordinator drove
  /// concurrently (bounded by RuntimeOptions::cascade_pipeline; 1 means
  /// the pipeline never overlapped two stamps).
  std::uint64_t closures_in_flight_max = 0;
  /// Cascade mode: feedback batches dispatched — one per (shard, level)
  /// that received any feedback, i.e. one queue push + one wake each,
  /// however many instances the batch carried.
  std::uint64_t cascade_feedback_batches = 0;
  std::uint64_t checkpoints = 0;  ///< shard checkpoints taken
  std::uint64_t crashes = 0;      ///< injected worker deaths reaped
  std::uint64_t recoveries = 0;   ///< shards rebuilt from checkpoint + log
  std::uint64_t replayed = 0;     ///< log arrivals re-fed during recoveries
  /// Replay-log gauges, summed over shards, of what each shard logged
  /// since its last checkpoint: the bytes its log holds — packed records
  /// and the container around them (allocated chunks, the last one's free
  /// tail included, and the control-item list) — and the arrivals it
  /// holds. Running counters: reading them walks no record.
  std::uint64_t replay_log_bytes = 0;
  std::uint64_t replay_log_arrivals = 0;
  /// Moves after which an event type's definitions span more than one
  /// shard (0 while every type stays whole, e.g. one definition per type).
  std::uint64_t splits = 0;
  /// Hot shards the rebalancer had to leave alone because no
  /// single-definition move strictly improved the balance. Persistently
  /// nonzero under skew means one definition carries most of a shard's
  /// load, which no placement can divide.
  std::uint64_t spillover_skipped_indivisible = 0;
};

/// One merged emission with its provenance tags: the arrival stamp it was
/// derived from and the *global* registration index of the definition that
/// produced it. The relaxed ordering tiers' consumer-facing unit —
/// per-definition subsequences and watermark windows are reconstructed
/// from these tags (poll_tagged/flush_tagged).
struct TaggedInstance {
  std::uint64_t stamp = 0;
  std::uint32_t def = 0;
  core::EventInstance instance;
};

/// Multi-core detection runtime: partitions registered definitions across
/// N worker shards, each running its own single-threaded DetectionEngine,
/// and merges per-shard emissions back into one deterministic stream.
///
/// **Placement** (add_definition): the definition is the unit of
/// placement, load and migration. A definition whose event type is
/// already registered starts on the shard of that type's first
/// definition (same-type definitions share an engine sequence counter, so
/// keeping them together keeps the relaxed tiers' numbering sequential);
/// everything else goes to the least-loaded shard, preferring — among
/// equally loaded shards — one that already hosts the definition's
/// routing key (sensor / event-type bucket), which caps arrival fan-out
/// without unbalancing the shards. Later moves may place a type's
/// definitions on several shards; the global tier's merge and the
/// cascade coordinator renumber sequences per type, so their streams stay
/// exact.
///
/// **Routing** (ingest): routing and placement are kept apart. One
/// core::RoutingIndex (the structure the engine uses for candidate
/// selection), holding every slot of every definition once under the
/// definition's global index, maps an arrival to the (definition, slot)
/// pairs whose filters can match it; the placement snapshot's flat
/// def->shard map turns those into the set of recipient shards. The
/// arrival is replicated to every such shard — in particular, a shard
/// hosting a wildcard definition receives the full stream. Each recipient
/// worker collects the arrival's candidates from the same index, keeps the
/// routes to definitions it hosts (its flat global->local map) and feeds
/// them to its engine's routed observe, so shard engines hold no index of
/// their own. Each definition lives on exactly one shard, so every
/// instance is produced exactly once. A migration only replaces the
/// placement snapshot and rewrites the two workers' local maps; the index
/// is frozen when ingest starts and never changes afterwards.
///
/// **Ingest path** (hot): each shard's inbox is a segmented FIFO
/// (runtime/inbox_queue.hpp) whose memory follows its occupancy. Producers
/// already hold the ingest lock, so a push is a plain cell write plus a
/// release store; the worker peeks and claims the head item without a
/// lock, parking on an eventcount when nothing is admissible.
/// queue_capacity is enforced in *arrivals* by an atomic counter +
/// eventcount (blocking backpressure, oversized batches admitted into an
/// empty inbox); control items are capacity-exempt and never park. There
/// is one worker body for every mode: it claims runs of admissible work
/// and publishes outbox/watermark/stats once per run (capped at
/// kPublishBatch arrivals), so the out_mutex handshake is amortized
/// instead of per-item. Without cascade feedback no admission
/// gate binds and every claim takes a whole inbox item.
///
/// **Rebalancing** (move_definitions / rebalance_now): initial placement
/// is load-blind, so a skewed stream can pin one shard. The runtime keeps
/// per-definition load counters (published by the shard engines), and
/// each caller-paced rebalance_now() attributes the cost since the last
/// pass to definitions and moves the ones plan_spillover picks between
/// shards *live*: a new placement snapshot with the moved definitions on
/// the destination replaces the old one under the ingest lock (an epoch
/// barrier in the arrival stamp order), a pair of control items flows
/// through the two shards' stamp-ordered inboxes, the
/// source worker extracts their engine state after processing every
/// pre-barrier arrival (core::DetectionEngine::extract_definition_state),
/// and the destination worker implants it before processing any
/// post-barrier arrival — so no instance is dropped, duplicated, or
/// reordered (tests/runtime_migration_test.cpp proves stream equality
/// under forced migrations differentially).
///
/// **Ordering** (poll/flush): arrivals are stamped on ingest. Every mode
/// releases through one drain over fixed *sources* (Outbox): the shards,
/// or in cascade mode the coordinator alone. Ingest keeps one pending
/// record per batch (its stamp range and per-arrival recipient masks). A
/// poll advances the frontier F — the highest stamp every source has
/// passed, exact per arrival — through those records, popping each batch
/// once F passes its last stamp, sweeps each outbox once, and k-way
/// merges the taken marks by arrival stamp. The
/// global tier takes the marks up to F — F may fall inside a block — and,
/// outside cascade mode, orders each stamp by definition registration
/// index, renumbering sequences: exactly the order a single sequential
/// DetectionEngine fed the same stream would emit
/// (tests/runtime_shard_test.cpp proves equality differentially). The
/// relaxed tiers take whatever is published; in the per-definition tier a
/// migration destination's blocks from the barrier on wait until F
/// reaches barrier - 1. The low watermark is F, clamped below any mark
/// still untaken.
///
/// **Hierarchical cascade** (RuntimeOptions::cascade): instances detected
/// at one layer become entities evaluated at the next (paper Fig. 2). A
/// dedicated coordinator thread drives each arrival's *cascade closure*:
/// once every recipient shard has processed the arrival, its merged
/// emissions (level 1) are routed through the same frozen routing index as
/// ingest, mapped to shards by the placement snapshot the arrival was
/// stamped under (its batch record carries it), and re-ingested as
/// *feedback items* carrying the hierarchical sub-stamp
/// `(arrival stamp, depth, emit index)`, batched per (shard, level); the
/// recipients' level-2 emissions are gathered, merged and re-ingested in
/// turn, until a level is empty or the depth cap is reached. Workers
/// process work in sub-stamp order: each consumes the smaller of its
/// inbox head and feedback head, and an arrival is gated on the
/// *admission frontier* — the highest stamp below which every closure
/// has finished dispatching feedback. Up to
/// RuntimeOptions::cascade_pipeline closures are in flight concurrently;
/// because dispatch completion is serialized in stamp order, each
/// shard's feedback queue stays sub-stamp-ordered and buffer mutations
/// interleave exactly as in a sequential cascading engine at any
/// pipeline depth. The coordinator renumbers each closure level's
/// instance sequence numbers from per-type counters in closure order
/// (the identity while a type's definitions share a shard; with the type
/// spread over several shards it restores the sequential assignment, so
/// any move is legal in cascade mode). The coordinator publishes finished
/// closures, a mark each, in stamp order into its outbox, so every tier
/// releases whole closures in stamp order — byte-identical to the
/// sequential cascade (see RuntimeOptions::ordering). Migrations stay exact:
/// control items gate on the admission frontier of their barrier stamp,
/// and every closure routes and gates through its own batch's snapshot,
/// so feedback for pre-barrier stamps still reaches the definitions' old
/// shard, and each snapshot's reach is exact for the placement it holds
/// (tests/runtime_cascade_test.cpp proves stream equality against
/// DetectionEngine::observe_cascading differentially, migrations
/// included, at several pipeline depths).
class ShardedEngineRuntime {
 public:
  ShardedEngineRuntime(core::ObserverId id, core::Layer layer, geom::Point location,
                       RuntimeOptions options = {});
  ~ShardedEngineRuntime();
  ShardedEngineRuntime(const ShardedEngineRuntime&) = delete;
  ShardedEngineRuntime& operator=(const ShardedEngineRuntime&) = delete;

  /// Registers a definition on its shard (see placement rules above).
  /// Registration is only allowed before the first ingest — later
  /// placement changes go through migration; throws std::logic_error
  /// afterwards. Filter/condition validation errors propagate from
  /// DetectionEngine::add_definition.
  void add_definition(core::EventDefinition def);

  /// Ingests one arrival: stamps it, replicates it to every interested
  /// shard's inbox, and returns. Detection runs on the shard workers;
  /// collect results with poll() or flush(). Blocks while a recipient
  /// inbox is full (backpressure). Thread-safe.
  void ingest(const core::Entity& entity, time_model::TimePoint now);
  /// Batched ingest: one routing pass and at most one inbox operation per
  /// shard for the whole batch, and the batch storage is shared between
  /// recipient shards — workers buffer arrivals by aliasing it, so no
  /// per-arrival entity copy is made at all. Memory tradeoff: one
  /// buffered entity keeps its whole ingest batch alive until evicted,
  /// so long-window definitions fed huge batches retain
  /// O(buffered slots x batch size) entities; prefer moderate batch
  /// sizes (hundreds) when windows are long.
  /// Equivalent to ingest(batch[i], nows[i]) for i in order.
  void ingest_batch(std::span<const core::Entity> batch,
                    std::span<const time_model::TimePoint> nows);
  /// Batched ingest where every arrival shares one observation time.
  void ingest_batch(std::span<const core::Entity> batch, time_model::TimePoint now);

  /// Returns the merged instances the ordering tier lets out so far, each
  /// tagged with its (stamp, definition) provenance. Non-blocking; call
  /// periodically between ingests to keep per-shard output buffers short.
  [[nodiscard]] std::vector<TaggedInstance> poll_tagged();
  /// Waits until every ingested arrival has been processed, then returns
  /// the remainder of the merged stream.
  [[nodiscard]] std::vector<TaggedInstance> flush_tagged();
  /// poll_tagged()/flush_tagged() with the tags dropped.
  [[nodiscard]] std::vector<core::EventInstance> poll();
  [[nodiscard]] std::vector<core::EventInstance> flush();
  /// Monotone low watermark of the released stream: every emission whose
  /// arrival stamp is <= the returned value has already been handed out by
  /// a previous poll/flush, and no later release will carry a stamp at or
  /// below it. Stamps are assigned densely from 1 in arrival order, so
  /// after flush() the watermark equals the number of routed arrivals.
  [[nodiscard]] std::uint64_t low_watermark() const;

  /// Moves the given registered definitions (global indices) to
  /// `to_shard`, live, at one epoch barrier in the arrival stream (see
  /// class comment): one extract/implant control pair per source shard.
  /// Definitions already on `to_shard` stay put; returns false when all
  /// of them are. Blocks until every earlier move of these definitions has
  /// been implanted, then issues this one asynchronously (the workers
  /// complete it in stream order). Moving only some of a type's
  /// definitions partitions the type's engine sequence counter: the
  /// global tier's merge and the cascade coordinator renumber it back to
  /// the sequential values, the relaxed tiers surface the partitioned
  /// counters (each definition's sequence stays strictly increasing).
  /// Thread-safe; callable while ingestion is running. Throws
  /// std::out_of_range on bad indices.
  bool move_definitions(std::span<const std::size_t> defs, std::size_t to_shard);

  /// Moves the `def_index`-th registered definition to `to_shard`
  /// together with the definitions of the same event type on its shard
  /// (move_definitions). Returns false when it already lives there.
  /// Thread-safe; throws std::out_of_range on bad indices.
  bool migrate_definition(std::size_t def_index, std::size_t to_shard);

  /// Runs one rebalance pass over the load observed since the last pass
  /// and returns the number of migrations issued: the moves plan_spillover
  /// orders (the highest-cost movable definition off any shard above 1.5x
  /// the mean load, when that strictly improves the balance). The caller
  /// paces the passes; the workers publish per-definition loads only once
  /// the first pass has run, so that pass may see none. Thread-safe.
  std::size_t rebalance_now();

  /// Stops the runtime: wakes every producer parked in ingest backpressure
  /// (their ingest calls return without enqueuing more work), closes the
  /// shard inboxes, lets workers drain — in-flight migration handshakes
  /// still complete in decision order — and joins every thread. The inbox
  /// close is serialized with ingestion and migration issuance (both hold
  /// the ingest lock), so a migration's control-item pair is never split
  /// across the close: either both sides are admitted and the workers
  /// finish the handshake, or neither is and its ticket is completed
  /// unblocked. Idempotent;
  /// the destructor calls it. Afterwards ingest is a no-op, poll() returns
  /// whatever was merged, and flush() returns immediately instead of
  /// waiting for work that was abandoned mid-shutdown. Safe to call from
  /// one thread while others are blocked in ingest (they are released
  /// before shutdown returns); do not destroy the runtime until those
  /// ingest calls have returned.
  void shutdown() noexcept;

  /// Summed counters; exact only at quiescence (see RuntimeStats).
  [[nodiscard]] RuntimeStats stats() const;

  /// Cumulative arrivals delivered to each shard's inbox — the load-
  /// spread view (max/mean over this is the skew a rebalancer narrows).
  [[nodiscard]] std::vector<std::uint64_t> shard_arrival_loads() const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t definition_count() const { return def_specs_.size(); }
  /// Shard currently hosting the `def_index`-th registered definition
  /// (placement introspection for tests and load inspection).
  [[nodiscard]] std::size_t shard_of(std::size_t def_index) const;

 private:
  /// Rendezvous for one move: the source worker fills `states` and flips
  /// `ready`; the destination worker waits for it, implants, and flips
  /// `done` (a later move of the same definitions waits on `done` before
  /// issuing). Owned by the pair of control items (and their replay-log
  /// copies); the moved definitions' def_ticket_ entries only observe it.
  struct MigrationTicket {
    std::mutex m;
    std::condition_variable cv;
    bool ready = false;  // guarded by m
    bool done = false;   // guarded by m
    std::vector<std::uint32_t> globals;  ///< moved defs, ascending global index
    std::vector<core::DefinitionState> states;  ///< parallel to globals
  };

  /// What a control item carries. Either a migration side — `send`
  /// extracts the ticket's definitions and publishes them, `!send` waits
  /// for the states and implants them — or (ticket null) a checkpoint
  /// barrier.
  struct Control {
    std::shared_ptr<MigrationTicket> ticket;
    bool send = false;
    /// The migration's barrier stamp. In cascade mode the control acts at
    /// sub-stamp (barrier-1, +inf) — after every pre-barrier stamp's
    /// closure, before any post-barrier arrival.
    std::uint64_t barrier = 0;
    /// Checkpoint item: nonzero checkpoint id. The worker snapshots its
    /// engine state and truncates its replay log through this item.
    std::uint64_t ckpt = 0;
  };

  /// The refcounted block an inbox item points to. An arrival block holds
  /// the stamped arrivals of one ingest_batch call (entities copied in
  /// once) and is shared by all recipient shards; a control block holds
  /// no arrivals, only `ctl` (shared by a checkpoint's per-shard items).
  struct Batch {
    std::vector<core::Entity> entities;
    std::vector<time_model::TimePoint> nows;
    std::vector<std::uint64_t> stamps;  ///< 0 = dropped (routed nowhere)
    /// Every recipient shard's arrival indices, concatenated in shard
    /// order; each shard's WorkItem covers its [begin, end) slice, which
    /// is ascending (stamp order).
    std::vector<std::uint32_t> routed;
    Control ctl;  ///< control blocks only
  };

  /// One inbox entry: this shard's [begin, end) slice of `batch->routed`,
  /// or (begin == end: arrival items are never empty) a control item.
  /// Control items ride the stamp-ordered inbox so they execute exactly at
  /// their epoch barrier. One owning pointer and a slice, 24 bytes: every
  /// inbox cell holds one. The item's push sequence (checkpointing) is not
  /// stored — the inbox is FIFO and the sequence dense, so the worker
  /// counts pops instead (popped_seq).
  struct WorkItem {
    std::shared_ptr<const Batch> batch;
    /// Next unprocessed position: a worker whose admission gate stops a
    /// claim inside the item advances the head item's `begin` in place
    /// through the inbox's consumer peek (worker-owned, like the rest of
    /// the head cell).
    std::uint32_t begin = 0;
    std::uint32_t end = 0;

    /// A control item: the empty slice of a block carrying only `ctl`.
    [[nodiscard]] static WorkItem of_control(Control ctl) {
      auto block = std::make_shared<Batch>();
      block->ctl = std::move(ctl);
      return WorkItem{std::move(block)};
    }
    [[nodiscard]] bool is_control() const { return begin == end; }
    [[nodiscard]] const Control& control() const { return batch->ctl; }
    /// An arrival item's indices into `batch`, ascending (stamp order).
    [[nodiscard]] std::span<const std::uint32_t> indices() const {
      return std::span(batch->routed).subspan(begin, end - begin);
    }
  };

  /// The control of a replay-log control block (the log holds a control
  /// item's Batch block without its type).
  [[nodiscard]] static const Control& control_of(const ReplayLog::ControlBlock& block) {
    return static_cast<const Batch*>(block.get())->ctl;
  }

  /// Cascade mode: one derived instance re-ingested into a shard, keyed
  /// by its hierarchical sub-stamp. `entity` is shared across recipient
  /// shards (and aliased by any slot that buffers it); `now` is the
  /// originating arrival's observation time, exactly what the sequential
  /// cascading loop re-feeds with. The coordinator appends feedback in
  /// one batch per (shard, level) — a single queue splice and wake
  /// however many instances the level routed here. Feedback carries no
  /// inbox-capacity cost: at most cascade_pipeline closures are in
  /// flight, so the outstanding feedback is bounded by that many
  /// cascades' width.
  struct FeedbackItem {
    std::uint64_t stamp = 0;
    std::uint32_t depth = 0;  ///< depth of the instance being re-fed
    std::uint32_t sub = 0;    ///< its emit_index within (stamp, depth)
    std::shared_ptr<const core::Entity> entity;
    time_model::TimePoint now;
  };

  /// Where every definition lives, as one snapshot: ingest routes a batch
  /// through the current one and its batch record keeps it, so the cascade
  /// coordinator routes and gates each closure through the placement its
  /// arrival was stamped under. Published by start_locked and replaced,
  /// never changed, by each move (move_locked copies it).
  struct Placement {
    std::vector<std::uint32_t> shard;  ///< global def index -> hosting shard
    /// Cascade mode (empty otherwise): global def index -> bitmask of the
    /// shards that host, under `shard`, a definition reachable from its
    /// output type in one or more cascade steps (build_cascade_graph).
    std::vector<std::uint64_t> reach;
  };

  /// One published batch of output, an outbox entry: a worker run's
  /// emissions, or a coordinator pass's finished closures (tagged with
  /// *global* definition indices), in processing order, and one mark per
  /// emitting item or closure saying where its emissions end. Silent items
  /// get no mark; their completion is conveyed by the watermark. Marks
  /// ascend by (stamp, sub). A consumer — the drain, or in cascade mode the
  /// coordinator for a shard's blocks — may take a prefix of the marks and
  /// leave the rest for a later pass: `next` is that cursor. Once
  /// published, only a consumer touches the block — moving the taken
  /// marks' emissions out and advancing `next` — under out_mutex or, for
  /// a block the drain has detached from its outbox, under merge_mutex_.
  struct OutBlock {
    /// Cascade mode, a shard's marks: `sub` identifies the source item
    /// within its stamp — 0 for the arrival itself, the feedback item's
    /// emit index otherwise — and `now` carries the observation time
    /// forward for the next level's re-feeds.
    struct Mark {
      std::uint64_t stamp = 0;
      std::uint32_t sub = 0;
      std::uint32_t end = 0;  ///< one past the item's last emission
      time_model::TimePoint now;
    };
    std::vector<core::Emission> emissions;
    std::vector<Mark> marks;
    std::uint32_t next = 0;  ///< first mark not yet taken

    /// First emission of mark `i`.
    [[nodiscard]] std::uint32_t begin_of(std::uint32_t i) const {
      return i == 0 ? 0 : marks[i - 1].end;
    }
    /// Stamp of the first mark not yet taken.
    [[nodiscard]] std::uint64_t front_stamp() const { return marks[next].stamp; }
    /// One past the last mark with stamp <= `limit` (marks ascend).
    [[nodiscard]] std::uint32_t end_through(std::uint64_t limit) const {
      if (marks.back().stamp <= limit) return static_cast<std::uint32_t>(marks.size());
      return static_cast<std::uint32_t>(
          std::upper_bound(marks.begin() + next, marks.end(), limit,
                           [](std::uint64_t v, const Mark& m) { return v < m.stamp; }) -
          marks.begin());
    }
  };

  /// A shard's serialized engine state at a checkpoint barrier: one frame
  /// per hosted definition (runtime/checkpoint.hpp, ascending local
  /// index), the cumulative stats to date, and the barrier's push
  /// sequence — log entries at or before it are covered by the frames.
  struct ShardCheckpoint {
    std::uint64_t push_seq = 0;
    core::EngineStats stats;
    std::vector<std::pair<std::uint32_t, std::string>> frames;  ///< (global, frame)
  };

  /// A source of the drain. A publisher pushes its block, then stores its
  /// watermark, under one out_mutex hold.
  struct Outbox {
    std::mutex out_mutex;
    std::condition_variable done_cv;  ///< flush waits for the watermark
    /// Published blocks, ascending stamp; a block leaves once every mark is
    /// taken. A list so the drain can detach a prefix under the lock and
    /// merge it outside, and so an empty outbox holds no memory.
    std::list<OutBlock> outbox;
    /// Highest stamp whose output is all published: a shard's newest
    /// processed arrival (its arrivals are stamp-ordered), or the
    /// coordinator's newest closed stamp. Read lock-free (acquire).
    std::atomic<std::uint64_t> watermark{0};
  };

  struct Shard : Outbox {
    Shard(const core::ObserverId& id, core::Layer layer, geom::Point location,
          const core::EngineOptions& options)
        : engine(std::make_unique<core::DetectionEngine>(id, layer, location, options)) {}

    /// Touched only by the worker; a pointer so crash recovery can swap
    /// in a fresh engine rebuilt from checkpoint + replay (the join of
    /// the dead worker orders the hand-off).
    std::unique_ptr<core::DetectionEngine> engine;
    /// local def index -> global (a tombstoned local keeps its last
    /// global). Written pre-start by add_definition and by the worker at
    /// implant time; the inbox's release/acquire tail hand-off orders the
    /// pre-start writes before any worker read.
    std::vector<std::uint32_t> global_def;
    /// Flat inverse map, one entry per registered definition: global ->
    /// local index on this shard's engine, kNoLocal when hosted elsewhere.
    /// The worker keeps exactly the collected routes whose definition maps
    /// here; extraction, implant and recovery rewrite it. Worker-owned for
    /// the same reason as global_def.
    std::vector<std::uint32_t> local_def;
    static constexpr std::uint32_t kNoLocal = ~std::uint32_t{0};

    std::size_t index = 0;  ///< position in shards_ (crash/stall hooks)

    /// Stamp-ordered inbox. Producers (ingest + migration and checkpoint
    /// control) push under ingest_mutex_, which is the queue's
    /// serialized-producer precondition; the worker is the only consumer.
    /// The queue is unbounded: the *arrival*-denominated queue_capacity
    /// contract is enforced by queued_arrivals below, and control items
    /// push without waiting.
    InboxQueue<WorkItem> inbox;
    /// Arrivals admitted but not yet fully processed (inbox + in flight).
    /// Producers block (space_ec) while an admission would overflow
    /// queue_capacity — unless the inbox is empty, so oversized batches
    /// cannot block forever. The worker decrements as it finishes items.
    std::atomic<std::uint64_t> queued_arrivals{0};
    std::atomic<std::uint64_t> max_queued{0};  ///< high-water queued_arrivals
    std::atomic<bool> stop{false};
    EventCount space_ec;  ///< producers park for arrival-capacity space
    /// The worker parks here when it has no admissible work. Its wake
    /// sources are inbox push (arrival or control), feedback push,
    /// admission-frontier advance and stop.
    EventCount work_ec;

    /// Cascade mode: feedback items dispatched by the coordinator, in
    /// sub-stamp order, guarded by fb_mutex. Drained interleaved with the
    /// inbox by sub-stamp (the worker picks whichever head item has the
    /// smaller key). Not capacity-accounted (bounded by cascade_pipeline
    /// closures).
    std::mutex fb_mutex;
    core::Fifo<FeedbackItem> feedback;

    /// Set (under out_mutex) whenever a publish touches the outbox or the
    /// completion key; cleared by the coordinator's sweep. The coordinator
    /// polls it relaxed to skip out_mutex for shards with nothing new — the
    /// publisher's signal bump (a release the coordinator's snapshot
    /// acquires) orders the store, so a skipped shard is re-polled on the
    /// next pass.
    std::atomic<bool> out_dirty{false};
    /// Snapshot of engine.stats() published by the worker after each work
    /// item. stats() reads this (not the live engine counters, which only
    /// the worker may touch), so concurrent stats() is race-free — merely
    /// trailing the in-flight work until flush().
    core::EngineStats published_stats;        ///< guarded by out_mutex
    /// Per-definition cumulative loads, keyed by *global* index, published
    /// alongside published_stats; the rebalancer's cost attribution.
    std::vector<std::pair<std::uint32_t, core::DefinitionLoad>> published_def_loads;
    /// Sub-stamp of the last fully processed work item (arrival or
    /// feedback), published under out_mutex after the matching outbox
    /// push. The cascade coordinator reads it to know a level has drained
    /// on this shard. Monotone: workers consume in sub-stamp order.
    std::uint64_t ck_stamp = 0;               ///< guarded by out_mutex
    std::uint32_t ck_depth = 0;               ///< guarded by out_mutex
    std::uint32_t ck_sub = 0;                 ///< guarded by out_mutex
    std::uint64_t last_routed = 0;            ///< guarded by ingest_mutex_
    /// Cascade mode: true once this shard hosts (or was ever the
    /// destination of) a definition with an event-type or wildcard slot —
    /// i.e. it can receive feedback, so its arrivals must gate on the
    /// admission frontier. Monotone; shards that stay false run ahead of
    /// the frontier (bounded by kCascadeRunahead) since feedback provably
    /// never reaches them.
    std::atomic<bool> cascade_reachable{false};
    /// Cascade mode: this shard's admission frontier — the coordinator
    /// stores the largest stamp V such that no in-flight (or not yet
    /// activated) closure with stamp <= V can still dispatch feedback to
    /// this shard. The worker admits an item exactly when its gate is
    /// <= this frontier, so a shard outside every in-flight closure's
    /// reach overlaps later arrivals with those closures' roundtrips.
    std::atomic<std::uint64_t> admitted{0};
    /// Cascade mode: the frontier value the parked worker is waiting for,
    /// ~0 when it is not gate-blocked. Stored (seq_cst) before the
    /// worker's pre-park claim recheck; the coordinator's frontier store
    /// (also seq_cst) is followed by a load of this word, so either the
    /// worker re-checks the new frontier or the coordinator sees the
    /// parked gate and wakes it — advances below the gate skip the futex.
    std::atomic<std::uint64_t> parked_gate{~std::uint64_t{0}};

    // --- Crash recovery (inert unless checkpoint_epoch != 0) ---
    /// Initial placement (global indices into def_specs_) in registration
    /// order: recovery before the first checkpoint rebuilds the engine
    /// from these. Written pre-start by add_definition only.
    std::vector<std::uint32_t> initial_globals;
    /// Guards replay_log and checkpoint (producers append, the worker
    /// truncates at checkpoints, recovery and shutdown read).
    std::mutex log_mutex;
    /// Every work item pushed since the last checkpoint, in push order:
    /// appended right before the matching inbox push (under
    /// ingest_mutex_), truncated by the worker at each checkpoint — the
    /// bounded replay window. An arrival item is packed into a record of
    /// its slice, so the log pins no ingest Batch block; a control item
    /// keeps its block. Used only when checkpointing (checkpoint_epoch !=
    /// 0); it allocates nothing before its first append.
    ReplayLog replay_log;
    std::optional<ShardCheckpoint> checkpoint;  ///< guarded by log_mutex
    /// Baseline added to the live engine's counters when publishing
    /// stats: a recovered engine only counts post-checkpoint work, so
    /// the checkpoint's cumulative stats carry over here. Worker-owned.
    core::EngineStats stats_base;
    /// push_seq of the last item whose effects were fully published;
    /// recovery replays log entries beyond it (earlier entries only
    /// rebuild engine state — their emissions already merged). Written
    /// by the worker, read by recovery and the shutdown ticket sweep.
    std::atomic<std::uint64_t> consumed_seq{0};
    /// Whole items popped off the inbox so far, which is the push_seq of
    /// the last one: push sequences are dense per shard (a failed push
    /// retracts its log item) and the inbox is FIFO. A partial
    /// cascade-gated claim does not pop. Recovery replays log entries at
    /// or before it; later ones are still in the inbox. Worker-owned; the
    /// supervisor's join orders the hand-off to the replacement worker.
    std::uint64_t popped_seq = 0;
    /// Set by a dying worker (crash_hook) or an interrupted recovery;
    /// the supervisor reaps and respawns, shutdown sweeps leftovers.
    std::atomic<bool> dead{false};

    std::thread worker;
  };

  /// A worker's unpublished progress — the block of the work consumed
  /// since its last publish and its completions — plus a scratch buffer.
  /// The completion key and watermark persist across publishes
  /// (republishing them is a no-op) and are seeded from the shard's
  /// published values, so a reincarnated worker never moves them
  /// backwards.
  struct Run {
    explicit Run(const Shard& shard)
        : ck_stamp(shard.ck_stamp),
          ck_depth(shard.ck_depth),
          ck_sub(shard.ck_sub),
          watermark(shard.watermark.load(std::memory_order_relaxed)) {}

    /// Filled by observe and moved whole into the outbox by publish, so no
    /// capacity outlives a publish. The previous run's sizes are the next
    /// block's reservation, taken when its first item is observed.
    OutBlock block;
    std::size_t emission_hint = 0;
    std::size_t mark_hint = 0;
    /// Sub-stamp of the last consumed item, and the newest consumed arrival.
    std::uint64_t ck_stamp;
    std::uint32_t ck_depth;
    std::uint32_t ck_sub;
    std::uint64_t watermark;
    /// Since the last publish: arrivals consumed, push_seq of the last
    /// inbox item finished (0 = none), and whether anything was consumed.
    std::uint64_t arrivals = 0;
    std::uint64_t last_seq = 0;
    bool dirty = false;
    std::vector<std::pair<std::uint32_t, core::DefinitionLoad>> loads;  ///< publish scratch
    std::vector<core::SlotRoute> routes;  ///< observe scratch: the item's local routes
  };

  /// One ingest batch the frontier has not fully passed: its routed
  /// arrivals hold the dense stamps [first, last()], and `masks[i]` is
  /// arrival first+i's recipient-shard bitmask (`mask` their union), both
  /// under `placement`, the snapshot the batch was routed through. In
  /// cascade mode `future[i]` is the bitmask of shards that arrival's
  /// closure could ever dispatch feedback to (the union of the matched
  /// definitions' reach in `placement`): a shard outside it may run later
  /// arrivals while the closure is in flight. Empty outside cascade mode.
  /// The record holds masks and the snapshot, never the batch's entities.
  struct PendingBatch {
    std::uint64_t first = 0;
    std::uint64_t mask = 0;
    std::vector<std::uint64_t> masks;
    std::vector<std::uint64_t> future;
    std::shared_ptr<const Placement> placement;

    [[nodiscard]] std::uint64_t last() const { return first + masks.size() - 1; }
  };

  /// Cumulative per-definition load totals (deltas between rebalance passes).
  struct DefTotals {
    std::uint64_t routed = 0;
    std::uint64_t tried = 0;
    std::uint64_t buffered = 0;  ///< gauge, not deltaed
  };

  /// Worker body (every mode): claims runs of admissible work — inbox and
  /// feedback merged in sub-stamp order, arrivals and control items
  /// behind the admission gate — and publishes once per run.
  void worker_loop(Shard& shard);
  /// Observes one entity at sub-stamp (stamp, depth, sub) into the run.
  void observe(Shard& shard, Run& run, const std::shared_ptr<const core::Entity>& entity,
               time_model::TimePoint now, std::uint64_t stamp, std::uint32_t depth,
               std::uint32_t sub);
  /// Observes an arrival item's [begin, end) slice into the run.
  void observe_arrivals(Shard& shard, Run& run, const WorkItem& item);
  /// Publishes the run — its block moved whole into the outbox (or freed
  /// when nothing emitted), stats/def-load snapshots, the completion key
  /// and the watermark, the block before the watermark under one
  /// out_mutex hold — then releases its consumed items (consumed_seq,
  /// arrival capacity) and resets it, keeping only the block's sizes as
  /// the next run's reservation hint.
  void publish(Shard& shard, Run& run);
  /// Executes a migration control item (send: extract + hand over;
  /// receive: wait + implant) and republishes snapshots — unless
  /// `suppress`: a recovery replay of a control published pre-crash.
  /// Used live and by recovery replay. Returns false when shutdown
  /// interrupted the receive wait (the ticket is then completed unblocked).
  bool handle_control(Shard& shard, const Control& ctl, Run& run, bool suppress);
  /// Coordinator body: drives up to cascade_pipeline pending arrivals'
  /// cascade closures concurrently as non-blocking state machines,
  /// advancing the admission frontier as each closure finishes
  /// dispatching and publishing closures in stamp order (see class comment).
  void cascade_loop();
  /// Bumps the progress counter and wakes the coordinator.
  void signal_cascade();
  /// Fills `placement.reach` from `placement.shard`: for each definition,
  /// the bitmask of shards hosting any definition reachable from its
  /// output type in one or more cascade steps. Cascade mode; called under
  /// ingest_mutex_ for each snapshot before it is published (start_locked,
  /// move_locked), so every arrival's reach is exact for the placement it
  /// was routed under.
  void build_cascade_graph(Placement& placement) const;
  /// True once every shard in `mask` has processed sub-stamp (stamp,
  /// depth, sub) — i.e. published a ck at or beyond it.
  bool ck_reached_all(std::uint64_t mask, std::uint64_t stamp, std::uint32_t depth,
                      std::uint32_t sub);
  /// The release, every mode and tier (merge_mutex_ held): advances the
  /// frontier F — the highest stamp every source has passed — through the
  /// pending batch records, whole batches at once when every recipient
  /// passed the batch's last stamp and arrival by arrival otherwise (so a
  /// shard that received only a batch's early arrivals never holds F
  /// back), popping each batch F has passed; then sweeps each outbox
  /// once, detaching the blocks with marks up to the tier's limit (F in
  /// the global tier, unbounded in the relaxed ones; per-definition holds
  /// fence a migration destination's blocks from the barrier on until F
  /// reaches barrier - 1), and advances the low watermark to F clamped
  /// below any mark still untaken. Outside the outbox locks it k-way
  /// merges the detached blocks by stamp; the global tier puts a block F
  /// fell inside back at its outbox front, cursor kept, and outside
  /// cascade mode orders each stamp by definition and renumbers it.
  std::vector<TaggedInstance> drain_locked();
  /// The one move primitive: publishes a copy of the placement snapshot
  /// with `defs` (ascending global indices, all hosted on one shard other
  /// than `to`, none with a move in flight) on `to` — no routing index
  /// changes — installs the move's ticket in their def_ticket_ entries,
  /// registers the per-definition-order release hold, and pushes the
  /// extract/implant control pair. ingest_mutex_ must be held.
  void move_locked(std::vector<std::uint32_t> defs, std::uint32_t to);
  /// The ticket of the first of `defs` whose last move has not implanted
  /// yet; null when every one has settled. ingest_mutex_ held.
  std::shared_ptr<MigrationTicket> busy_ticket(std::span<const std::uint32_t> defs) const;
  /// Waits, with `lk` released, until `ticket`'s move has implanted;
  /// false when shutdown interrupted.
  bool wait_ticket(std::unique_lock<std::mutex>& lk,
                   const std::shared_ptr<MigrationTicket>& ticket);
  /// Public move body: under ingest_mutex_, waits until no definition
  /// `select` returns (it re-selects after each wait and throws on bad
  /// indices) has a move in flight, then moves them to `to_shard` with one
  /// move_locked per source shard. False when none moved or stopped.
  bool move_settled(std::size_t to_shard,
                    const std::function<std::vector<std::uint32_t>()>& select);
  /// Ends registration on the first ingest or migration: freezes
  /// ingest_routes_ and publishes the registration-time placement snapshot
  /// (in cascade mode with its reach). ingest_mutex_ held.
  void start_locked();
  /// Enqueues a control item, bypassing capacity (it carries no arrivals).
  void push_control(Shard& shard, WorkItem item);
  /// Pushes an item into the shard's inbox and wakes its worker; with
  /// checkpointing on, first appends it to the replay log (which assigns
  /// its push_seq). False when shutdown closed the inbox: the item is
  /// discarded and its log append retracted.
  /// ingest_mutex_ must be held.
  bool push_locked(Shard& shard, WorkItem item);
  /// Worker handler for the checkpoint control item with sequence
  /// `push_seq`: serializes the hosted definitions' state, publishes the
  /// checkpoint, truncates the log through the item.
  void take_checkpoint(Shard& shard, std::uint64_t push_seq);
  /// Marks the worker dead and wakes the supervisor (worker thread only).
  void die(Shard& shard);
  /// Supervisor body: reaps dead workers and respawns them through
  /// recover_shard (runs only when crash_hook is set).
  void supervisor_loop();
  /// Rebuilds a dead shard on its replacement worker thread: fresh engine
  /// from the last checkpoint (or the initial placement), then replays
  /// the log through the last item the dead worker popped — entries
  /// published before the crash only rebuild engine state, later ones
  /// publish normally. Returns false when shutdown interrupted the
  /// rebuild (the shard is re-marked dead).
  bool recover_shard(Shard& shard);

  core::ObserverId id_;
  core::Layer layer_;
  geom::Point location_;
  RuntimeOptions options_;
  std::atomic<bool> shutdown_{false};  ///< set once by shutdown()
  /// Whether workers publish per-definition loads with each work item.
  /// False until the first rebalance_now(), so a runtime that never
  /// rebalances skips the O(definitions) collection+copy entirely.
  std::atomic<bool> publish_loads_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Outbox*> sources_;  ///< the drain's: the shards, or cascade_outbox_

  /// The one routing index: every slot of every definition registered
  /// once under the definition's global index, and frozen
  /// (RoutingIndex::freeze) once ingest or a migration starts, after which
  /// collect() only reads and runs on several threads at once. Ingest
  /// and the cascade coordinator map its matches to shards through a
  /// placement snapshot (ingest the current one, the coordinator each
  /// closure's own); each worker keeps the matches its engine hosts
  /// (Shard::local_def) and hands them to the engine's routed observe.
  core::RoutingIndex ingest_routes_;
  /// The type index: event type -> global index of the type's first
  /// definition, which stands for the type. It places a new definition
  /// next to its type and resolves the cascade graph's event-type slots;
  /// def_type_ keeps the answer per definition for everything after
  /// registration (placement splits, the per-type renumbering counters,
  /// cascade reachability). Its keys are the specs' own type strings,
  /// read back through def_specs_ (type_of()).
  core::EventTypeTable type_index_;
  /// The one shared spec of each definition, by global index. The hosting
  /// engine holds the same pointer, and migration, checkpoint decode and
  /// recovery pass it on; here it feeds cascade reachability.
  std::vector<std::shared_ptr<const core::EventDefinition>> def_specs_;
  std::vector<std::uint32_t> def_type_;  ///< global def index -> its type_index_ entry
  /// type_index_'s key reader: the event type of a global definition.
  [[nodiscard]] auto type_of() const {
    return [this](const std::uint32_t global) -> const std::string& {
      return def_specs_[global]->id.value();
    };
  }
  /// Placement keys (routing-key hashes) and definition counts per shard
  /// at registration: the inputs of add_definition's placement, which ends
  /// once ingest or a migration starts (so migrations leave them alone;
  /// start_locked releases the keys).
  std::vector<std::unordered_set<std::uint64_t>> shard_keys_;
  std::vector<std::size_t> shard_def_count_;
  /// The current placement snapshot. add_definition fills it in place
  /// while no batch record can hold it yet; from start_locked on it is
  /// immutable and each move replaces it with an edited copy at the
  /// barrier (move_locked), while batch records and in-flight closures
  /// keep the snapshots they were routed under.
  std::shared_ptr<Placement> placement_ = std::make_shared<Placement>();
  /// Global def index -> its last move's ticket. Empty until the first
  /// move_locked, which sizes it to the (by then frozen) definition count,
  /// so a run that never moves a definition pays nothing for it. Weak: the
  /// ticket lives only while a control item holds it (inbox or replay
  /// log), so a finished move's states are freed with the last of those.
  /// busy_ticket reads a missing entry and an expired ticket as done.
  std::vector<std::weak_ptr<MigrationTicket>> def_ticket_;

  /// Serializes stamp assignment + inbox dispatch so every shard's inbox
  /// stays stamp-ordered even under concurrent ingestion. Also guards all
  /// placement state (placement_, def_ticket_, ingest_routes_, pass loads).
  mutable std::mutex ingest_mutex_;
  bool started_ = false;                              // guarded by ingest_mutex_
  std::uint64_t next_stamp_ = 1;                      // guarded by ingest_mutex_
  std::vector<core::SlotRoute> route_scratch_;        // guarded by ingest_mutex_
  std::vector<std::uint64_t> shard_routed_;           // guarded by ingest_mutex_
  std::uint64_t migrations_ = 0;                      // guarded by ingest_mutex_
  std::uint64_t rebalance_passes_ = 0;                // guarded by ingest_mutex_
  std::vector<DefTotals> def_load_now_;               // guarded by ingest_mutex_
  std::vector<DefTotals> def_load_prev_;              // guarded by ingest_mutex_
  std::vector<MigrationOrder> order_scratch_;         // guarded by ingest_mutex_
  std::vector<DefinitionCost> def_cost_scratch_;      // guarded by ingest_mutex_
  std::vector<std::uint64_t> shard_load_scratch_;     // guarded by ingest_mutex_
  std::uint64_t ckpt_arrivals_ = 0;                   // guarded by ingest_mutex_
  std::uint64_t ckpt_seq_ = 0;                        // guarded by ingest_mutex_
  std::uint64_t splits_ = 0;                          // guarded by ingest_mutex_
  std::uint64_t spillover_skipped_ = 0;               // guarded by ingest_mutex_

  // --- Crash recovery (active only with crash_hook / checkpoint_epoch) ---
  std::thread supervisor_thread_;  ///< spawned iff crash_hook is set
  mutable std::mutex supervisor_mutex_;
  std::condition_variable supervisor_cv_;
  bool supervisor_stop_ = false;  // guarded by supervisor_mutex_
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> replayed_{0};

  /// Guards the merge frontier and runtime counters (poll vs ingest).
  mutable std::mutex merge_mutex_;
  std::deque<PendingBatch> pending_;  // ascending stamp
  std::uint64_t arrivals_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t instances_ = 0;
  /// Released-stream low watermark (see low_watermark()); advanced only
  /// by drain_locked.
  std::uint64_t low_watermark_ = 0;  // guarded by merge_mutex_
  /// Global-total-order, non-cascade: per-type released-instance
  /// counters — drain_locked assigns each released emission its
  /// sequential sequence number, which is the identity while a type's
  /// definitions share a shard and restores stream exactness when they do
  /// not. Indexed by def_type_; grown lazily (def_type_ is
  /// registration-frozen before the first pending arrival exists).
  std::vector<std::uint64_t> type_seq_;  // guarded by merge_mutex_
  /// Per-definition-order tier: release holds installed at migration
  /// issuance, the barrier stamps of the moves onto each *destination*
  /// shard, ascending. The destination may not release a mark with stamp
  /// >= the front barrier until the frontier reaches barrier - 1, when
  /// every pre-barrier emission is published and taken in the same sweep
  /// — exactly the stamp-order hand-off a moved definition's stream needs.
  std::vector<std::vector<std::uint64_t>> shard_holds_;  // guarded by merge_mutex_
  /// The frontier F: highest stamp every source has passed (monotone;
  /// pending_ holds only batches with a stamp above it). The published watermark is this
  /// frontier clamped below any still-untaken mark.
  std::uint64_t frontier_ = 0;  // guarded by merge_mutex_

  // --- Cascade mode (all unused unless options_.cascade) ---
  std::thread cascade_thread_;
  /// Coordinator wake protocol: publishers bump cascade_signal_ (seq_cst
  /// RMW, a release) and notify cascade_ec_ — one fenced load when the
  /// coordinator is awake, no mutex on the publish fast path. The
  /// coordinator snapshots the counter before a pass and parks only if it
  /// is unchanged after a no-progress pass (EventCount's Dekker pair makes
  /// the sleep race-free).
  EventCount cascade_ec_;
  std::atomic<std::uint64_t> cascade_signal_{0};
  std::atomic<bool> cascade_stop_{false};
  /// Global admission frontier: the stamp immediately below the first
  /// in-flight closure that has not finished dispatching feedback. Every
  /// per-shard frontier (Shard::admitted, the reachability-refined gate
  /// feedback-reachable shards use) is at least this; shards that can
  /// never receive feedback run ahead of it by up to kCascadeRunahead,
  /// which bounds coordinator-side buffering. An item with gate g
  /// (arrival stamp s gates on s-1, control barrier b on b-1) is
  /// admissible at a shard once g <= that shard's frontier: no smaller
  /// sub-stamp can ever reach the shard's queues again, and the
  /// per-shard inbox/feedback merge orders what is already there.
  std::atomic<std::uint64_t> admitted_through_{0};
  /// RuntimeStats mirrors, written by the coordinator.
  std::atomic<std::uint64_t> closures_in_flight_max_{0};
  std::atomic<std::uint64_t> cascade_feedback_batches_{0};
  std::atomic<std::uint64_t> cascade_reingested_{0};
  std::atomic<std::uint64_t> cascade_truncated_{0};
  /// False while no registered definition can match an event instance
  /// (no event-type or wildcard slot): feedback then provably never
  /// exists and workers skip the closure gate entirely.
  std::atomic<bool> feedback_possible_{false};
  Outbox cascade_outbox_;  ///< finished closures, a block per pass
};

}  // namespace stem::runtime
