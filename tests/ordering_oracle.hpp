#pragma once

/// Permutation-differential oracle for the relaxed ordering tiers
/// (RuntimeOptions::ordering). A sequential DetectionEngine fed the same
/// arrivals is the reference; the sharded runtime's tagged stream is the
/// subject. Three checks compose per tier:
///
///  - check_equal       — byte-exact (stamp, def, description) sequence
///                        equality: the global_total_order contract.
///  - check_per_def     — for every definition, the subject's emission
///                        subsequence (in release order) equals the
///                        reference's, stamps included: the
///                        per_definition_order contract. Implies multiset
///                        equality when paired with an overall size check
///                        (done inside).
///  - check_multiset    — (stamp, def, description) multiset equality:
///                        the unordered_watermarked floor.
///
/// Watermark soundness is checked incrementally while consuming (see
/// WatermarkAudit): low_watermark() must be monotone, must never release
/// an emission at or below a previously returned watermark, and at
/// quiescence must equal the last assigned stamp.
///
/// Liveness: flush_within / flush_tagged_within bound a flush by a
/// deadline, and a RunDeadline bounds a whole differential's ingest,
/// migrate and flush calls. A stalled runtime prints its counters and
/// fails the test instead of hanging until the ctest timeout.
///
/// `canonicalize_seq` supports a type spread over shards in the relaxed
/// tiers: there the partitioned engine counters interleave per type, so the
/// engine-assigned EventInstanceKey::seq legitimately diverges from the
/// sequential numbering; the oracle zeroes it before comparing and
/// separately asserts per-definition seq monotonicity.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "runtime/sharded_runtime.hpp"

namespace stem::runtime::oracle {

/// One emission, reduced to comparable form. For the reference stream,
/// `stamp` is the 1-based arrival index (valid whenever every arrival
/// routes to at least one shard — keep a wildcard definition registered).
struct Ref {
  std::uint64_t stamp = 0;
  std::uint32_t def = 0;
  std::string text;
  std::uint64_t seq = 0;  ///< engine-assigned EventInstanceKey::seq

  friend bool operator==(const Ref&, const Ref&) = default;
  friend auto operator<=>(const Ref&, const Ref&) = default;
};

inline std::string describe(const core::EventInstance& i, bool canonicalize_seq) {
  std::ostringstream os;
  core::EventInstanceKey key = i.key;
  if (canonicalize_seq) key.seq = 0;
  os << key << " layer=" << static_cast<int>(i.layer) << " gen=" << i.gen_time
     << " t=" << i.est_time << " l=" << i.est_location << " rho=" << i.confidence
     << " V=" << i.attributes << " from=[";
  for (const auto& p : i.provenance) os << p << ";";
  os << "]";
  return os.str();
}

inline Ref make_ref(std::uint64_t stamp, std::uint32_t def, const core::EventInstance& inst,
                    bool canonicalize_seq) {
  return Ref{stamp, def, describe(inst, canonicalize_seq), inst.key.seq};
}

/// Sequential reference: feeds the arrivals one at a time and records the
/// tagged emissions with their 1-based arrival stamps.
inline std::vector<Ref> sequential_reference(core::DetectionEngine& engine,
                                             std::span<const core::Entity> entities,
                                             std::span<const time_model::TimePoint> nows,
                                             bool cascade, bool canonicalize_seq) {
  std::vector<Ref> out;
  std::vector<core::Emission> emissions;
  for (std::size_t i = 0; i < entities.size(); ++i) {
    emissions.clear();
    if (cascade) {
      engine.observe_cascading(entities[i], nows[i], emissions);
    } else {
      engine.observe(entities[i], nows[i], emissions);
    }
    for (const core::Emission& em : emissions) {
      out.push_back(make_ref(i + 1, em.def, em.instance, canonicalize_seq));
    }
  }
  return out;
}

inline std::vector<Ref> to_refs(const std::vector<TaggedInstance>& tagged,
                                bool canonicalize_seq) {
  std::vector<Ref> out;
  out.reserve(tagged.size());
  for (const TaggedInstance& t : tagged) {
    out.push_back(make_ref(t.stamp, t.def, t.instance, canonicalize_seq));
  }
  return out;
}

inline void check_equal(const std::vector<Ref>& got, const std::vector<Ref>& want,
                        const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].stamp, want[k].stamp) << ctx << " instance " << k;
    ASSERT_EQ(got[k].def, want[k].def) << ctx << " instance " << k;
    ASSERT_EQ(got[k].text, want[k].text) << ctx << " instance " << k;
  }
}

inline void check_multiset(std::vector<Ref> got, std::vector<Ref> want,
                           const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].stamp, want[k].stamp) << ctx << " sorted instance " << k;
    ASSERT_EQ(got[k].def, want[k].def) << ctx << " sorted instance " << k;
    ASSERT_EQ(got[k].text, want[k].text) << ctx << " sorted instance " << k;
  }
}

/// Per-definition order: project both streams onto each definition and
/// require byte equality of the projections — each definition's emissions
/// released in reference (stamp) order, whatever the interleaving.
inline void check_per_def(const std::vector<Ref>& got, const std::vector<Ref>& want,
                          const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  std::map<std::uint32_t, std::vector<const Ref*>> got_by, want_by;
  for (const Ref& r : got) got_by[r.def].push_back(&r);
  for (const Ref& r : want) want_by[r.def].push_back(&r);
  ASSERT_EQ(got_by.size(), want_by.size()) << ctx;
  for (const auto& [def, seq] : want_by) {
    const auto it = got_by.find(def);
    ASSERT_NE(it, got_by.end()) << ctx << " def " << def << " missing entirely";
    ASSERT_EQ(it->second.size(), seq.size()) << ctx << " def " << def;
    for (std::size_t k = 0; k < seq.size(); ++k) {
      ASSERT_EQ(it->second[k]->stamp, seq[k]->stamp)
          << ctx << " def " << def << " emission " << k;
      ASSERT_EQ(it->second[k]->text, seq[k]->text)
          << ctx << " def " << def << " emission " << k;
    }
  }
}

/// Per-definition engine-seq monotonicity — canonicalized relaxed runs
/// with a type spread over shards still promise strictly increasing
/// counters per definition.
inline void check_per_def_seq_monotone(const std::vector<Ref>& got, const std::string& ctx) {
  std::map<std::uint32_t, std::pair<bool, std::uint64_t>> last;  // def -> (seen, seq)
  for (const Ref& r : got) {
    auto& [seen, prev] = last[r.def];
    if (seen) {
      ASSERT_GT(r.seq, prev) << ctx << " def " << r.def << " seq not increasing";
    }
    seen = true;
    prev = r.seq;
  }
}

/// How long a test flush may take before it counts as stalled: orders of
/// magnitude above a healthy drain, sanitizer builds included, and well
/// under the suites' ctest TIMEOUT.
inline constexpr std::chrono::seconds kFlushDeadline{60};

/// The runtime's counters, read on a helper thread: a stalled runtime may
/// hold a lock forever, so the caller waits at most `grace` for the text.
/// low_watermark() takes only the merge lock and is handed over first;
/// stats() and shard_arrival_loads() also take the ingest lock, which a
/// producer parked inside ingest_batch or migrate_definition holds.
inline std::string stall_snapshot(const ShardedEngineRuntime& rt,
                                  std::chrono::milliseconds grace) {
  auto watermark = std::make_shared<std::promise<std::uint64_t>>();
  auto counters = std::make_shared<std::promise<std::string>>();
  std::future<std::uint64_t> watermark_ready = watermark->get_future();
  std::future<std::string> counters_ready = counters->get_future();
  std::thread([&rt, watermark, counters] {
    watermark->set_value(rt.low_watermark());
    const RuntimeStats s = rt.stats();
    std::ostringstream os;
    os << "arrivals=" << s.arrivals << " deliveries=" << s.deliveries
       << " dropped=" << s.dropped << " instances=" << s.instances
       << " max_inbox=" << s.max_inbox << " migrations=" << s.migrations
       << " checkpoints=" << s.checkpoints << " crashes=" << s.crashes
       << " recoveries=" << s.recoveries << " cascade_reingested=" << s.cascade_reingested
       << " closures_in_flight_max=" << s.closures_in_flight_max << " shard_arrival_loads=[";
    for (const std::uint64_t load : rt.shard_arrival_loads()) os << load << ";";
    os << "]";
    counters->set_value(os.str());
  }).detach();
  const auto deadline = std::chrono::steady_clock::now() + grace;
  const std::string waited = " within " + std::to_string(grace.count()) + " ms";
  if (watermark_ready.wait_until(deadline) != std::future_status::ready) {
    return "no low_watermark" + waited + " (the merge lock is held)";
  }
  std::string text = "low_watermark=" + std::to_string(watermark_ready.get());
  if (counters_ready.wait_until(deadline) != std::future_status::ready) {
    return text + ", no counters" + waited + " (the ingest lock or an output lock is held)";
  }
  return text + " " + counters_ready.get();
}

/// Fails the test with `what` and the runtime's snapshot, then exits the
/// process: the stalled call still references the runtime, so neither
/// unwinding nor destroying it is safe.
[[noreturn]] inline void fail_stalled(const ShardedEngineRuntime& rt, const std::string& what) {
  ADD_FAILURE() << what << ": " << stall_snapshot(rt, std::chrono::milliseconds(500));
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(1);
}

/// Runs `flush` (a call of rt.flush() or rt.flush_tagged()) bounded by
/// `deadline`; on expiry fails and exits (fail_stalled).
template <typename Flush>
auto bounded_flush(const ShardedEngineRuntime& rt, const std::string& ctx, Flush flush,
                   std::chrono::seconds deadline = kFlushDeadline) -> decltype(flush()) {
  auto result = std::async(std::launch::async, std::move(flush));
  if (result.wait_for(deadline) != std::future_status::ready) {
    fail_stalled(rt, ctx + " flush stalled for " + std::to_string(deadline.count()) + " s");
  }
  return result.get();
}

/// How long one differential run — its ingest, migrate and flush calls
/// together — may take before it counts as stalled: far above a healthy
/// run under the sanitizers, and under the suites' ctest TIMEOUT.
inline constexpr std::chrono::seconds kRunDeadline{120};

/// Whole-run liveness guard: armed on construction, disarmed on
/// destruction. Still armed after `deadline` — say a producer parked on
/// arrival backpressure inside ingest_batch, or on a migration handshake —
/// the test fails with the runtime's snapshot and exits (fail_stalled).
/// Declare it after the runtime, so it disarms before the runtime dies.
class RunDeadline {
 public:
  RunDeadline(const ShardedEngineRuntime& rt, std::string ctx,
              std::chrono::seconds deadline = kRunDeadline)
      : watchdog_([this, &rt, ctx = std::move(ctx), deadline] {
          std::unique_lock lk(m_);
          if (cv_.wait_for(lk, deadline, [this] { return disarmed_; })) return;
          fail_stalled(rt, ctx + " run stalled for " + std::to_string(deadline.count()) + " s");
        }) {}

  RunDeadline(const RunDeadline&) = delete;
  RunDeadline& operator=(const RunDeadline&) = delete;

  ~RunDeadline() {
    {
      const std::lock_guard lk(m_);
      disarmed_ = true;
    }
    cv_.notify_all();
    watchdog_.join();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool disarmed_ = false;  // guarded by m_
  std::thread watchdog_;   ///< last: starts once the fields above exist
};

inline std::vector<core::EventInstance> flush_within(ShardedEngineRuntime& rt,
                                                     const std::string& ctx) {
  return bounded_flush(rt, ctx, [&rt] { return rt.flush(); });
}

inline std::vector<TaggedInstance> flush_tagged_within(ShardedEngineRuntime& rt,
                                                       const std::string& ctx) {
  return bounded_flush(rt, ctx, [&rt] { return rt.flush_tagged(); });
}

/// Incremental watermark soundness audit. Usage per consumption step, in
/// this order:
///   auto got = rt.poll_tagged();               // or flush_tagged()
///   audit.observe(got);                        // vs the *previous* poll's W
///   audit.after_poll(rt.low_watermark());
/// and at quiescence: audit.at_quiescence(rt.low_watermark(), last_stamp).
///
/// Valid in cascade mode too, sub-stamped emissions included: every tier
/// releases whole closures in stamp order and the runtime clamps
/// low_watermark() strictly below the oldest in-flight (unclosed)
/// closure, so every release — a closure published while later pipelined
/// closures are still open — must carry stamps above every previously
/// promised watermark. observe() audits exactly that: a watermark that
/// passed a stamp before its closure was released shows up as a later
/// release at or below the promise. The watermark advances only inside a
/// poll or flush, in every mode (the drain is the one release), and the
/// audit checks each release against the last watermark the consumer
/// actually saw — the consumer-facing contract.
class WatermarkAudit {
 public:
  explicit WatermarkAudit(std::string ctx) : ctx_(std::move(ctx)) {}

  /// Every emission released after low_watermark() returned W must carry
  /// a stamp strictly above W — W promised those stamps were already out.
  void observe(const std::vector<TaggedInstance>& released) {
    for (const TaggedInstance& t : released) {
      EXPECT_GT(t.stamp, last_) << ctx_ << " released stamp " << t.stamp
                                << " at or below promised watermark " << last_;
      released_max_ = std::max(released_max_, t.stamp);
    }
  }

  void after_poll(std::uint64_t watermark) {
    EXPECT_GE(watermark, last_) << ctx_ << " watermark regressed";
    last_ = std::max(last_, watermark);
  }

  void at_quiescence(std::uint64_t watermark, std::uint64_t last_stamp) {
    EXPECT_GE(watermark, last_) << ctx_;
    EXPECT_EQ(watermark, last_stamp) << ctx_ << " final watermark short of the stream";
    // Every sub-stamped release is covered by the final promise: nothing
    // left the runtime with a stamp the watermark never reached.
    EXPECT_GE(watermark, released_max_)
        << ctx_ << " released stamps outrun the final watermark";
  }

 private:
  std::string ctx_;
  std::uint64_t last_ = 0;
  std::uint64_t released_max_ = 0;  ///< largest stamp seen in any release
};

}  // namespace stem::runtime::oracle
