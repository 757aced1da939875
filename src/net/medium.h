// The shared 2.4 GHz medium: 802.15.4 transmissions plus foreign
// interference energy.
//
// This is the substitute for the paper's physical radio environment. Radios
// register per channel; a transmission occupies its channel for its
// airtime, is delivered to every other listening radio on the channel at
// completion, and raises start-of-frame notifications at its beginning.
// Clear-channel assessment (the input to low-power listening) reports
// energy from both 802.15.4 transmissions and interference sources such as
// the 802.11 b/g access point of Section 4.3 — which is how channel 17
// "hears" the Wi-Fi network that channel 26 does not.
//
// Sharded operation: under the ShardedSimulator each shard gets its own
// Medium replica covering the radios of that shard's motes, all connected
// by a MediumFabric. Within a shard, delivery is synchronous exactly as in
// the single-engine mode. Across shards, delivery is a two-phase protocol:
// a successful BeginTransmit *posts* the frame to the fabric's per-shard
// mailbox (lock-free: only the owning shard's thread appends), and the
// fabric *drains* all mailboxes between windows, scheduling the frame onto
// every other shard's engine at post-time + latency. The latency models
// antenna propagation plus receiver turnaround and is the simulator's
// lookahead: it is what guarantees no frame posted inside a window can
// land inside the same window.
//
// The drain itself is parallel, destination-owned work. Per window the
// phase order is: (1) window execution — each source shard appends to its
// own mailbox lane in execution (= time) order; (2) the simulator's
// inter-window drain phase — each DESTINATION shard, on a worker thread,
// k-way-merges the k frozen source lanes in (time, source shard) order
// and schedules the deliveries it is interested in onto its own engine;
// (3) the serial barrier hooks — the fabric's hook merely retires the
// consumed lanes (O(shards) buffer swaps) so the next drain phase can
// release the frames in parallel. The merge order is exactly the order
// the retired global stable_sort produced, so cross-shard delivery — and
// therefore every downstream event sequence number — is identical at any
// thread count, and identical to the retained Config::serial_drain path
// (asserted by tests/fabric_drain_test.cc).
#ifndef QUANTO_SRC_NET_MEDIUM_H_
#define QUANTO_SRC_NET_MEDIUM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/event_queue.h"
#include "src/util/units.h"

namespace quanto {

class MediumFabric;
class ShardedSimulator;  // Full type needed only by medium.cc.

// A frame on the air: one immutable, refcounted copy of the transmitted
// packet shared by every delivery path that needs it — the local
// completion event and, in sharded mode, one closure per destination
// shard. A broadcast fanning out to N shards therefore performs exactly
// one frame allocation at transmit time, however large N is (asserted by
// MediumFabricTest.BroadcastFanOutAllocatesOneFrame).
using SharedFrame = std::shared_ptr<const Packet>;

// 802.15.4 channels are numbered 11..26 (2.405 + 5*(k-11) MHz centres).
inline constexpr int kFirstZigbeeChannel = 11;
inline constexpr int kLastZigbeeChannel = 26;

// Centre frequency of an 802.15.4 channel in MHz.
constexpr double ZigbeeCentreMhz(int channel) {
  return 2405.0 + 5.0 * (channel - kFirstZigbeeChannel);
}

// Centre frequency of an 802.11 b/g channel in MHz (1..13).
constexpr double WifiCentreMhz(int channel) { return 2407.0 + 5.0 * channel; }

// Callbacks a radio registers with the medium.
class MediumClient {
 public:
  virtual ~MediumClient() = default;
  virtual node_id_t NodeId() const = 0;
  virtual int Channel() const = 0;
  // True when the receive path is powered and listening (able to hear).
  virtual bool Listening() const = 0;
  // Raised at the first bit of a frame on the client's channel.
  virtual void OnFrameStart(node_id_t sender) = 0;
  // Raised at the last bit; the client may begin downloading the frame.
  virtual void OnFrameComplete(const Packet& packet) = 0;
};

// An external energy source the medium consults for CCA (e.g. the Wi-Fi
// interferer). `EnergyOn(channel, now)` returns true when the source
// currently deposits detectable energy on the 802.15.4 channel.
class InterferenceSource {
 public:
  virtual ~InterferenceSource() = default;
  virtual bool EnergyOn(int channel, Tick now) const = 0;
};

class Medium {
 public:
  // Single-engine (global) medium: the pre-sharding behaviour, used by
  // every one-queue experiment and test.
  explicit Medium(EventQueue* queue);

  void Register(MediumClient* client);
  void Unregister(MediumClient* client);

  // Bulk-reserve for known network sizes: pre-sizes the client list and
  // `channel`'s per-channel delivery list so registering `clients` radios
  // performs no vector growth (ScaleNetwork calls this per replica before
  // building its motes — at 16k+ motes the repeated reallocation during
  // construction is measurable).
  void ReserveClients(size_t clients, int channel);

  void AddInterference(InterferenceSource* source);

  // Starts a transmission: occupies `channel` for `airtime`, notifies
  // listening peers of frame start now and frame completion at the end.
  // Returns false (and sends nothing) if the sender collides with an
  // ongoing 802.15.4 transmission on the channel. In sharded mode a
  // successful transmit is additionally posted to the fabric for delivery
  // to the other shards' airspace at now + fabric latency.
  bool BeginTransmit(node_id_t sender, int channel, const Packet& packet,
                     Tick airtime);

  // Clear-channel assessment: energy detected on `channel` right now,
  // from an in-flight 802.15.4 frame (local or remote), or an
  // interference source.
  bool EnergyDetected(int channel) const;

  // Number of in-flight 802.15.4 transmissions occupying the channel here
  // (local transmissions plus remote frames currently on the air in this
  // shard's airspace).
  size_t ActiveTransmissions(int channel) const;

  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t collisions() const { return collisions_; }
  // Frame objects allocated by BeginTransmit here (one per accepted
  // transmission, shared across every delivery path).
  uint64_t frames_allocated() const { return frames_allocated_; }

 private:
  friend class MediumFabric;

  // Sharded replica: created by MediumFabric only.
  Medium(EventQueue* queue, MediumFabric* fabric, size_t shard);

  void CompleteTransmit(int channel, const Packet& packet);

  // A frame transmitted in another shard reaches this shard's airspace
  // now: occupy the channel for `airtime`, raise frame starts, and at the
  // end deliver it — unless the channel was already occupied here, in
  // which case the arriving frame is dropped as corrupted. Mirrors the
  // local model's earlier-frame-wins semantics (BeginTransmit refuses the
  // later transmission; here the senders were out of each other's
  // carrier-sense reach, so the later frame airs but cannot be decoded).
  void DeliverRemote(const SharedFrame& frame, int channel, Tick airtime);
  void FinishRemote(int channel, const SharedFrame& frame, bool collided);

  // Clients tuned to `channel` (queried at Register time; radios in this
  // model never retune). Keeps per-packet notification from scanning every
  // client in the network.
  std::vector<MediumClient*>& ChannelClients(int channel);

  EventQueue* queue_;
  MediumFabric* fabric_ = nullptr;  // Null in single-engine mode.
  size_t shard_ = 0;
  std::vector<MediumClient*> clients_;
  std::map<int, std::vector<MediumClient*>> clients_by_channel_;
  std::vector<InterferenceSource*> interference_;
  std::map<int, size_t> busy_count_;  // channel -> frames on the air here.
  uint64_t packets_sent_ = 0;
  uint64_t packets_delivered_ = 0;
  uint64_t collisions_ = 0;
  uint64_t frames_allocated_ = 0;
};

// The cross-shard radio interconnect: one Medium replica per shard plus
// the mailbox/drain machinery. Owns the replicas; registers its drain
// machinery on the simulator at construction — by default a per-shard
// drain task on the parallel inter-window phase plus a small serial
// retirement hook, or (Config::serial_drain) the legacy single-threaded
// gather+sort drain as a barrier hook.
class MediumFabric {
 public:
  struct Config {
    // Cross-shard visibility latency (propagation + receiver turnaround).
    // Clamped up to the simulator's lookahead — the conservative-lookahead
    // invariant requires latency >= window width.
    Tick latency = Microseconds(512);
    // Use the pre-PR8 single-threaded gather + global stable_sort drain on
    // the coordinator instead of the parallel per-destination lane merge.
    // Kept only as the reference FabricDrainTest compares the parallel
    // drain against: both must produce byte-identical merged traces and
    // identical wakeup counters.
    bool serial_drain = false;
  };

  MediumFabric(ShardedSimulator* sim, const Config& config);
  explicit MediumFabric(ShardedSimulator* sim)
      : MediumFabric(sim, Config()) {}

  MediumFabric(const MediumFabric&) = delete;
  MediumFabric& operator=(const MediumFabric&) = delete;

  size_t shard_count() const { return media_.size(); }
  Medium& medium(size_t shard) { return *media_[shard]; }
  Tick latency() const { return config_.latency; }

  // Network-wide statistics, aggregated over the shard replicas.
  uint64_t packets_sent() const;
  uint64_t packets_delivered() const;
  uint64_t collisions() const;
  // Posts accepted into the mailbox lanes. Like the wakeup counters below
  // this is kept in per-shard slots written only by the slot's owner and
  // summed on read, so the parallel drain never mutates shared counters.
  uint64_t cross_posts() const;
  // Frame allocations across all replicas: one per accepted transmission,
  // independent of how many shards each frame fans out to.
  uint64_t frames_allocated() const;

  // (post, destination shard) pairs the drain never scheduled because the
  // shard-interest bitmap showed no client on the post's channel there —
  // wakeups a bitmap-less drain would have had to consider one by one.
  // Identical on the serial and parallel paths by construction.
  uint64_t skipped_wakeups() const;
  // (post, destination shard) pairs actually scheduled.
  uint64_t scheduled_wakeups() const;
  // Whole source lanes a destination's drain task dismissed with one
  // channel-mask AND instead of a per-post scan (parallel path only; the
  // per-post skips are still accounted in skipped_wakeups so the totals
  // match the serial path exactly).
  uint64_t lanes_skipped() const;

  // Per-window drain cost in microseconds: the MAX over the
  // per-destination drain tasks of that window (the phase's critical
  // path). Parallel drain only; off by default — one sample per window.
  void EnableDrainProfiling(bool on) { profile_drain_ = on; }
  const std::vector<uint32_t>& drain_us_samples() const {
    return drain_us_samples_;
  }

  // True when any client in shard `shard` is tuned to `channel`
  // (bitmap-backed; exposed for tests).
  bool ShardInterested(size_t shard, int channel) const;

 private:
  friend class Medium;

  // Per-channel bitmap of shards with at least one registered client on
  // that channel, plus the per-shard client counts that maintain it across
  // Unregister. Radios never retune in this model, so the bitmap only
  // changes at Register/Unregister time and the drain loop iterates set
  // bits instead of probing every replica's channel map per post.
  struct ChannelInterest {
    std::vector<uint64_t> bits;      // One bit per shard.
    std::vector<uint32_t> counts;    // Clients per shard on this channel.
  };

  void NoteClientRegistered(size_t shard, int channel);
  void NoteClientUnregistered(size_t shard, int channel);

  // Interest lookup for the drain hot path: channels are small ints fixed
  // at registration time, so the per-post `std::map` probe is hoisted to
  // a dense pointer table indexed by channel (map nodes are address-
  // stable). Channels outside [0, kMaxDenseChannel) — none in practice —
  // fall back to the map.
  static constexpr int kMaxDenseChannel = 4096;
  const ChannelInterest* InterestFor(int channel) const {
    if (channel >= 0 &&
        static_cast<size_t>(channel) < interest_by_channel_.size()) {
      return interest_by_channel_[channel];
    }
    auto it = interest_.find(channel);
    return it != interest_.end() ? &it->second : nullptr;
  }

  struct CrossPost {
    Tick time;         // Transmit start time in the source shard.
    size_t src_shard;
    int channel;
    Tick airtime;
    SharedFrame frame;  // Shared with the source shard's local delivery.
  };

  // Per-destination drain bookkeeping, one cache line per shard: written
  // only by the owning shard's drain task (or, on the serial path, by the
  // coordinator — which is then the only writer anyway) and summed by the
  // public accessors on read.
  struct alignas(64) ShardDrainStats {
    uint64_t cross_posts = 0;
    uint64_t scheduled = 0;
    uint64_t skipped = 0;
    uint64_t lanes_skipped = 0;
    uint32_t last_drain_us = 0;       // This window's DrainShard wall time.
    std::vector<uint32_t> cursor;     // k-way merge scratch, one per lane.
  };

  // Called by a shard's Medium during its window. Only the owning shard's
  // worker touches posts_[src_shard] (and its channel mask), so no
  // synchronization is needed; the window barrier publishes the writes to
  // the draining threads. The frame is the transmit-time allocation —
  // posting and draining only bump its refcount.
  void Post(size_t src_shard, int channel, const SharedFrame& frame,
            Tick airtime, Tick now);

  // Parallel drain task for destination shard `dst`: releases the frames
  // retired at the previous barrier, then k-way-merges the frozen source
  // lanes in (time, src_shard, post order) — reading every lane, writing
  // only dst's engine and stats slot.
  void DrainShard(size_t dst, Tick barrier_now);

  // Serial hook behind the drain phase: swaps each consumed lane with its
  // (emptied) retirement buffer and counts the posts — O(shards) pointer
  // swaps, the only drain work left on the coordinator.
  void RetireWindowPosts(Tick window_end);

  // Legacy single-threaded drain (Config::serial_drain): gathers all
  // lanes, stable_sorts on (time, src_shard) and schedules every delivery
  // from the coordinator. Retained as the tests' reference.
  void Drain(Tick barrier_now);

  Config config_;
  std::vector<std::unique_ptr<Medium>> media_;
  std::vector<EventQueue*> queues_;
  std::vector<std::vector<CrossPost>> posts_;    // Indexed by source shard.
  // Last window's consumed lanes, cleared (frames released) by each
  // shard's next drain task instead of on the serial hook; capacity
  // recycles back into posts_ via the swap in RetireWindowPosts.
  std::vector<std::vector<CrossPost>> retired_;
  std::vector<CrossPost> scratch_;               // Serial-drain merge buffer.
  std::map<int, ChannelInterest> interest_;      // Keyed by channel.
  std::vector<const ChannelInterest*> interest_by_channel_;  // Dense table.
  // OR of (1 << (channel & 63)) over the posts in each source lane /
  // over the channels each destination shard has clients on. A zero AND
  // proves the destination listens on no channel in the lane (mod-64
  // aliasing can only force the per-post path, never skip wrongly), so a
  // drain task dismisses the whole lane in one compare.
  std::vector<uint64_t> lane_channel_mask_;      // Indexed by source shard.
  std::vector<uint64_t> shard_channel_mask_;     // Indexed by destination.
  std::vector<ShardDrainStats> stats_;           // Indexed by shard.
  bool profile_drain_ = false;
  std::vector<uint32_t> drain_us_samples_;
};

}  // namespace quanto

#endif  // QUANTO_SRC_NET_MEDIUM_H_
